"""E20 — vectorized kernels: scalar reference vs whole-array NumPy throughput.

The :mod:`repro.kernels` subsystem claims that every Monte-Carlo hot
path has a whole-array formulation that is statistically equivalent to
the scalar reference (pinned by the tier-1 equivalence suite) and at
least an order of magnitude faster per core.  This bench quantifies the
second claim on the four kernel families:

* **settling** — Theorem 4.1 window growth: per-trial
  :func:`repro.core.settling.sample_window_growth` vs
  :func:`repro.kernels.window_growth_batch`;
* **shift** — Theorem 5.1 disjointness: per-trial
  :meth:`repro.core.shift.ShiftProcess.sample_event` vs
  :func:`repro.kernels.shift_disjoint_batch`;
* **joined** — the §6 pipeline: the scalar reference trial loop (kept
  with the tier-1 tests, ``tests/reference.py``) vs
  :func:`repro.kernels.non_manifestation_batch`;
* **machine** — the §2.2 race: ``run_canonical_bug``'s two machines,
  ``backend="scalar"`` (the per-trial simulated multiprocessor) vs
  ``backend="vectorized"`` (:func:`repro.kernels.canonical_bug_batch`).

Each side is timed on its own budget (the scalar reference would take
minutes at the vectorized trial counts) and compared by *throughput*
(trials/second), so the speedup ratio is host-scale free.  The two sides
of a ratio are timed in turn, round by round, on one warmed process
(:func:`conftest.interleaved_best`), and each keeps its best of
``ROUNDS`` rounds, so host load that drifts during a pair lands on both
sides of the ratio instead of on whichever ran during it.  The committed
floor: ``>= 10x`` on the settling and shift paths at 10^6 vectorized
trials.  Results land in ``BENCH_vectorized_kernels.json`` with the
speedups tracked for ``check_regression.py`` (the CI 25% gate).

In smoke mode (``REPRO_BENCH_SMOKE=1``) the budgets shrink to seconds
and the absolute >=10x floor is *not* asserted (tiny batches are
dominated by NumPy dispatch overhead); the regression gate still
compares the tracked ratios against this committed baseline.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from conftest import interleaved_best, results_path, scaled, show, smoke_mode

from repro import RunConfig
from repro.core import TSO, WINDOW_LENGTH_OFFSET
from repro.core.settling import sample_window_growth
from repro.core.shift import DEFAULT_SHIFT_RATIO, ShiftProcess
from repro.kernels import (
    non_manifestation_batch,
    shift_disjoint_batch,
    window_growth_batch,
)
from repro.reporting import render_table
from repro.reporting.io import write_rows
from repro.stats import RandomSource

#: The joined reference loop lives with the tier-1 tests, under the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference import non_manifestation_scalar_batch  # noqa: E402

SEED = 20_011
ROUNDS = scaled(15, 25)
BODY_LENGTH = 8
SHIFT_LENGTHS = (2, 2)

#: The committed claim (full mode only): vectorized settling and shift
#: throughput must be at least this factor over the scalar reference.
SPEEDUP_FLOOR = 10.0


def _speedup(family: str, scalar_trials: int, scalar, vector_trials: int,
             vectorized, rows: list[dict[str, object]]) -> float:
    """Vectorized over scalar throughput, each side its best of ``ROUNDS``.

    The minimum time is the noise-robust estimator (scheduling hiccups
    only ever add to a leg's wall time), and timing the two legs in turn
    spreads host drift over both.
    """
    timed = interleaved_best({"scalar": lambda _: scalar(),
                              "vectorized": lambda _: vectorized()}, ROUNDS)
    rates = {}
    for leg, trials in (("scalar", scalar_trials), ("vectorized", vector_trials)):
        best = max(timed[leg][0], 1e-9)
        rates[leg] = trials / best
        rows.append({"path": f"{family}/{leg}", "trials": trials,
                     "seconds": round(best, 4),
                     "trials_per_second": round(rates[leg], 1)})
    return rates["vectorized"] / rates["scalar"]


def _bench_settling(rows) -> float:
    scalar_trials = scaled(20_000, 200)
    vector_trials = scaled(1_000_000, 5_000)

    def scalar():
        source = RandomSource(SEED)
        for _ in range(scalar_trials):
            sample_window_growth(TSO, source, body_length=BODY_LENGTH)

    def vectorized():
        window_growth_batch(TSO, RandomSource(SEED), vector_trials,
                            body_length=BODY_LENGTH)

    return _speedup("settling", scalar_trials, scalar, vector_trials,
                    vectorized, rows)


def _bench_shift(rows) -> float:
    scalar_trials = scaled(100_000, 500)
    vector_trials = scaled(1_000_000, 5_000)
    process = ShiftProcess(DEFAULT_SHIFT_RATIO)

    def scalar():
        source = RandomSource(SEED)
        for _ in range(scalar_trials):
            process.sample_event(source, SHIFT_LENGTHS)

    def vectorized():
        shift_disjoint_batch(RandomSource(SEED), vector_trials, SHIFT_LENGTHS,
                             DEFAULT_SHIFT_RATIO)

    return _speedup("shift", scalar_trials, scalar, vector_trials,
                    vectorized, rows)


def _bench_joined(rows) -> float:
    scalar_trials = scaled(4_000, 50)
    vector_trials = scaled(400_000, 2_000)
    options = dict(model=TSO, n=2, store_probability=0.5,
                   beta=DEFAULT_SHIFT_RATIO, body_length=BODY_LENGTH,
                   critical_section_length=WINDOW_LENGTH_OFFSET)

    return _speedup(
        "joined",
        scalar_trials, lambda: non_manifestation_scalar_batch(
            RandomSource(SEED), scalar_trials, **options),
        vector_trials, lambda: non_manifestation_batch(
            RandomSource(SEED), vector_trials, **options),
        rows)


def _bench_machine(rows) -> float:
    from repro.sim import run_canonical_bug

    # Smoke budgets stay large enough that per-call engine overhead and
    # NumPy dispatch don't dominate: the tracked speedup must be
    # comparable to the committed full-budget baseline.
    scalar_trials = scaled(1_000, 200)
    vector_trials = scaled(50_000, 30_000)

    def run(backend: str, trials: int):
        return run_canonical_bug("TSO", 2, trials, seed=SEED,
                                 backend=backend,
                                 config=RunConfig(workers=1, shards=1),
                                 body_length=BODY_LENGTH)

    return _speedup("machine", scalar_trials, lambda: run("scalar", scalar_trials),
                    vector_trials, lambda: run("vectorized", vector_trials), rows)


def test_vectorized_kernel_speedups(run_once):
    def compute():
        rows: list[dict[str, object]] = []
        speedups = {
            "settling_speedup": _bench_settling(rows),
            "shift_speedup": _bench_shift(rows),
            "joined_speedup": _bench_joined(rows),
            "machine_speedup": _bench_machine(rows),
        }
        return rows, speedups

    rows, speedups = run_once(compute)
    show(render_table(rows, precision=1,
                      title="E20: scalar vs vectorized kernel throughput"))
    show("[kernels] " + ", ".join(
        f"{name.removesuffix('_speedup')} {value:.1f}x"
        for name, value in speedups.items()
    ) + f" (floor, full mode: {SPEEDUP_FLOOR}x settling/shift)")

    write_rows(
        results_path("vectorized_kernels"),
        rows,
        metadata={
            "experiment": "vectorized_kernels",
            "seed": SEED,
            "rounds": ROUNDS,
            "smoke": smoke_mode(),
            "cpu_count": os.cpu_count(),
            "speedup_floor": SPEEDUP_FLOOR,
            "tracked": {
                name: {"value": round(value, 2), "higher_is_better": True}
                for name, value in speedups.items()
            },
        },
    )

    for name, value in speedups.items():
        assert value > 1.0, (
            f"{name}: the vectorized kernel is *slower* than the scalar "
            f"reference ({value:.2f}x)"
        )
    if not smoke_mode():
        for name in ("settling_speedup", "shift_speedup"):
            assert speedups[name] >= SPEEDUP_FLOOR, (
                f"{name} {speedups[name]:.1f}x below the committed "
                f"{SPEEDUP_FLOOR}x floor"
            )
