"""E19 — observability overhead: watching a run must cost (almost) nothing.

The observability layer (:mod:`repro.obs`) claims to be inert twice
over: with every knob off the engine takes the exact pre-observability
code path (``RunObserver.from_options`` returns ``None``), and with
manifest + trace + progress all enabled the per-shard telemetry rides
the existing result channel, so the hot path pays only one in-worker
``perf_counter`` pair per shard.  This bench quantifies both on the §6
disjointness estimator and asserts the documented budgets:

* **knobs-off** — explicit ``manifest=None, trace=None, progress=False``
  must be indistinguishable from the baseline (same code path);
* **fully-observed** — manifest + trace + progress together must stay
  within ``OBSERVED_OVERHEAD_CEILING`` (5%) of the baseline.

Every leg must reproduce the baseline's exact success count.  All legs
share one process pool, warmed by an untimed run; each leg's time is
its best of ``ROUNDS`` rounds, the three legs timed in turn within a
round (:func:`conftest.interleaved_best`).  Timings land in
``BENCH_obs_overhead.json`` at the repo root.
"""

from __future__ import annotations

from conftest import interleaved_best, results_path, scaled, show, smoke_mode

from repro import RunConfig
from repro.core import TSO, estimate_non_manifestation
from repro.parallel import pool_scope
from repro.reporting import render_table
from repro.reporting.io import write_rows

TRIALS = scaled(1_600_000, 400_000)
SHARDS = 8
SEED = 1887
WORKERS = 2
ROUNDS = scaled(15, 25)

#: Enabled-path budget: manifest + trace + progress together must cost at
#: most this factor over the unobserved run (the documented "≤5%").
OBSERVED_OVERHEAD_CEILING = 1.05
#: Off-path budget: explicit disabled knobs take the identical code path,
#: so any measured difference is timing noise.
DISABLED_OVERHEAD_CEILING = 1.05


def _estimate(**knobs):
    return estimate_non_manifestation(
        TSO, 2, TRIALS, seed=SEED,
        config=RunConfig(shards=SHARDS, workers=WORKERS, **knobs),
    )


def test_obs_overhead(run_once, tmp_path):
    sink = tmp_path / "obs"

    def compute():
        legs = {
            "baseline": lambda _: _estimate(),
            "knobs-off": lambda _: _estimate(manifest=None, trace=None,
                                             progress=False),
            "fully-observed": lambda index: _estimate(
                manifest=sink / f"m{index}.json",
                trace=sink / f"spans{index}.jsonl", progress=True),
        }
        with pool_scope():
            timed = interleaved_best(legs, ROUNDS)
        return [{"variant": name, "trials": TRIALS,
                 "seconds": round(seconds, 4), "successes": result.successes}
                for name, (seconds, result) in timed.items()]

    rows = run_once(compute)
    show(render_table(rows, precision=4,
                      title="E19: observability overhead — inert on and off"))

    by_variant = {row["variant"]: row for row in rows}
    base = max(by_variant["baseline"]["seconds"], 1e-9)
    disabled_ratio = by_variant["knobs-off"]["seconds"] / base
    observed_ratio = by_variant["fully-observed"]["seconds"] / base
    show(f"[obs-overhead] knobs-off {disabled_ratio:.3f}x, "
         f"fully-observed {observed_ratio:.3f}x "
         f"(ceiling {OBSERVED_OVERHEAD_CEILING}x)")

    write_rows(
        results_path("obs_overhead"),
        rows,
        metadata={
            "experiment": "obs_overhead",
            "seed": SEED,
            "shards": SHARDS,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "smoke": smoke_mode(),
            "disabled_ratio": round(disabled_ratio, 4),
            "observed_ratio": round(observed_ratio, 4),
            "observed_overhead_ceiling": OBSERVED_OVERHEAD_CEILING,
            "disabled_overhead_ceiling": DISABLED_OVERHEAD_CEILING,
            # Overhead ratios are scale-free, so the CI regression gate
            # can compare a smoke run against this committed baseline.
            "tracked": {
                "disabled_ratio": {"value": round(disabled_ratio, 4),
                                   "higher_is_better": False},
                "observed_ratio": {"value": round(observed_ratio, 4),
                                   "higher_is_better": False},
            },
        },
    )

    assert len({row["successes"] for row in rows}) == 1, (
        "observability changed the merged numbers"
    )
    assert disabled_ratio <= DISABLED_OVERHEAD_CEILING, (
        f"disabled observability cost {disabled_ratio:.3f}x — the off path "
        f"must be the pre-observability code path"
    )
    assert observed_ratio <= OBSERVED_OVERHEAD_CEILING, (
        f"full observability cost {observed_ratio:.3f}x over baseline "
        f"(budget {OBSERVED_OVERHEAD_CEILING}x)"
    )
