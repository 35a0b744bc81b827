"""E18 — fault-tolerant, resumable shard execution: overhead and identity.

The recovery machinery of :mod:`repro.stats.faults` and
:mod:`repro.stats.checkpoint` is only worth having if (a) every recovery
path merges **bit-identically** to an undisturbed run — the purity of
shards in ``(seed, shards, i)`` made mechanical — and (b) its cost on the
happy path is negligible.  This bench measures both on the §6 disjointness
estimator:

* **baseline** — a clean sharded run;
* **retry** — the same run with deterministically injected shard faults
  (:class:`~repro.stats.faults.ScriptedFaults`) healed by the retry layer;
* **checkpoint-write** — a clean run storing every shard in a checkpoint
  directory;
* **resume** — the same run restarted from a copy of that checkpoint
  holding half the shards, executing only the remainder.

Every variant must reproduce the baseline's exact success count.  All
variants share one process pool, warmed by an untimed run; each one's
time is its best of ``ROUNDS`` rounds, the four timed in turn within a
round (:func:`conftest.interleaved_best`), every round writing a fresh
checkpoint and resuming a fresh half copy.  Timings land in
``BENCH_fault_recovery.json`` at the repo root.
"""

from __future__ import annotations

import shutil

from conftest import interleaved_best, results_path, scaled, show, smoke_mode

from repro import RunConfig
from repro.core import TSO, estimate_non_manifestation
from repro.parallel import ScriptedFaults, ShardPlan, pool_scope, run_sharded
from repro.reporting import render_table
from repro.reporting.io import write_rows

TRIALS = scaled(1_600_000, 400_000)
SHARDS = 8
SEED = 1887
WORKERS = 2
ROUNDS = scaled(15, 25)

#: Happy-path overhead ceiling: checkpointing every shard of a realistic
#: budget must cost well under this factor over the clean run.
CHECKPOINT_OVERHEAD_CEILING = 1.5


def _estimate(**knobs):
    return estimate_non_manifestation(
        TSO, 2, TRIALS, seed=SEED,
        config=RunConfig(shards=SHARDS, workers=WORKERS, **knobs),
    )


def test_fault_recovery(run_once, tmp_path):
    faults = ScriptedFaults(failures={1: 1, 5: 2})

    def half_copy(index: int):
        # Interrupted run: a copy of a full checkpoint with half its shard
        # entries deleted, made untimed; resuming executes only the rest.
        partial = tmp_path / f"partial{index}.ckpt"
        shutil.copytree(tmp_path / "source.ckpt", partial)
        entries = sorted(partial.glob("??/*.pkl"))
        assert len(entries) == SHARDS
        for entry in entries[: SHARDS // 2]:
            entry.unlink()
        return partial

    def compute():
        legs = {
            "baseline": lambda _: _estimate(),
            "retry-injected-faults": lambda _: _retried(faults),
            "checkpoint-write": lambda index: _estimate(
                checkpoint=tmp_path / f"full{index}.ckpt"),
            "checkpoint-resume": lambda index: _estimate(
                checkpoint=partials[index]),
        }
        with pool_scope():
            _estimate(checkpoint=tmp_path / "source.ckpt")
            partials = [half_copy(index) for index in range(ROUNDS)]
            timed = interleaved_best(legs, ROUNDS)
        return [{"variant": name, "trials": TRIALS,
                 "seconds": round(seconds, 4), "successes": result.successes}
                for name, (seconds, result) in timed.items()]

    rows = run_once(compute)
    show(render_table(rows, precision=4,
                      title="E18: fault recovery — identical numbers, low overhead"))

    by_variant = {row["variant"]: row for row in rows}
    base = max(by_variant["baseline"]["seconds"], 1e-9)
    write_rows(
        results_path("fault_recovery"),
        rows,
        metadata={
            "experiment": "fault_recovery",
            "seed": SEED,
            "shards": SHARDS,
            "workers": WORKERS,
            "smoke": smoke_mode(),
            "rounds": ROUNDS,
            "checkpoint_overhead_ceiling": CHECKPOINT_OVERHEAD_CEILING,
            # Only the checkpoint ratio is tracked for the CI
            # regression gate: retry recovery pays a constant
            # (re-executed shards + backoff), so its ratio is not
            # scale-free across trial budgets.
            "tracked": {
                "checkpoint_overhead": {
                    "value": round(
                        by_variant["checkpoint-write"]["seconds"] / base, 4),
                    "higher_is_better": False,
                },
            },
        },
    )
    assert len({row["successes"] for row in rows}) == 1, (
        "recovery variants diverged from the baseline's numbers"
    )
    overhead = (by_variant["checkpoint-write"]["seconds"]
                / max(by_variant["baseline"]["seconds"], 1e-9))
    show(f"[fault-recovery] checkpoint-write overhead: {overhead:.3f}x "
         f"(ceiling {CHECKPOINT_OVERHEAD_CEILING}x)")
    assert overhead <= CHECKPOINT_OVERHEAD_CEILING, (
        f"checkpointing cost {overhead:.2f}x over the clean run"
    )


def _retried(faults: ScriptedFaults):
    """The retry leg goes through the engine directly: the estimator's
    public surface exposes retries/timeout/checkpoint, while the injector
    (a test/bench-only hook) lives on ``run_sharded``."""
    from functools import partial

    from repro.core.manifestation import _disjointness_batch_trial
    from repro.core.shift import DEFAULT_SHIFT_RATIO
    from repro.core.settling import DEFAULT_BODY_LENGTH
    from repro.core.shift_analytic import WINDOW_LENGTH_OFFSET
    from repro.stats.montecarlo import (
        DEFAULT_BATCH_SIZE,
        _event_shard,
        merge_bernoulli,
    )

    batch_trial = partial(
        _disjointness_batch_trial, model=TSO, n=2, store_probability=0.5,
        beta=DEFAULT_SHIFT_RATIO, body_length=DEFAULT_BODY_LENGTH,
        critical_section_length=WINDOW_LENGTH_OFFSET,
    )
    kernel = partial(_event_shard, batch_trial=batch_trial,
                     batch_size=DEFAULT_BATCH_SIZE, confidence=0.99)
    plan = ShardPlan(TRIALS, SHARDS, SEED)
    return merge_bernoulli(run_sharded(
        kernel, plan, config=RunConfig(workers=WORKERS, retries=3), fault_injector=faults,
    ))
