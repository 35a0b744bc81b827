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
* **checkpoint-write** — a clean run journaling every shard;
* **resume** — the same run restarted from a journal holding half the
  shards, executing only the remainder.

Every variant must reproduce the baseline's exact success count; timings
land in ``BENCH_fault_recovery.json`` at the repo root.
"""

from __future__ import annotations

import time

from conftest import results_path, scaled, show, smoke_mode

from repro import RunConfig
from repro.core import TSO, estimate_non_manifestation
from repro.parallel import ScriptedFaults, ShardPlan, run_sharded
from repro.reporting import render_table
from repro.reporting.io import write_rows

TRIALS = scaled(200_000, 40_000)
SHARDS = 8
SEED = 1887
WORKERS = 2

#: Happy-path overhead ceiling: journaling every shard of a realistic
#: budget must cost well under this factor over the clean run.
CHECKPOINT_OVERHEAD_CEILING = 1.5


def _estimate(**knobs):
    return estimate_non_manifestation(
        TSO, 2, TRIALS, seed=SEED,
        config=RunConfig(shards=SHARDS, workers=WORKERS, **knobs),
    )


def test_fault_recovery(run_once, tmp_path):
    def compute():
        rows: list[dict[str, object]] = []

        def timed(name: str, runner) -> object:
            start = time.perf_counter()
            result = runner()
            elapsed = time.perf_counter() - start
            rows.append({"variant": name, "trials": TRIALS,
                         "seconds": round(elapsed, 4),
                         "successes": result.successes})
            return result

        baseline = timed("baseline", _estimate)

        faults = ScriptedFaults(failures={1: 1, 5: 2})
        retried = timed("retry-injected-faults", lambda: _retried(faults))
        assert retried.successes == baseline.successes

        journal = tmp_path / "full.jsonl"
        journaled = timed("checkpoint-write",
                          lambda: _estimate(checkpoint=journal))
        assert journaled.successes == baseline.successes

        # Interrupted run: keep only half the journal's shard records,
        # then resume — only the missing shards execute.
        partial_journal = tmp_path / "partial.jsonl"
        lines = journal.read_text().splitlines()
        partial_journal.write_text("\n".join(lines[: SHARDS // 2]) + "\n")
        resumed = timed("checkpoint-resume",
                        lambda: _estimate(checkpoint=partial_journal))
        assert resumed.successes == baseline.successes

        return rows

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
        f"checkpoint journaling cost {overhead:.2f}x over the clean run"
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
