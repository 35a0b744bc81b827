"""Tests for run manifests / checkpoint resume (repro.stats.checkpoint).

Acceptance property: a run interrupted after k of n shards and resumed
from its checkpoint merges to the **exact** result of an uninterrupted
run — at any worker count, through the high-level estimators as well as
the engine.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro import RunConfig
from repro.core import SC, WO, estimate_non_manifestation
from repro.parallel import (
    ScriptedFaults,
    ShardCheckpoint,
    ShardPlan,
    kernel_fingerprint,
    plan_key,
    run_sharded,
)
from repro.stats import (
    run_bernoulli_trials,
    run_categorical_trials,
    run_event_trials,
)


def _sum_kernel(source, shard_trials) -> int:
    return int(source.bernoulli_array(0.5, shard_trials).sum()) if shard_trials else 0


def _coin(source) -> bool:
    return source.bernoulli(0.5)


def _geom(source) -> int:
    return source.geometric(0.5)


def _heads_kernel(source, shard_trials) -> int:
    """Counts a common event (p = 0.9) — deliberately distinct from
    :func:`_tails_kernel` in code, not just in name."""
    return int(source.bernoulli_array(0.9, shard_trials).sum())


def _tails_kernel(source, shard_trials) -> int:
    """Counts a rare event (p = 0.1): reusing heads' journal is blatant."""
    return int(source.bernoulli_array(0.1, shard_trials).sum())


def _event(source, batch, probability) -> int:
    return int((source.generator.random(batch) < probability).sum())


def _journal(path, plan: ShardPlan) -> ShardCheckpoint:
    """The journal the engine keeps at ``path`` for ``_sum_kernel`` runs
    of ``plan`` (empty label)."""
    return ShardCheckpoint(path, plan_key(plan.trials, plan.shards, plan.seed,
                                          "", kernel_fingerprint(_sum_kernel)))


class TestPlanKey:
    def test_deterministic(self):
        assert plan_key(1000, 8, 42) == plan_key(1000, 8, 42)

    def test_sensitive_to_every_component(self):
        base = plan_key(1000, 8, 42, label="x")
        assert plan_key(1001, 8, 42, label="x") != base
        assert plan_key(1000, 9, 42, label="x") != base
        assert plan_key(1000, 8, 43, label="x") != base
        assert plan_key(1000, 8, 42, label="y") != base
        assert plan_key(1000, 8, None, label="x") != base

    def test_sensitive_to_fingerprint(self):
        base = plan_key(1000, 8, 42, label="x", fingerprint="aaaa")
        assert plan_key(1000, 8, 42, label="x", fingerprint="bbbb") != base
        assert plan_key(1000, 8, 42, label="x") != base

    def test_label_fingerprint_boundary_is_unambiguous(self):
        # The label is length-prefixed in the key payload, so moving
        # characters across the label/fingerprint boundary changes the key.
        assert (plan_key(1000, 8, 42, label="ab", fingerprint="cd")
                != plan_key(1000, 8, 42, label="abc", fingerprint="d"))
        assert (plan_key(1000, 8, 42, label="a:b", fingerprint="c")
                != plan_key(1000, 8, 42, label="a", fingerprint="b:c"))

    def test_kernel_fingerprint_separates_kernels(self):
        assert kernel_fingerprint(_heads_kernel) != kernel_fingerprint(_tails_kernel)
        assert kernel_fingerprint(_sum_kernel) == kernel_fingerprint(_sum_kernel)

    def test_kernel_fingerprint_sees_partial_parameters(self):
        from functools import partial

        assert (kernel_fingerprint(partial(_sum_kernel, p=0.25))
                != kernel_fingerprint(partial(_sum_kernel, p=0.75)))


class TestCrossKernelRegression:
    """The v1 key omitted the kernel: two *different* trial functions with
    equal ``(trials, shards, seed)`` and an empty label silently shared one
    journal, so the second run merged the first run's shards.  The v2 key
    folds in the kernel fingerprint; this test fails on the old format.
    Since 4.0 nothing can override that key: the engine derives it from
    the kernel it runs (``tests/test_estimator_shape.py`` checks every
    estimator through one journal and one cache)."""

    def test_different_kernels_never_share_a_journal(self, tmp_path):
        plan = ShardPlan(trials=4000, shards=8, seed=77)
        path = tmp_path / "shared.jsonl"
        heads = run_sharded(_heads_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        tails = run_sharded(_tails_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        # Under key reuse, tails would *be* heads' journaled shards.
        assert tails != heads
        assert sum(tails) < plan.trials // 2 < sum(heads)
        # And each kernel's own resume is still exact.
        assert run_sharded(_heads_kernel, plan,
                           config=RunConfig(workers=1, checkpoint=path)) == heads
        assert run_sharded(_tails_kernel, plan,
                           config=RunConfig(workers=1, checkpoint=path)) == tails

    def test_kernels_sharing_a_journal_and_a_cache_keep_their_numbers(
            self, tmp_path):
        # Before 4.0 a pre-keyed journal object keyed the cache too, so a
        # 0.75-event kernel sharing a cache dir with a 0.25 one (each with
        # its own journal, both pre-keyed "k" * 16) returned 0.25125.
        shared = RunConfig(shards=4, checkpoint=str(tmp_path / "run.jsonl"),
                           cache=str(tmp_path / "cache"))
        for probability in (0.25, 0.75, 0.25, 0.75):
            kernel = partial(_event, probability=probability)
            own = run_event_trials(kernel, 4000, seed=9,
                                   config=RunConfig(shards=4))
            assert abs(own.estimate - probability) < 0.05
            assert run_event_trials(kernel, 4000, seed=9, config=shared) == own


class TestShardCheckpoint:
    def test_roundtrip(self, tmp_path):
        journal = ShardCheckpoint(tmp_path / "run.jsonl", key="abc")
        journal.record(0, {"successes": 3})
        journal.record(2, (1, 2, 3))
        loaded = journal.load()
        assert loaded == {0: {"successes": 3}, 2: (1, 2, 3)}

    def test_missing_file_loads_empty(self, tmp_path):
        journal = ShardCheckpoint(tmp_path / "absent.jsonl", key="abc")
        assert journal.load() == {}

    def test_mismatched_keys_are_invisible(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        ShardCheckpoint(path, key="run-a").record(0, "a0")
        ShardCheckpoint(path, key="run-b").record(0, "b0")
        assert ShardCheckpoint(path, key="run-a").load() == {0: "a0"}
        assert ShardCheckpoint(path, key="run-b").load() == {0: "b0"}

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "crashy.jsonl"
        journal = ShardCheckpoint(path, key="k")
        journal.record(0, 11)
        with path.open("a") as handle:
            handle.write('{"key": "k", "shard": 1, "da')  # crash mid-append
        assert journal.load() == {0: 11}

    def test_undecodable_payload_is_skipped(self, tmp_path):
        path = tmp_path / "garbled.jsonl"
        journal = ShardCheckpoint(path, key="k")
        with path.open("a") as handle:
            handle.write(json.dumps({"key": "k", "shard": 0,
                                     "data": "not-base64-pickle"}) + "\n")
        journal.record(1, 22)
        assert journal.load() == {1: 22}

    def test_duplicate_shard_latest_wins(self, tmp_path):
        journal = ShardCheckpoint(tmp_path / "dup.jsonl", key="k")
        journal.record(0, "first")
        journal.record(0, "second")
        assert journal.load() == {0: "second"}


class TestResumeEqualsUninterrupted:
    def test_engine_resume_after_k_of_n_shards(self, tmp_path):
        plan = ShardPlan(trials=2000, shards=8, seed=31)
        uninterrupted = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        # Simulate an interruption after 3 of 8 shards by journaling only
        # that prefix, then resume at a *different* worker count.
        path = tmp_path / "run.jsonl"
        journal = _journal(path, plan)
        for shard in range(3):
            journal.record(shard, uninterrupted[shard])
        resumed = run_sharded(_sum_kernel, plan, config=RunConfig(workers=2, checkpoint=path))
        assert resumed == uninterrupted

    def test_resume_with_complete_journal_executes_nothing(self, tmp_path):
        plan = ShardPlan(trials=1000, shards=4, seed=33)
        path = tmp_path / "run.jsonl"
        first = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        # Every shard is journaled, so the resume may execute none: the
        # injector fails any shard that runs (and retries=0 re-raises).
        fail_all = ScriptedFaults(failures=dict.fromkeys(range(plan.shards), 1))
        resumed = run_sharded(_sum_kernel, plan, fault_injector=fail_all,
                              config=RunConfig(workers=1, checkpoint=path))
        assert resumed == first

    def test_checkpoint_run_journals_every_shard(self, tmp_path):
        plan = ShardPlan(trials=1000, shards=4, seed=35)
        path = tmp_path / "run.jsonl"
        results = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        assert _journal(path, plan).load() == dict(enumerate(results))

    def test_bernoulli_interrupted_resume_bit_identical(self, tmp_path):
        path = tmp_path / "bernoulli.jsonl"
        full = run_bernoulli_trials(_coin, 4000, seed=41, config=RunConfig(shards=8, workers=1))
        # A journaling run writes all 8 shard records; keep the first 5 to
        # simulate an interruption, then resume at a different worker count.
        run_bernoulli_trials(_coin, 4000, seed=41,
                             config=RunConfig(shards=8, workers=1, checkpoint=path))
        lines = path.read_text().splitlines()
        assert len(lines) == 8
        path.write_text("\n".join(lines[:5]) + "\n")
        resumed = run_bernoulli_trials(_coin, 4000, seed=41,
                                       config=RunConfig(shards=8, workers=2, checkpoint=path))
        assert (resumed.successes, resumed.trials, resumed.seed) \
            == (full.successes, full.trials, full.seed)

    def test_categorical_resume_bit_identical(self, tmp_path):
        path = tmp_path / "categorical.jsonl"
        full = run_categorical_trials(_geom, 3000, seed=43, config=RunConfig(shards=8, workers=1))
        first = run_categorical_trials(_geom, 3000, seed=43,
                                       config=RunConfig(shards=8, workers=1, checkpoint=path))
        resumed = run_categorical_trials(_geom, 3000, seed=43,
                                         config=RunConfig(shards=8, workers=2, checkpoint=path))
        assert first.counts == full.counts
        assert resumed.counts == full.counts
        assert resumed.trials == 3000

    def test_models_do_not_cross_contaminate_one_journal(self, tmp_path):
        path = tmp_path / "models.jsonl"
        sc_clean = estimate_non_manifestation(SC, 2, 8000, seed=47, config=RunConfig(shards=4))
        wo_clean = estimate_non_manifestation(WO, 2, 8000, seed=47, config=RunConfig(shards=4))
        sc = estimate_non_manifestation(SC, 2, 8000, seed=47,
                                        config=RunConfig(shards=4, checkpoint=path))
        wo = estimate_non_manifestation(WO, 2, 8000, seed=47,
                                        config=RunConfig(shards=4, checkpoint=path))
        # Same (trials, shards, seed): only the label separates the runs.
        assert sc.successes == sc_clean.successes
        assert wo.successes == wo_clean.successes
        # Resuming each from the shared journal stays bit-identical.
        assert estimate_non_manifestation(
            SC, 2, 8000, seed=47, config=RunConfig(shards=4, checkpoint=path)
        ).successes == sc_clean.successes
        assert estimate_non_manifestation(
            WO, 2, 8000, seed=47, config=RunConfig(shards=4, checkpoint=path)
        ).successes == wo_clean.successes


class TestRetryWithCheckpoint:
    def test_injected_failure_then_resume_identical(self, tmp_path):
        from repro.parallel import ScriptedFaults, ShardExecutionError

        plan = ShardPlan(trials=2000, shards=6, seed=51)
        clean = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        path = tmp_path / "run.jsonl"
        # First run dies on shard 4 (no retries): completed shards are
        # journaled, the failure propagates.
        with pytest.raises(ShardExecutionError):
            run_sharded(_sum_kernel, plan,
                        config=RunConfig(workers=1, checkpoint=path),
                                         fault_injector=ScriptedFaults(failures={4: 99}))
        journaled = _journal(path, plan).load()
        assert set(journaled) == {0, 1, 2, 3}  # serial order up to the crash
        # Second run (fault gone) resumes the remainder only.
        resumed = run_sharded(_sum_kernel, plan, config=RunConfig(workers=2, checkpoint=path))
        assert resumed == clean
