"""Tests for run keys and checkpoint resume (repro.stats.checkpoint).

Acceptance property: a run interrupted after k of n shards and resumed
from its checkpoint merges to the **exact** result of an uninterrupted
run — at any worker count, through the high-level estimators as well as
the engine.  A checkpoint is a directory of shard-store entries, so an
interruption is simulated by deleting entries.
"""

from __future__ import annotations

import hashlib
from functools import partial

import pytest

from repro import RunConfig
from repro.cache import ShardStore, shard_entry_key
from repro.core import SC, WO, estimate_non_manifestation
from repro.parallel import (
    ScriptedFaults,
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
from repro.stats.checkpoint import ShardCheckpoint


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
    """Counts a rare event (p = 0.1): reusing heads' shards is blatant."""
    return int(source.bernoulli_array(0.1, shard_trials).sum())


def _event(source, batch, probability) -> int:
    return int((source.generator.random(batch) < probability).sum())


def _checkpoint(path, plan: ShardPlan) -> ShardCheckpoint:
    """The view the engine opens on the checkpoint at ``path`` for
    ``_sum_kernel`` runs of ``plan`` (empty label)."""
    key = plan_key(plan.trials, plan.shards, plan.seed, "",
                   kernel_fingerprint(_sum_kernel))
    return ShardCheckpoint(key, dict(enumerate(plan.shard_trials())),
                           [ShardStore(path, max_bytes=None)])


def _stored(path, plan: ShardPlan) -> dict[int, int]:
    """The shards of ``plan`` stored in the checkpoint at ``path``."""
    return {shard: value
            for shard, (value, _) in _checkpoint(path, plan).load().items()}


def _entries(path) -> list:
    return sorted(path.glob("??/*.pkl"))


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
    checkpoint, so the second run merged the first run's shards.  The v2 key
    folds in the kernel fingerprint; this test fails on the old format.
    Since 4.0 nothing can override that key: the engine derives it from
    the kernel it runs (``tests/test_estimator_shape.py`` checks every
    estimator through one checkpoint and one cache)."""

    def test_different_kernels_never_share_a_journal(self, tmp_path):
        plan = ShardPlan(trials=4000, shards=8, seed=77)
        path = tmp_path / "shared.ckpt"
        heads = run_sharded(_heads_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        tails = run_sharded(_tails_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        # Under key reuse, tails would *be* heads' stored shards.
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
        shared = RunConfig(shards=4, checkpoint=str(tmp_path / "run.ckpt"),
                           cache=str(tmp_path / "cache"))
        for probability in (0.25, 0.75, 0.25, 0.75):
            kernel = partial(_event, probability=probability)
            own = run_event_trials(kernel, 4000, seed=9,
                                   config=RunConfig(shards=4))
            assert abs(own.estimate - probability) < 0.05
            assert run_event_trials(kernel, 4000, seed=9, config=shared) == own


class TestShardCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path / "run.ckpt", max_bytes=None)
        view = ShardCheckpoint("abc", {0: 10, 1: 10, 2: 10}, [store])
        view.record(0, {"successes": 3})
        view.record(2, (1, 2, 3))
        assert view.load() == {0: ({"successes": 3}, store),
                               2: ((1, 2, 3), store)}

    def test_missing_file_loads_empty(self, tmp_path):
        root = tmp_path / "absent.ckpt"
        view = ShardCheckpoint("abc", {0: 10},
                               [ShardStore(root, max_bytes=None)])
        assert view.load() == {}
        assert not root.exists()  # probing creates nothing

    def test_mismatched_keys_are_invisible(self, tmp_path):
        store = ShardStore(tmp_path / "shared.ckpt", max_bytes=None)
        ShardCheckpoint("run-a", {0: 10}, [store]).record(0, "a0")
        ShardCheckpoint("run-b", {0: 10}, [store]).record(0, "b0")
        assert ShardCheckpoint("run-a", {0: 10}, [store]).load() == {0: ("a0", store)}
        assert ShardCheckpoint("run-b", {0: 10}, [store]).load() == {0: ("b0", store)}

    def test_torn_tail_line_is_skipped(self, tmp_path):
        # A truncated entry (a disk fault: writes are atomic) is a miss.
        root = tmp_path / "run.ckpt"
        store = ShardStore(root, max_bytes=None, memo_entries=0)
        view = ShardCheckpoint("k", {0: 10, 1: 10}, [store])
        view.record(0, 11)
        view.record(1, 22)
        entry = shard_entry_key("k", 1, 10)
        torn = root / entry[:2] / f"{entry}.pkl"
        torn.write_bytes(torn.read_bytes()[:-2])
        assert view.load() == {0: (11, store)}
        assert not torn.exists()  # the store deleted the corrupt entry

    def test_undecodable_payload_is_skipped(self, tmp_path):
        # A payload whose digest matches but which is no pickle is a miss.
        root = tmp_path / "run.ckpt"
        store = ShardStore(root, max_bytes=None)
        view = ShardCheckpoint("k", {0: 10, 1: 10}, [store])
        entry = shard_entry_key("k", 0, 10)
        payload = b"not a pickle"
        path = root / entry[:2] / f"{entry}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"repro-cache:1:" + entry.encode("ascii") + b":"
                         + hashlib.sha256(payload).hexdigest().encode("ascii")
                         + b"\n" + payload)
        view.record(1, 22)
        assert view.load() == {1: (22, store)}

    def test_duplicate_shard_latest_wins(self, tmp_path):
        store = ShardStore(tmp_path / "dup.ckpt", max_bytes=None)
        view = ShardCheckpoint("k", {0: 10}, [store])
        view.record(0, "first")
        view.record(0, "second")
        assert view.load() == {0: ("second", store)}
        assert len(_entries(tmp_path / "dup.ckpt")) == 1

    def test_corrupt_checkpoint_entry_falls_through_to_the_cache(
            self, tmp_path):
        checkpoint = ShardStore(tmp_path / "run.ckpt", max_bytes=None,
                                memo_entries=0)
        cache = ShardStore(tmp_path / "cache", memo_entries=0)
        view = ShardCheckpoint("k", {0: 10}, [checkpoint, cache])
        view.record(0, 42)
        (entry,) = _entries(tmp_path / "run.ckpt")
        entry.write_bytes(entry.read_bytes()[:-1])
        assert view.load() == {0: (42, cache)}
        assert checkpoint.verify() == (1, [])  # the copy replaced it

    def test_trial_count_is_part_of_the_entry(self, tmp_path):
        store = ShardStore(tmp_path / "run.ckpt", max_bytes=None)
        ShardCheckpoint("k", {0: 10}, [store]).record(0, 7)
        assert ShardCheckpoint("k", {0: 11}, [store]).load() == {}

    def test_later_store_hit_is_copied_into_earlier_stores(self, tmp_path):
        checkpoint = ShardStore(tmp_path / "run.ckpt", max_bytes=None)
        cache = ShardStore(tmp_path / "cache")
        ShardCheckpoint("k", {0: 10, 1: 10}, [cache]).record(1, "cached")
        view = ShardCheckpoint("k", {0: 10, 1: 10}, [checkpoint, cache])
        assert view.load() == {1: ("cached", cache)}
        assert view.load() == {1: ("cached", checkpoint)}
        assert len(_entries(tmp_path / "run.ckpt")) == 1

    def test_record_writes_every_store(self, tmp_path):
        stores = [ShardStore(tmp_path / name, max_bytes=None)
                  for name in ("run.ckpt", "cache")]
        assert ShardCheckpoint("k", {0: 10}, stores).record(0, 42) == 0
        for store in stores:
            assert ShardCheckpoint("k", {0: 10}, [store]).load() == {0: (42, store)}


class TestResumeEqualsUninterrupted:
    def test_engine_resume_after_k_of_n_shards(self, tmp_path):
        plan = ShardPlan(trials=2000, shards=8, seed=31)
        uninterrupted = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        # Simulate an interruption after 3 of 8 shards by storing only
        # that prefix, then resume at a *different* worker count.
        path = tmp_path / "run.ckpt"
        checkpoint = _checkpoint(path, plan)
        for shard in range(3):
            checkpoint.record(shard, uninterrupted[shard])
        resumed = run_sharded(_sum_kernel, plan, config=RunConfig(workers=2, checkpoint=path))
        assert resumed == uninterrupted

    def test_resume_with_complete_journal_executes_nothing(self, tmp_path):
        plan = ShardPlan(trials=1000, shards=4, seed=33)
        path = tmp_path / "run.ckpt"
        first = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        # Every shard is stored, so the resume may execute none: the
        # injector fails any shard that runs (and retries=0 re-raises).
        fail_all = ScriptedFaults(failures=dict.fromkeys(range(plan.shards), 1))
        resumed = run_sharded(_sum_kernel, plan, fault_injector=fail_all,
                              config=RunConfig(workers=1, checkpoint=path))
        assert resumed == first

    def test_checkpoint_run_journals_every_shard(self, tmp_path):
        plan = ShardPlan(trials=1000, shards=4, seed=35)
        path = tmp_path / "run.ckpt"
        results = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1, checkpoint=path))
        assert _stored(path, plan) == dict(enumerate(results))
        assert len(_entries(path)) == plan.shards

    def test_bernoulli_interrupted_resume_bit_identical(self, tmp_path):
        path = tmp_path / "bernoulli.ckpt"
        full = run_bernoulli_trials(_coin, 4000, seed=41, config=RunConfig(shards=8, workers=1))
        # A checkpointed run stores all 8 shard entries; delete 3 to
        # simulate an interruption, then resume at a different worker count.
        run_bernoulli_trials(_coin, 4000, seed=41,
                             config=RunConfig(shards=8, workers=1, checkpoint=path))
        entries = _entries(path)
        assert len(entries) == 8
        for entry in entries[5:]:
            entry.unlink()
        resumed = run_bernoulli_trials(_coin, 4000, seed=41,
                                       config=RunConfig(shards=8, workers=2, checkpoint=path))
        assert (resumed.successes, resumed.trials, resumed.seed) \
            == (full.successes, full.trials, full.seed)

    def test_categorical_resume_bit_identical(self, tmp_path):
        path = tmp_path / "categorical.ckpt"
        full = run_categorical_trials(_geom, 3000, seed=43, config=RunConfig(shards=8, workers=1))
        first = run_categorical_trials(_geom, 3000, seed=43,
                                       config=RunConfig(shards=8, workers=1, checkpoint=path))
        resumed = run_categorical_trials(_geom, 3000, seed=43,
                                         config=RunConfig(shards=8, workers=2, checkpoint=path))
        assert first.counts == full.counts
        assert resumed.counts == full.counts
        assert resumed.trials == 3000

    def test_models_do_not_cross_contaminate_one_journal(self, tmp_path):
        path = tmp_path / "models.ckpt"
        sc_clean = estimate_non_manifestation(SC, 2, 8000, seed=47, config=RunConfig(shards=4))
        wo_clean = estimate_non_manifestation(WO, 2, 8000, seed=47, config=RunConfig(shards=4))
        sc = estimate_non_manifestation(SC, 2, 8000, seed=47,
                                        config=RunConfig(shards=4, checkpoint=path))
        wo = estimate_non_manifestation(WO, 2, 8000, seed=47,
                                        config=RunConfig(shards=4, checkpoint=path))
        # Same (trials, shards, seed): only the label separates the runs.
        assert sc.successes == sc_clean.successes
        assert wo.successes == wo_clean.successes
        # Resuming each from the shared checkpoint stays bit-identical.
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
        path = tmp_path / "run.ckpt"
        # First run dies on shard 4 (no retries): completed shards are
        # stored, the failure propagates.
        with pytest.raises(ShardExecutionError):
            run_sharded(_sum_kernel, plan,
                        config=RunConfig(workers=1, checkpoint=path),
                                         fault_injector=ScriptedFaults(failures={4: 99}))
        assert set(_stored(path, plan)) == {0, 1, 2, 3}  # serial order up to the crash
        # Second run (fault gone) resumes the remainder only.
        resumed = run_sharded(_sum_kernel, plan, config=RunConfig(workers=2, checkpoint=path))
        assert resumed == clean
