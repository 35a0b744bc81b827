"""Tests for the sharded parallel Monte-Carlo engine (repro.stats.parallel).

The load-bearing property throughout: for a fixed ``(seed, shards)`` a
sharded run is **bit-identical** at any worker count — workers decide
where shards execute, never what they compute.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import RunConfig
from repro.core import SC, WO, estimate_non_manifestation, non_manifestation_probability
from repro.parallel import (
    DEFAULT_SHARDS,
    ShardPlan,
    is_picklable,
    merge_bernoulli,
    merge_categorical,
    parallel_map,
    plan_shards,
    resolve_shards,
    resolve_workers,
    run_sharded,
)
from repro.sim import measure_critical_windows, run_canonical_bug
from repro.stats import (
    run_bernoulli_trials,
    run_categorical_trials,
    run_event_trials,
)
from repro.analysis import beta_sweep, settle_sweep, thread_sweep

WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# Module-level trial functions: picklable, so the pool path really runs.
# ----------------------------------------------------------------------


def _coin(source) -> bool:
    return source.bernoulli(0.5)


def _geom(source) -> int:
    return source.geometric(0.5)


def _batch_coin(source, batch) -> int:
    return int(source.bernoulli_array(0.5, batch).sum())


def _double(item: int) -> int:
    return 2 * item


class TestPlanShards:
    def test_balanced_and_exact(self):
        assert plan_shards(10, 4) == (3, 3, 2, 2)
        assert sum(plan_shards(1_000_003, 8)) == 1_000_003
        sizes = plan_shards(1_000_003, 8)
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_trials(self):
        assert plan_shards(2, 4) == (1, 1, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 4)
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_plan_validates_eagerly(self):
        with pytest.raises(ValueError):
            ShardPlan(trials=10, shards=0, seed=0)

    def test_shard_sources_deterministic(self):
        plan = ShardPlan(trials=100, shards=4, seed=9)
        first = [s.bernoulli(0.5) for s in plan.shard_sources()]
        second = [s.bernoulli(0.5) for s in plan.shard_sources()]
        assert first == second


class TestResolveWorkers:
    def test_default_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(8) == 8

    def test_none_means_cpu_count(self):
        assert resolve_workers(None) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestResolveShards:
    """The shard count — the statistical identity — never derives from
    the machine: parallel runs with no explicit ``shards`` all use
    :data:`DEFAULT_SHARDS`, and only ``workers=1`` stays single-shard."""

    def test_single_worker_defaults_to_one_shard(self):
        assert resolve_shards(1, None) == 1

    def test_parallel_defaults_are_worker_independent(self):
        assert resolve_shards(2, None) == DEFAULT_SHARDS
        assert resolve_shards(4, None) == DEFAULT_SHARDS
        assert resolve_shards(None, None) == DEFAULT_SHARDS

    def test_explicit_shards_pass_through(self):
        assert resolve_shards(1, 6) == 6
        assert resolve_shards(None, 3) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            resolve_shards(1, 0)
        with pytest.raises(ValueError):
            resolve_shards(1, -2)


class TestDefaultShardsWorkerInvariance:
    """The headline regression: with ``shards`` unset, the worker count
    must NOT leak into the statistical plan.  On the pre-fix engine the
    default was ``shards=workers`` (and CPU count for ``workers=None``),
    so these runs drew different streams and disagreed."""

    def test_bernoulli_defaults_identical_across_workers(self):
        results = [
            run_bernoulli_trials(_coin, 5000, seed=3, config=RunConfig(workers=w))
            for w in (2, 4, None)
        ]
        # workers=1 keeps the legacy single-stream path unless shards is
        # given; pinning shards=DEFAULT_SHARDS joins it to the family.
        results.append(run_bernoulli_trials(_coin, 5000, seed=3,
                                            config=RunConfig(workers=1, shards=DEFAULT_SHARDS)))
        assert len({r.successes for r in results}) == 1
        assert all(r.trials == 5000 and r.seed == 3 for r in results)

    def test_estimate_event_defaults_identical_across_workers(self):
        results = [
            run_event_trials(_batch_coin, 20_000, seed=7, config=RunConfig(workers=w))
            for w in (2, 4, None)
        ]
        results.append(run_event_trials(_batch_coin, 20_000, seed=7,
                                        config=RunConfig(workers=1, shards=DEFAULT_SHARDS)))
        assert len({r.successes for r in results}) == 1

    def test_categorical_defaults_identical_across_workers(self):
        results = [
            run_categorical_trials(_geom, 5000, seed=5, config=RunConfig(workers=w))
            for w in (2, 4, None)
        ]
        results.append(run_categorical_trials(_geom, 5000, seed=5,
                                              config=RunConfig(workers=1, shards=DEFAULT_SHARDS)))
        assert len({tuple(sorted(r.counts.items())) for r in results}) == 1

    def test_estimator_defaults_identical_across_workers(self):
        results = [
            estimate_non_manifestation(SC, 2, 10_000, seed=41, config=RunConfig(workers=w))
            for w in (2, 4, None)
        ]
        results.append(estimate_non_manifestation(SC, 2, 10_000, seed=41,
                                                  config=RunConfig(workers=1,
                                                                   shards=DEFAULT_SHARDS)))
        assert len({r.successes for r in results}) == 1


class TestRunSharded:
    def test_results_in_shard_order(self):
        plan = ShardPlan(trials=10, shards=4, seed=0)
        counts = run_sharded(lambda source, n: n, plan, config=RunConfig(workers=1))
        assert tuple(counts) == plan.shard_trials()

    def test_pool_matches_serial(self):
        plan = ShardPlan(trials=4096, shards=4, seed=21)
        serial = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        pooled = run_sharded(_sum_kernel, plan, config=RunConfig(workers=4))
        assert serial == pooled


def _sum_kernel(source, shard_trials) -> int:
    return int(source.bernoulli_array(0.5, shard_trials).sum()) if shard_trials else 0


def _positive_kernel(source, shard_trials) -> int:
    assert shard_trials > 0, "zero-trial shard must never reach the kernel"
    return int(source.bernoulli_array(0.5, shard_trials).sum())


class TestEmptyShards:
    """Zero-trial shards (more shards than trials) are skipped entirely:
    never submitted to a pool, never run through a kernel."""

    def test_zero_trial_shards_never_reach_the_kernel(self):
        plan = ShardPlan(trials=5, shards=16, seed=1)
        assert plan.shard_trials().count(0) == 11
        serial = run_sharded(_positive_kernel, plan, config=RunConfig(workers=1))
        pooled = run_sharded(_positive_kernel, plan, config=RunConfig(workers=2))
        assert serial == pooled
        assert sum(serial) <= 5

    def test_harness_tolerates_more_shards_than_trials(self):
        result = run_bernoulli_trials(_coin, 5, seed=1, config=RunConfig(shards=16))
        assert result.trials == 5


class TestShardedHarness:
    """The harness entry points reproduce bit-for-bit across worker counts."""

    def test_bernoulli_identical_across_workers(self):
        results = [
            run_bernoulli_trials(_coin, 5000, seed=3, config=RunConfig(shards=4, workers=w))
            for w in WORKER_COUNTS
        ]
        assert len({r.successes for r in results}) == 1
        assert all(r.trials == 5000 and r.seed == 3 for r in results)

    def test_categorical_identical_across_workers(self):
        results = [
            run_categorical_trials(_geom, 5000, seed=5, config=RunConfig(shards=4, workers=w))
            for w in WORKER_COUNTS
        ]
        assert len({tuple(sorted(r.counts.items())) for r in results}) == 1
        assert all(sum(r.counts.values()) == 5000 for r in results)

    def test_estimate_event_identical_across_workers(self):
        results = [
            run_event_trials(_batch_coin, 20_000, seed=7, config=RunConfig(shards=8, workers=w))
            for w in WORKER_COUNTS
        ]
        assert len({r.successes for r in results}) == 1
        assert results[0].agrees_with(0.5)

    def test_result_depends_on_shard_count(self):
        # (seed, shards) is the statistical identity: changing shards
        # legitimately changes the drawn streams.
        two = run_bernoulli_trials(_coin, 5000, seed=3, config=RunConfig(shards=2))
        four = run_bernoulli_trials(_coin, 5000, seed=3, config=RunConfig(shards=4))
        assert two.successes != four.successes

    def test_non_picklable_trial_falls_back_to_serial(self):
        flip = lambda source: source.bernoulli(0.5)  # noqa: E731 — deliberately unpicklable
        assert not is_picklable(flip)
        parallel = run_bernoulli_trials(flip, 2000, seed=2, config=RunConfig(shards=3, workers=4))
        serial = run_bernoulli_trials(flip, 2000, seed=2, config=RunConfig(shards=3, workers=1))
        assert parallel.successes == serial.successes

    def test_lambda_after_a_picklable_kernel_still_falls_back(self):
        # Before 4.0 the picklability memo took a caller-set fingerprint:
        # a picklable kernel run under RunConfig(fingerprint="ab") made a
        # later lambda under the same config skip the probe and raise
        # ShardExecutionError.  The memo now keys on the kernel itself.
        config = RunConfig(shards=4, workers=2)
        run_bernoulli_trials(_coin, 400, seed=5, config=config)
        flip = lambda source: source.bernoulli(0.5)  # noqa: E731 — deliberately unpicklable
        pooled = run_bernoulli_trials(flip, 400, seed=5, config=config)
        serial = run_bernoulli_trials(flip, 400, seed=5,
                                      config=RunConfig(shards=4, workers=1))
        assert pooled == serial

    def test_legacy_serial_path_unchanged(self):
        # workers=1, shards=None must keep the historical derivation.
        legacy = run_bernoulli_trials(_coin, 3000, seed=11)
        again = run_bernoulli_trials(_coin, 3000, seed=11,
                                     config=RunConfig(workers=1, shards=None))
        assert legacy.successes == again.successes


class TestMergeCategorical:
    def test_pools_counts_and_trials(self):
        parts = [
            run_categorical_trials(_geom, 500, seed=s, confidence=0.95)
            for s in range(3)
        ]
        merged = merge_categorical(parts)
        assert merged.trials == 1500
        assert merged.confidence == 0.95
        assert merged.seed is None
        for category in merged.support:
            assert merged.counts[category] == sum(
                part.counts.get(category, 0) for part in parts
            )

    def test_merge_order_irrelevant(self):
        parts = [
            run_categorical_trials(_geom, 500, seed=s) for s in range(3)
        ]
        forward = merge_categorical(parts)
        backward = merge_categorical(reversed(parts))
        assert forward.counts == backward.counts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_categorical([])

    def test_mixed_confidence_rejected(self):
        a = run_categorical_trials(_geom, 100, seed=0, confidence=0.9)
        b = run_categorical_trials(_geom, 100, seed=0, confidence=0.99)
        with pytest.raises(ValueError):
            merge_categorical([a, b])


class TestMergeDegenerateInputs:
    """Zero-trial results (empty shards, older journals) are filtered out
    of merges instead of poisoning the pooled estimate."""

    def test_bernoulli_filters_zero_trial_inputs(self):
        from repro.stats import BernoulliResult

        real = run_bernoulli_trials(_coin, 1000, seed=2)
        empty = BernoulliResult(0, 0, real.confidence, None)
        merged = merge_bernoulli([empty, real, empty])
        assert (merged.successes, merged.trials) == (real.successes, 1000)

    def test_categorical_filters_zero_trial_inputs(self):
        from repro.stats import CategoricalResult

        real = run_categorical_trials(_geom, 1000, seed=2)
        empty = CategoricalResult({}, 0, real.confidence, None)
        merged = merge_categorical([empty, real])
        assert merged.counts == real.counts
        assert merged.trials == 1000

    def test_all_degenerate_rejected(self):
        from repro.stats import BernoulliResult, CategoricalResult

        with pytest.raises(ValueError):
            merge_bernoulli([BernoulliResult(0, 0, 0.99, None)])
        with pytest.raises(ValueError):
            merge_categorical([CategoricalResult({}, 0, 0.99, None)])


class TestCategoricalCacheIsolation:
    """Regression: ``_cache`` is ``init=False``, so ``dataclasses.replace``
    builds a fresh memo instead of aliasing the source's — a copy with a
    different confidence must not serve the original's intervals."""

    def test_replace_does_not_alias_the_interval_cache(self):
        original = run_categorical_trials(_geom, 2000, seed=2, confidence=0.99)
        warmed = original.probability(1)  # populate the original's cache
        copy = dataclasses.replace(original, confidence=0.5)
        assert copy._cache is not original._cache
        narrow = copy.probability(1)
        assert narrow.low > warmed.low and narrow.high < warmed.high

    def test_replace_preserves_counts_and_equality_semantics(self):
        original = run_categorical_trials(_geom, 500, seed=3)
        original.probability(1)
        copy = dataclasses.replace(original, seed=None)
        assert copy.counts == original.counts
        assert copy._cache == {}


class TestParallelAgreesWithClosedForms:
    """Theorem 4.1 window laws + Corollary 5.2 give Theorem 6.2's values;
    the sharded estimator must land inside its own interval around them."""

    def test_sc_one_sixth(self):
        result = estimate_non_manifestation(SC, 2, 40_000, seed=17,
                                            config=RunConfig(shards=4, workers=2))
        assert result.agrees_with(1.0 / 6.0)

    def test_wo_seven_fifty_fourths(self):
        result = estimate_non_manifestation(WO, 2, 40_000, seed=19,
                                            config=RunConfig(shards=4, workers=2))
        assert result.agrees_with(7.0 / 54.0)
        assert result.agrees_with(non_manifestation_probability(WO).value)

    def test_identical_across_workers(self):
        results = [
            estimate_non_manifestation(SC, 2, 20_000, seed=23,
                                       config=RunConfig(shards=4, workers=w))
            for w in WORKER_COUNTS
        ]
        assert len({r.successes for r in results}) == 1


class TestShardedMachineExperiments:
    def test_canonical_bug_identical_across_workers(self):
        results = [
            run_canonical_bug("TSO", 2, 300, seed=29, body_length=4,
                              config=RunConfig(shards=4, workers=w))
            for w in WORKER_COUNTS
        ]
        assert all(r.final_values == results[0].final_values for r in results)
        assert all(sum(r.final_values.values()) == 300 for r in results)

    def test_window_measurement_identical_across_workers(self):
        results = [
            measure_critical_windows("TSO", 2, 200, seed=31, body_length=4,
                                     config=RunConfig(shards=4, workers=w))
            for w in WORKER_COUNTS
        ]
        assert all(np.array_equal(r.durations, results[0].durations) for r in results)
        assert all(r.overlap_trials == results[0].overlap_trials for r in results)
        assert all(r.manifest_without_overlap == 0 for r in results)


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(_double, range(10),
                            config=RunConfig(workers=2)) == [2 * i for i in range(10)]

    def test_unpicklable_function_falls_back(self):
        offset = 3
        assert parallel_map(lambda x: x + offset, [1, 2], config=RunConfig(workers=4)) == [4, 5]

    def test_sweeps_identical_across_workers(self):
        assert thread_sweep([2, 4, 8],
                            config=RunConfig(workers=2)) == thread_sweep([2, 4, 8],
                                             config=RunConfig(workers=1))
        grid = [0.1, 0.5, 0.9]
        assert settle_sweep(grid,
                            config=RunConfig(workers=2)) == settle_sweep(grid,
                                             config=RunConfig(workers=1))
        assert beta_sweep(grid,
                          config=RunConfig(workers=2)) == beta_sweep(grid,
                                           config=RunConfig(workers=1))


class TestCliWorkers:
    def test_machine_with_workers(self, capsys):
        from repro.cli import main

        assert main(["--workers", "2", "--shards", "4", "machine",
                     "--model", "TSO", "--trials", "50"]) == 0
        assert "bug manifests" in capsys.readouterr().out

    def test_workers_do_not_change_pinned_numbers(self, capsys):
        from repro.cli import main

        outputs = []
        for w in ("1", "2"):
            main(["--workers", w, "--shards", "4", "machine",
                  "--model", "SC", "--trials", "80", "--seed", "37"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
