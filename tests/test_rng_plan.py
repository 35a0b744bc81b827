"""The counter-based Philox RNG plan (``rng_plan="philox"``).

The plan's contract has three independent clauses, each pinned here:

* **Counter addressing** — the stream at ``(seed, shard, batch)`` is a
  pure function of those counters: :func:`repro.stats.rng.philox_stream`
  reproduces any shard's or batch's draws after the fact, with no
  spawning history and no dependence on plan geometry or worker count.
* **Worker/geometry invariance** — like the spawn plan, merged Philox
  numbers at fixed ``(seed, shards)`` are bit-identical for any number
  of workers, because workers only decide *where* shards run.
* **Statistical equivalence, never silent mixing** — Philox streams
  sample the same laws as spawn streams (validated by the two-sample z
  harness at 0.999), but their fixed-seed numbers differ, so the plans
  are distinct cache/checkpoint identities (see ``tests/test_cache.py``
  for the key-injectivity property).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import RunConfig
from repro.core.manifestation import estimate_non_manifestation
from repro.core.memory_models import TSO
from repro.kernels import assert_equivalent_proportions
from repro.stats.montecarlo import run_event_trials
from repro.stats.parallel import ShardPlan
from repro.stats.rng import (
    RNG_PLANS,
    PhiloxSource,
    RandomSource,
    philox_stream,
    resolve_rng_plan,
)


def _event_batch(source, batch):
    return int((source.generator.random(batch) < 0.25).sum())


class TestResolveRngPlan:
    def test_known_plans_pass_through(self):
        for plan in RNG_PLANS:
            assert resolve_rng_plan(plan) == plan

    def test_unknown_plan_raises_with_choices(self):
        with pytest.raises(ValueError, match="spawn"):
            resolve_rng_plan("mersenne")


class TestPhiloxSource:
    def test_same_address_same_stream(self):
        draws_a = PhiloxSource(42, (3,)).generator.random(8)
        draws_b = PhiloxSource(42, (3,)).generator.random(8)
        np.testing.assert_array_equal(draws_a, draws_b)

    def test_distinct_addresses_distinct_streams(self):
        base = PhiloxSource(42, (3,)).generator.random(8)
        assert not np.array_equal(PhiloxSource(42, (4,)).generator.random(8), base)
        assert not np.array_equal(PhiloxSource(43, (3,)).generator.random(8), base)
        assert not np.array_equal(
            PhiloxSource(42, (3, 0)).generator.random(8), base)

    def test_children_are_counter_addressed(self):
        # The b-th child of the shard-s source IS the (s, b) address —
        # derivable directly, with no spawning history.
        shard = PhiloxSource(7, (5,))
        children = [shard.child() for _ in range(3)]
        for batch, child in enumerate(children):
            assert child.path == (5, batch)
            np.testing.assert_array_equal(
                child.generator.random(4),
                philox_stream(7, 5, batch).generator.random(4),
            )

    def test_philox_stream_matches_shard_source(self):
        plan = ShardPlan(1000, 8, seed=21, rng_plan="philox")
        sources = plan.shard_sources()
        for shard, source in enumerate(sources):
            assert isinstance(source, PhiloxSource)
            np.testing.assert_array_equal(
                source.generator.random(4),
                philox_stream(21, shard).generator.random(4),
            )

    def test_pickle_ships_counters_only(self):
        source = PhiloxSource(9, (2,))
        source.generator.random(100)  # consumed state must not be carried
        source.child()
        payload = pickle.dumps(source)
        assert len(payload) < 120  # (seed, path), not generator state
        clone = pickle.loads(payload)
        assert (clone.seed, clone.path) == (9, (2,))
        np.testing.assert_array_equal(clone.generator.random(4),
                                      PhiloxSource(9, (2,)).generator.random(4))

    def test_seed_sequence_collapses_to_entropy(self):
        sequence = np.random.SeedSequence(31)
        assert PhiloxSource(sequence, (1,)).seed == 31

    def test_none_seed_resolves_to_fresh_entropy(self):
        source = PhiloxSource(None, (0,))
        assert isinstance(source.seed, int)

    def test_samplers_share_the_law_machinery(self):
        # PhiloxSource is a RandomSource: every engine primitive works on it.
        source = PhiloxSource(3, (0,))
        assert isinstance(source, RandomSource)
        shifts = source.geometric_array(0.5, 1000)
        assert shifts.min() >= 0
        assert source.bernoulli_array(0.5, 10).dtype == bool


class TestPhiloxPlan:
    def test_plan_resolves_none_seed_at_construction(self):
        plan = ShardPlan(100, 4, seed=None, rng_plan="philox")
        assert plan.seed is not None
        # All shards share the one resolved seed.
        seeds = {source.seed for source in plan.shard_sources()}
        assert seeds == {plan.seed}

    def test_spawn_plan_keeps_none_seed(self):
        assert ShardPlan(100, 4, seed=None).seed is None

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_merged_numbers_are_worker_invariant(self, workers):
        baseline = run_event_trials(_event_batch, 4_000, seed=17,
                                    config=RunConfig(shards=6, workers=1, rng_plan="philox"))
        result = run_event_trials(_event_batch, 4_000, seed=17,
                                  config=RunConfig(shards=6, workers=workers, rng_plan="philox"))
        assert (result.successes, result.trials) == (baseline.successes,
                                                     baseline.trials)

    def test_plans_draw_different_streams_same_law(self):
        spawn = run_event_trials(_event_batch, 40_000, seed=17, config=RunConfig(shards=8))
        philox = run_event_trials(_event_batch, 40_000, seed=17,
                                  config=RunConfig(shards=8, rng_plan="philox"))
        assert (spawn.successes, spawn.trials) != (philox.successes,
                                                   philox.trials)
        assert_equivalent_proportions(
            spawn.successes, spawn.trials,
            philox.successes, philox.trials,
            confidence=0.999, context="philox vs spawn event trials",
        )

    def test_philox_joined_model_agrees_with_spawn(self):
        spawn = estimate_non_manifestation(TSO, 2, 30_000, seed=5, config=RunConfig(shards=8))
        philox = estimate_non_manifestation(TSO, 2, 30_000, seed=5,
                                            config=RunConfig(shards=8, rng_plan="philox"))
        assert_equivalent_proportions(
            spawn.successes, spawn.trials,
            philox.successes, philox.trials,
            confidence=0.999, context="philox vs spawn TSO n=2",
        )

    def test_philox_runs_are_deterministic(self):
        first = estimate_non_manifestation(TSO, 2, 5_000, seed=5,
                                           config=RunConfig(shards=4, rng_plan="philox"))
        second = estimate_non_manifestation(TSO, 2, 5_000, seed=5,
                                            config=RunConfig(shards=4, rng_plan="philox"))
        assert (first.successes, first.trials) == (second.successes,
                                                   second.trials)

    def test_philox_always_builds_a_plan(self):
        # The legacy no-plan serial path is spawn-only: philox must shard
        # (with shards=1 for workers=1) so its numbers are plan-keyed.
        result = run_event_trials(_event_batch, 2_000, seed=3,
                                  config=RunConfig(rng_plan="philox"))
        expected = run_event_trials(_event_batch, 2_000, seed=3,
                                    config=RunConfig(shards=1, workers=1, rng_plan="philox"))
        assert (result.successes, result.trials) == (expected.successes,
                                                     expected.trials)
