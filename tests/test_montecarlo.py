"""Tests for repro.stats.montecarlo: the trial harness."""

from __future__ import annotations

import pytest

from repro.stats import (
    merge_bernoulli,
    run_bernoulli_trials,
    run_categorical_trials,
    run_event_trials,
)


class TestBernoulliTrials:
    def test_deterministic_events(self):
        always = run_bernoulli_trials(lambda source: True, trials=100, seed=0)
        never = run_bernoulli_trials(lambda source: False, trials=100, seed=0)
        assert always.successes == 100
        assert never.successes == 0

    def test_reproducible_across_runs(self):
        first = run_bernoulli_trials(lambda s: s.bernoulli(0.5), trials=500, seed=3)
        second = run_bernoulli_trials(lambda s: s.bernoulli(0.5), trials=500, seed=3)
        assert first.successes == second.successes

    def test_seed_changes_outcome(self):
        first = run_bernoulli_trials(lambda s: s.bernoulli(0.5), trials=2000, seed=1)
        second = run_bernoulli_trials(lambda s: s.bernoulli(0.5), trials=2000, seed=2)
        assert first.successes != second.successes

    def test_interval_covers_truth(self):
        result = run_bernoulli_trials(lambda s: s.bernoulli(0.25), trials=10_000, seed=5)
        assert result.agrees_with(0.25)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_bernoulli_trials(lambda s: True, trials=0)

    def test_str_is_informative(self):
        result = run_bernoulli_trials(lambda s: True, trials=10, seed=0)
        assert "10/10" in str(result)


class TestCategoricalTrials:
    def test_counts_sum_to_trials(self):
        result = run_categorical_trials(lambda s: s.geometric(0.5), trials=1000, seed=1)
        assert sum(result.counts.values()) == 1000

    def test_support_sorted(self):
        result = run_categorical_trials(lambda s: s.geometric(0.5), trials=1000, seed=1)
        assert result.support == sorted(result.support)

    def test_probability_of_unseen_category_is_zero(self):
        result = run_categorical_trials(lambda s: 0, trials=100, seed=0)
        assert result.estimate(99) == 0.0
        assert result.probability(99).low == 0.0

    def test_geometric_pmf_recovered(self):
        result = run_categorical_trials(lambda s: s.geometric(0.5), trials=30_000, seed=7)
        assert result.probability(0).contains(0.5)
        assert result.probability(1).contains(0.25)
        assert result.probability(2).contains(0.125)

    def test_tail_probability(self):
        result = run_categorical_trials(lambda s: s.geometric(0.5), trials=30_000, seed=9)
        assert result.tail_probability(1).contains(0.5)

    def test_mean(self):
        result = run_categorical_trials(lambda s: 3, trials=50, seed=0)
        assert result.mean() == 3.0


class TestEstimateEvent:
    def test_vectorised_counting(self):
        result = run_event_trials(
            lambda source, batch: int(source.bernoulli_array(0.5, batch).sum()),
            trials=20_000,
            seed=11,
        )
        assert result.trials == 20_000
        assert result.agrees_with(0.5)

    def test_batch_sizes_cover_total(self):
        sizes = []

        def batch_trial(source, batch):
            sizes.append(batch)
            return 0

        run_event_trials(batch_trial, trials=10_000, seed=0, batch_size=3000)
        assert sum(sizes) == 10_000
        assert max(sizes) <= 3000

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            run_event_trials(lambda s, b: 0, trials=10, batch_size=0)


class TestMerge:
    def test_merge_pools_counts(self):
        results = [
            run_bernoulli_trials(lambda s: s.bernoulli(0.5), trials=100, seed=seed)
            for seed in range(3)
        ]
        merged = merge_bernoulli(results)
        assert merged.trials == 300
        assert merged.successes == sum(result.successes for result in results)

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_bernoulli([])

    def test_merge_mixed_confidence_rejected(self):
        a = run_bernoulli_trials(lambda s: True, trials=10, seed=0, confidence=0.9)
        b = run_bernoulli_trials(lambda s: True, trials=10, seed=0, confidence=0.99)
        with pytest.raises(ValueError):
            merge_bernoulli([a, b])
