"""Property-based tests (hypothesis) on the core data structures and processes.

These complement the example-based suites with invariants that must hold
for *arbitrary* parameters: permutation validity of settling, mass
conservation of distributions, symmetry/monotonicity of the shift
formulas, and the combinatorial identities behind Claim 4.4.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DiscreteDistribution,
    MemoryModel,
    SettlingProcess,
    batch_disjoint,
    bounded_partitions,
    c_constant,
    disjointness_probability,
    ordered_disjointness,
    program_from_types,
    segments_disjoint,
    window_from_run_distribution,
)
from repro.core.memory_models import ALL_PAIRS
from repro.core.partitions import delta_support
from repro.stats import RandomSource, wilson_interval

body_strings = st.text(alphabet="SL", min_size=0, max_size=12)
relaxation_sets = st.lists(st.sampled_from(ALL_PAIRS), unique=True, max_size=4)
settle_probabilities = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**31)


class TestSettlingProperties:
    @given(body=body_strings, relaxed=relaxation_sets, seed=seeds,
           settle=settle_probabilities)
    @settings(max_examples=150, deadline=None)
    def test_settling_always_yields_valid_permutation(self, body, relaxed, seed, settle):
        model = MemoryModel("fuzz", relaxed, settle)
        program = program_from_types(body)
        result = SettlingProcess(model).settle(program, RandomSource(seed))
        assert sorted(result.order) == list(range(1, program.length + 1))
        assert result.critical_load_position < result.critical_store_position

    @given(body=body_strings, seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_settling_never_violates_model_constraints(self, body, seed):
        """Every inversion in a TSO-settled order is a legal (ST, LD) swap."""
        from repro.core import TSO

        program = program_from_types(body)
        result = SettlingProcess(TSO).settle(program, RandomSource(seed))
        for position, index in enumerate(result.order, start=1):
            for later_position in range(position + 1, program.length + 1):
                later_index = result.order[later_position - 1]
                if later_index < index:
                    # Inverted pair: the earlier instruction (later_index)
                    # ended below the later one (index): index passed it.
                    earlier_type = program.type_of(later_index)
                    later_type = program.type_of(index)
                    assert TSO.relaxes(earlier_type, later_type), (
                        body, seed, later_index, index
                    )

    @given(body=body_strings, seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_trace_is_consistent_prefix_history(self, body, seed):
        from repro.core import WO

        program = program_from_types(body)
        result = SettlingProcess(WO).settle(program, RandomSource(seed), record_trace=True)
        for round_number, step in enumerate(result.trace, start=1):
            assert sorted(step.order) == list(range(1, round_number + 1))
        assert result.trace[-1].order == result.order


class TestDistributionProperties:
    @given(
        masses=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
    )
    @settings(max_examples=150)
    def test_normalised_pmfs_accepted_and_queryable(self, masses):
        total = sum(masses)
        if total <= 0:
            return
        values = [mass / total for mass in masses]
        dist = DiscreteDistribution(values)
        assert abs(sum(dist.pmf(k) for k in range(len(values))) - 1.0) < 1e-9
        transform = dist.power_transform(0.5)
        assert 0.0 <= transform.value <= 1.0

    @given(
        masses=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        base=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_power_transform_bounded_by_mass(self, masses, base):
        total = sum(masses)
        dist = DiscreteDistribution([mass / total for mass in masses])
        transform = dist.power_transform(base)
        assert -1e-12 <= transform.value <= 1.0 + 1e-12

    @given(
        masses=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8)
    )
    @settings(max_examples=100)
    def test_tvd_is_a_metric_distance_to_self(self, masses):
        total = sum(masses)
        dist = DiscreteDistribution([mass / total for mass in masses])
        assert dist.total_variation_distance(dist).value == 0.0

    @given(
        masses=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8),
        settle=st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=100)
    def test_window_fold_preserves_mass(self, masses, settle):
        """Folding any run law into a window law stays a distribution."""
        total = sum(masses)
        runs = DiscreteDistribution([mass / total for mass in masses])
        window = window_from_run_distribution(runs, settle)
        mass = float(window.prefix.sum())
        assert mass <= 1.0 + 1e-9
        assert mass + window.tail_bound >= 1.0 - 1e-9


class TestShiftProperties:
    lengths_lists = st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=5)

    @given(lengths=lengths_lists)
    @settings(max_examples=100, deadline=None)
    def test_probability_in_unit_interval(self, lengths):
        value = disjointness_probability(lengths)
        assert 0.0 <= value <= 1.0

    @given(lengths=lengths_lists, seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, lengths, seed):
        import random

        shuffled = list(lengths)
        random.Random(seed).shuffle(shuffled)
        assert disjointness_probability(lengths) == pytest.approx(
            disjointness_probability(shuffled), rel=1e-12
        )

    @given(lengths=lengths_lists, index=st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_each_length(self, lengths, index):
        index %= len(lengths)
        longer = list(lengths)
        longer[index] += 1
        assert disjointness_probability(longer) <= disjointness_probability(lengths) + 1e-12

    @given(lengths=lengths_lists)
    @settings(max_examples=60, deadline=None)
    def test_ordered_terms_sum_to_total(self, lengths):
        from itertools import permutations

        total = sum(ordered_disjointness(list(order)) for order in permutations(lengths))
        assert total == disjointness_probability(lengths)

    @given(
        shifts=st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=5),
        lengths=st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=5),
    )
    @settings(max_examples=150)
    def test_closed_disjoint_implies_half_open_disjoint(self, shifts, lengths):
        size = min(len(shifts), len(lengths))
        shifts, lengths = shifts[:size], lengths[:size]
        if segments_disjoint(shifts, lengths, closed=True):
            assert segments_disjoint(shifts, lengths, closed=False)

    @given(
        rows=st.lists(st.tuples(*[st.integers(min_value=0, max_value=4)] * 2,
                                *[st.integers(min_value=-2, max_value=5)] * 2),
                      min_size=1, max_size=30),
        shared_lengths=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_two_thread_batch_disjoint_is_the_sorted_check(self, rows,
                                                           shared_lengths):
        # Narrow shift ranges make ties common; negative lengths make a
        # tie's order decide the answer, as in the stable sort.
        shifts = np.array([row[:2] for row in rows])
        lengths = np.array([row[2:] for row in rows])
        if shared_lengths:
            lengths = lengths[0]
        batched = batch_disjoint(shifts, lengths)
        assert batched.shape == (len(rows),)
        for index, row in enumerate(shifts):
            row_lengths = lengths if shared_lengths else lengths[index]
            assert batched[index] == segments_disjoint(row, row_lengths)

    @given(n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=30)
    def test_c_constant_bounds(self, n):
        assert 2.0 <= c_constant(n) <= 4.0


class TestPartitionProperties:
    @given(
        parts=st.integers(min_value=1, max_value=7),
        max_part=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60)
    def test_row_sum_identity(self, parts, max_part):
        total = sum(
            bounded_partitions(delta, parts, max_part)
            for delta in delta_support(parts, max_part)
        )
        assert total == math.comb(max_part + parts - 1, parts)

    @given(
        parts=st.integers(min_value=1, max_value=7),
        max_part=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60)
    def test_phi_positive_on_support(self, parts, max_part):
        for delta in delta_support(parts, max_part):
            assert bounded_partitions(delta, parts, max_part) >= 1

    @given(
        total=st.integers(min_value=0, max_value=30),
        parts=st.integers(min_value=1, max_value=6),
        max_part=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100)
    def test_phi_zero_off_support(self, total, parts, max_part):
        if not parts <= total <= parts * max_part:
            assert bounded_partitions(total, parts, max_part) == 0


class TestEndToEndProperty:
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_monte_carlo_tracks_exact_sc_value(self, seed):
        """Whatever the seed, the SC estimate's CI covers 1/6."""
        from repro.core import SC, estimate_non_manifestation

        result = estimate_non_manifestation(SC, n=2, trials=40_000, seed=seed)
        interval = wilson_interval(result.successes, result.trials, 0.9999)
        assert interval.contains(1 / 6)
