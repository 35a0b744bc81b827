"""Tests for repro.stats.rng: seeding, splitting, and samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats import PhiloxSource, RandomSource, iter_batches, spawn_sources
from repro.stats.rng import bernoulli_doubles, geometric_doubles, geometric_from_uniforms


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert [a.geometric(0.5) for _ in range(20)] == [b.geometric(0.5) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert [a.geometric(0.5) for _ in range(50)] != [b.geometric(0.5) for _ in range(50)]

    def test_spawn_children_are_independent_of_parent_order(self):
        children_first = RandomSource(9).spawn(3)
        values_first = [child.uniform_int(0, 10**9) for child in children_first]
        parent = RandomSource(9)
        parent.uniform_int(0, 10**9)  # consuming parent randomness...
        children_second = parent.spawn(3)
        values_second = [child.uniform_int(0, 10**9) for child in children_second]
        assert values_first == values_second  # ...does not perturb children

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            RandomSource(0).spawn(-1)

    def test_spawn_zero_is_empty(self):
        assert RandomSource(0).spawn(0) == []

    def test_child_differs_from_next_child(self):
        parent = RandomSource(4)
        first = parent.child()
        second = parent.child()
        assert [first.geometric(0.5) for _ in range(20)] != [
            second.geometric(0.5) for _ in range(20)
        ]

    def test_spawn_sources_helper(self):
        sources = spawn_sources(42, 4)
        assert len(sources) == 4
        assert all(isinstance(source, RandomSource) for source in sources)


class TestBernoulli:
    def test_degenerate_zero(self, source):
        assert not any(source.bernoulli(0.0) for _ in range(50))

    def test_degenerate_one(self, source):
        assert all(source.bernoulli(1.0) for _ in range(50))

    def test_degenerate_probabilities_consume_no_randomness(self):
        a = RandomSource(7)
        b = RandomSource(7)
        for _ in range(10):
            a.bernoulli(0.0)
            a.bernoulli(1.0)
        assert a.geometric(0.5) == b.geometric(0.5)

    def test_mean_close_to_probability(self, source):
        count = sum(source.bernoulli(0.3) for _ in range(20_000))
        assert abs(count / 20_000 - 0.3) < 0.02

    def test_array_shape_and_dtype(self, source):
        flips = source.bernoulli_array(0.5, (3, 4))
        assert flips.shape == (3, 4)
        assert flips.dtype == bool

    def test_array_degenerate(self, source):
        assert not source.bernoulli_array(0.0, 10).any()
        assert source.bernoulli_array(1.0, 10).all()


class TestGeometric:
    def test_zero_beta_is_constant_zero(self, source):
        assert all(source.geometric(0.0) == 0 for _ in range(20))

    def test_values_non_negative(self, source):
        assert all(source.geometric(0.7) >= 0 for _ in range(200))

    def test_pmf_matches_definition(self, source):
        """Pr[k] = (1-beta) beta^k: check k = 0 and k = 1 frequencies."""
        draws = source.geometric_array(0.5, 40_000)
        zero_fraction = float((draws == 0).mean())
        one_fraction = float((draws == 1).mean())
        assert abs(zero_fraction - 0.5) < 0.01
        assert abs(one_fraction - 0.25) < 0.01

    def test_mean_matches_beta_over_one_minus_beta(self, source):
        draws = source.geometric_array(0.5, 40_000)
        assert abs(float(draws.mean()) - 1.0) < 0.05  # E = beta/(1-beta) = 1

    def test_invalid_beta_rejected(self, source):
        with pytest.raises(ValueError):
            source.geometric(1.0)
        with pytest.raises(ValueError):
            source.geometric(-0.1)
        with pytest.raises(ValueError):
            source.geometric_array(1.5, 4)

    def test_array_dtype(self, source):
        assert source.geometric_array(0.5, 8).dtype == np.int64

    #: Both sides of numpy's switch at p = 1 - beta = 1/3 from search
    #: (inverted in place by ``geometric_array``) to its other method,
    #: including the doubles next to 2/3.
    RATIOS = [0.0, 0.1, 0.5, 0.66, 2 / 3, float(np.nextafter(2 / 3, 0)),
              float(np.nextafter(2 / 3, 1)), 0.9]

    @pytest.mark.parametrize("size", [60_000, (15_000, 4)],
                             ids=["int", "tuple"])
    @pytest.mark.parametrize("beta", RATIOS)
    def test_array_draws_numpy_geometric_variates(self, beta, size):
        for seed in range(3):
            drawn, reference = RandomSource(seed), RandomSource(seed)
            shifts = drawn.geometric_array(beta, size)
            expected = reference.generator.geometric(1.0 - beta, size=size) - 1
            assert shifts.dtype == np.int64
            np.testing.assert_array_equal(shifts, expected)
            # Equal stream positions afterwards, so later draws agree too;
            # the point mass at beta = 0 draws nothing.
            after = RandomSource(seed) if beta == 0.0 else reference
            assert drawn.generator.random() == after.generator.random()


    @pytest.mark.parametrize("beta", RATIOS)
    def test_doubles_per_variate_is_what_the_array_draws(self, beta):
        doubles = geometric_doubles(beta)
        if doubles is None:  # numpy's own method: a variable count
            assert 1.0 - beta < 1.0 / 3.0
            return
        drawn, reference = RandomSource(4), RandomSource(4)
        drawn.geometric_array(beta, (300, 2))
        reference.generator.random(600 * doubles)
        assert drawn.generator.random() == reference.generator.random()

    @pytest.mark.parametrize("probability", [0.0, 0.3, 1.0, -0.5, 1.5])
    def test_doubles_per_coin_is_what_the_array_draws(self, probability):
        drawn, reference = RandomSource(4), RandomSource(4)
        drawn.bernoulli_array(probability, 500)
        reference.generator.random(500 * bernoulli_doubles(probability))
        assert drawn.generator.random() == reference.generator.random()

    @pytest.mark.parametrize("beta", [b for b in RATIOS if geometric_doubles(b) == 1])
    def test_the_shared_inversion_is_the_array(self, beta):
        uniforms = RandomSource(9).generator.random((700, 3))
        np.testing.assert_array_equal(geometric_from_uniforms(uniforms, beta),
                                      RandomSource(9).geometric_array(beta, (700, 3)))


class TestSeeking:
    """Read-ahead and skip equal drawing and discarding on PCG64.

    A canary for numpy: both rest on ``PCG64.advance`` counting one
    64-bit output per uniform double.
    """

    @pytest.mark.parametrize("offset,count", [(0, 5), (1, 1), (12_288, 24_576),
                                              (10**6 + 3, 7)])
    def test_uniforms_ahead_is_drawing_and_discarding(self, offset, count):
        source, reference = RandomSource(11), RandomSource(11)
        block = source.uniforms_ahead(offset, count)
        reference.generator.random(offset)
        np.testing.assert_array_equal(block, reference.generator.random(count))
        # The stream has not moved.
        assert source.generator.random() == RandomSource(11).generator.random()

    @pytest.mark.parametrize("count", [0, 1, 12_288, 10**6 + 3])
    def test_skip_is_drawing_and_discarding(self, count):
        source, reference = RandomSource(12), RandomSource(12)
        source.skip(count)
        reference.generator.random(count)
        assert source.generator.random() == reference.generator.random()

    def test_skip_keeps_a_buffered_half_word(self):
        # A bounded integer draw over a small range uses 32 bits and keeps
        # the other half of its 64-bit output for the next such draw.
        source, reference = RandomSource(13), RandomSource(13)
        assert source.uniform_int(0, 9) == reference.uniform_int(0, 9)
        assert source.generator.bit_generator.state["has_uint32"] == 1
        source.skip(1000)
        reference.generator.random(1000)
        assert source.generator.bit_generator.state == \
            reference.generator.bit_generator.state
        assert source.uniform_int(0, 9) == reference.uniform_int(0, 9)

    def test_philox_does_not_seek(self):
        source = PhiloxSource(3, (0,))
        assert RandomSource(3).seekable and not source.seekable
        with pytest.raises(TypeError):
            source.uniforms_ahead(0, 4)
        with pytest.raises(TypeError):
            source.skip(4)


class TestUniformInt:
    def test_bounds_inclusive(self, source):
        draws = {source.uniform_int(2, 4) for _ in range(200)}
        assert draws == {2, 3, 4}

    def test_single_point(self, source):
        assert source.uniform_int(5, 5) == 5

    def test_empty_range_rejected(self, source):
        with pytest.raises(ValueError):
            source.uniform_int(3, 2)


class TestTypeArray:
    def test_shape_and_bias(self, source):
        types = source.type_array(0.8, 20_000)
        assert types.shape == (20_000,)
        assert abs(float(types.mean()) - 0.8) < 0.02


class TestIterBatches:
    def test_exact_cover(self):
        assert list(iter_batches(10, 4)) == [4, 4, 2]

    def test_single_batch(self):
        assert list(iter_batches(3, 100)) == [3]

    def test_zero_total(self):
        assert list(iter_batches(0, 5)) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(iter_batches(-1, 5))
        with pytest.raises(ValueError):
            list(iter_batches(5, 0))


class TestPhiloxSource:
    """Counter-addressed streams (the litmus family generator's lanes)."""

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

    def test_samplers_share_the_law_machinery(self):
        # PhiloxSource is a RandomSource: every sampling primitive works on it.
        source = PhiloxSource(3, (0,))
        assert isinstance(source, RandomSource)
        shifts = source.geometric_array(0.5, 1000)
        assert shifts.min() >= 0
        assert source.bernoulli_array(0.5, 10).dtype == bool
