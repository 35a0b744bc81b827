"""Tests for repro.core.shift: the Definition 1 shift process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ShiftProcess, batch_disjoint, estimate_disjointness, segments_disjoint
from repro.core import disjointness_probability


class TestSegmentsDisjoint:
    def test_clearly_separate(self):
        assert segments_disjoint([0, 10], [2, 2])

    def test_nested_overlap(self):
        assert not segments_disjoint([0, 1], [5, 1])

    def test_shared_endpoint_closed_convention(self):
        assert not segments_disjoint([0, 2], [2, 1])

    def test_shared_endpoint_half_open_convention(self):
        assert segments_disjoint([0, 2], [2, 1], closed=False)

    def test_adjacent_with_gap_of_one(self):
        assert segments_disjoint([0, 3], [2, 1])

    def test_equal_shifts_always_overlap(self):
        assert not segments_disjoint([4, 4], [0, 0])

    def test_zero_length_segments(self):
        assert segments_disjoint([0, 1], [0, 0])
        assert not segments_disjoint([2, 2], [0, 0])

    def test_unsorted_input_handled(self):
        assert segments_disjoint([10, 0], [2, 2])

    def test_three_segments_with_middle_collision(self):
        # Segments [3, 8] and [8, 9] share the point 8.
        assert not segments_disjoint([0, 3, 8], [2, 5, 1])
        assert segments_disjoint([0, 3, 9], [2, 5, 1])

    def test_figure_2_instance(self):
        """The paper's Figure 2: shifts (8,0,2), lengths (3,2,5).

        Touching at point 2 -> overlap under the theorem convention,
        disjoint under the figure caption's half-open reading.
        """
        assert not segments_disjoint([8, 0, 2], [3, 2, 5])
        assert segments_disjoint([8, 0, 2], [3, 2, 5], closed=False)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            segments_disjoint([0, 1], [1])


class TestBatchDisjoint:
    def test_matches_scalar(self, source):
        lengths = np.array([2, 3, 1])
        shifts = source.geometric_array(0.5, (200, 3))
        batched = batch_disjoint(shifts, lengths)
        for row in range(200):
            assert batched[row] == segments_disjoint(shifts[row], lengths)

    def test_per_row_lengths(self):
        shifts = np.array([[0, 10], [0, 1]])
        lengths = np.array([[2, 2], [5, 5]])
        result = batch_disjoint(shifts, lengths)
        assert list(result) == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_disjoint(np.zeros(3, dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            batch_disjoint(np.zeros((2, 3), dtype=int), np.zeros((2, 4), dtype=int))


class TestShiftProcess:
    def test_beta_validation(self):
        with pytest.raises(ValueError):
            ShiftProcess(1.0)
        with pytest.raises(ValueError):
            ShiftProcess(-0.1)

    def test_sample_shifts_shape(self, source):
        process = ShiftProcess(0.5)
        assert process.sample_shifts(source, 5).shape == (5,)

    def test_zero_beta_never_shifts(self, source):
        process = ShiftProcess(0.0)
        assert not process.sample_shifts(source, 10).any()

    def test_sample_event_returns_bool(self, source):
        process = ShiftProcess()
        assert isinstance(process.sample_event(source, [1, 2]), bool)


class TestEstimateDisjointness:
    def test_matches_theorem_51(self):
        """MC disjointness agrees with the exact Theorem 5.1 value."""
        for lengths in ([2, 2], [3, 2, 5], [0, 0]):
            empirical = estimate_disjointness(lengths, trials=60_000, seed=13)
            exact = disjointness_probability(lengths)
            assert empirical.agrees_with(exact), f"lengths={lengths}"

    def test_reproducible(self):
        a = estimate_disjointness([2, 2], trials=5000, seed=7)
        b = estimate_disjointness([2, 2], trials=5000, seed=7)
        assert a.successes == b.successes
