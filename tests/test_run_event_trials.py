"""The engine's batch contract: ``run_event_trials`` and empty batches.

The batch kernels of :mod:`repro.kernels` reject ``size <= 0`` as a
programming error, so the engine must never emit an empty batch — even
for budgets that do not divide evenly across shards and batch sizes.
These tests pin that contract (the regression shape: ``trials=96,
shards=6, batch_size=16`` — every shard ends on an exact batch boundary,
historically a corner that produced zero-size leftovers).
"""

from __future__ import annotations

import pytest

from repro import RunConfig
from repro.stats import RandomSource, run_event_trials


def _counting_kernel(log: list[int]):
    def batch_trial(source: RandomSource, batch: int) -> int:
        log.append(batch)
        return int(source.bernoulli_array(0.5, batch).sum())

    return batch_trial


class TestBatchSizes:
    def test_no_empty_batches_on_exact_boundaries(self):
        """trials=96, shards=6, batch_size=16: each 16-trial shard is one
        exact batch; the kernel must see only positive sizes summing to 96."""
        sizes: list[int] = []
        result = run_event_trials(_counting_kernel(sizes), 96, seed=0,
                                  config=RunConfig(shards=6), batch_size=16)
        assert all(size >= 1 for size in sizes), sizes
        assert sum(sizes) == 96
        assert result.trials == 96

    @pytest.mark.parametrize("trials,shards,batch_size", [
        (96, 6, 16),
        (97, 6, 16),   # ragged: one shard gets a 1-trial leftover batch
        (5, 8, 4096),  # more shards than trials: trailing shards are empty
        (1, 1, 1),
    ])
    def test_kernel_only_sees_positive_sizes(self, trials, shards, batch_size):
        sizes: list[int] = []
        result = run_event_trials(_counting_kernel(sizes), trials, seed=3,
                                  config=RunConfig(shards=shards), batch_size=batch_size)
        assert all(size >= 1 for size in sizes), sizes
        assert sum(sizes) == trials
        assert result.trials == trials

    def test_strict_kernel_survives_ragged_plan(self):
        """A kernel that raises on empty batches (as the repro.kernels
        batch kernels do) must run clean under any plan."""

        def strict(source: RandomSource, batch: int) -> int:
            if batch <= 0:
                raise ValueError(f"empty batch {batch} reached the kernel")
            return int(source.bernoulli_array(0.25, batch).sum())

        result = run_event_trials(strict, 96, seed=7, config=RunConfig(shards=6), batch_size=16)
        assert result.trials == 96

