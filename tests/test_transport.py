"""The zero-copy shard result transport (``repro.stats.transport``).

The transport contract has one load-bearing clause: for any fixed
``(seed, shards)``, the merged numbers are **bit-identical across
transports and worker counts** — shared memory only changes the bytes'
route home, never the kernel, its draws, or the merge.  These tests pin
that clause for all three shard result kinds (Bernoulli, categorical,
window-stats) across ``workers ∈ {1, 2, 4}``, plus the per-layout
pack/unpack semantics and the automatic per-shard pickle fallback.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import RunConfig
from repro.sim.measurement import _WindowShard, measure_critical_windows
from repro.stats.montecarlo import (
    BernoulliResult,
    CategoricalResult,
    run_bernoulli_trials,
    run_categorical_trials,
    run_event_trials,
)
from repro.stats.transport import (
    TRANSPORTS,
    BernoulliLayout,
    CategoricalLayout,
    Packed,
    ShardTable,
    ShardWriter,
    WindowLayout,
    pickled_payload_bytes,
    resolve_transport,
)

WORKER_COUNTS = (1, 2, 4)


def _bernoulli_trial(source):
    return source.generator.random() < 0.3


def _categorical_trial(source):
    return int(source.generator.integers(0, 5))


def _event_batch(source, batch):
    return int((source.generator.random(batch) < 0.25).sum())


class TestResolveTransport:
    def test_known_transports_pass_through(self):
        for transport in TRANSPORTS:
            assert resolve_transport(transport) == transport

    def test_unknown_transport_raises_with_choices(self):
        with pytest.raises(ValueError, match="pickle"):
            resolve_transport("carrier-pigeon")


class TestLayouts:
    def test_bernoulli_roundtrip(self):
        layout = BernoulliLayout(0.99)
        row = np.zeros(layout.row_width(1000), dtype=np.int64)
        assert layout.pack(BernoulliResult(7, 100, 0.99, 3), row)
        result = layout.unpack(row)
        assert (result.successes, result.trials) == (7, 100)
        assert result.confidence == 0.99
        assert result.seed is None  # merge discards per-shard seeds anyway

    def test_categorical_roundtrip(self):
        layout = CategoricalLayout(0.95)
        row = np.zeros(layout.row_width(1000), dtype=np.int64)
        counts = {3: 10, -1: 5, 7: 85}
        assert layout.pack(CategoricalResult(counts, 100, 0.95, None), row)
        result = layout.unpack(row)
        assert result.counts == counts
        assert result.trials == 100

    def test_categorical_overflow_falls_back(self):
        layout = CategoricalLayout(0.95, capacity=4)
        row = np.zeros(layout.row_width(1000), dtype=np.int64)
        too_wide = {value: 1 for value in range(5)}
        assert not layout.pack(CategoricalResult(too_wide, 5, 0.95, None), row)

    def test_window_roundtrip(self):
        layout = WindowLayout(threads=2)
        row = np.zeros(layout.row_width(4), dtype=np.int64)
        shard = _WindowShard(
            durations=np.array([3, 4, 5, 6, 2, 9], dtype=np.int64),
            overlap_trials=2, manifest_trials=1, manifest_without_overlap=0,
        )
        assert layout.pack(shard, row)
        result = layout.unpack(row)
        np.testing.assert_array_equal(result.durations, shard.durations)
        assert result.overlap_trials == 2
        assert result.manifest_trials == 1
        assert result.manifest_without_overlap == 0

    def test_window_unpack_copies_out_of_shared_row(self):
        layout = WindowLayout(threads=1)
        row = np.zeros(layout.row_width(3), dtype=np.int64)
        shard = _WindowShard(np.array([1, 2, 3], dtype=np.int64), 0, 0, 0)
        layout.pack(shard, row)
        result = layout.unpack(row)
        row[:] = -1  # unpacked results must survive the table's teardown
        np.testing.assert_array_equal(result.durations, [1, 2, 3])

    def test_pickled_payload_bytes_measures_pickle(self):
        result = BernoulliResult(1, 2, 0.99, None)
        assert pickled_payload_bytes(result) == len(pickle.dumps(result))


class TestShardTable:
    def test_rows_are_zeroed_and_addressable(self):
        with ShardTable(3, 4) as table:
            assert table.row(2).tolist() == [0, 0, 0, 0]
            table.row(1)[:] = [1, 2, 3, 4]
            assert table.row(1).tolist() == [1, 2, 3, 4]
            assert table.row(0).tolist() == [0, 0, 0, 0]

    def test_close_is_idempotent(self):
        table = ShardTable(1, 1)
        table.close()
        table.close()

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            ShardTable(0, 4)
        with pytest.raises(ValueError):
            ShardTable(4, 0)


class TestShardWriter:
    def test_packs_into_named_row_and_returns_marker(self):
        layout = BernoulliLayout(0.99)
        with ShardTable(2, 2) as table:
            writer = ShardWriter(
                lambda source, count: BernoulliResult(count - 1, count, 0.99, None),
                layout, table.name, 2,
            )
            marker = writer(None, 10, 1)
            assert marker == Packed(1)
            assert table.row(1).tolist() == [9, 10]
            assert table.row(0).tolist() == [0, 0]

    def test_unpackable_result_rides_pickle_channel(self):
        layout = CategoricalLayout(0.99, capacity=2)
        wide = CategoricalResult({0: 1, 1: 1, 2: 1}, 3, 0.99, None)
        with ShardTable(1, layout.row_width(10)) as table:
            writer = ShardWriter(lambda source, count: wide, layout,
                                 table.name, layout.row_width(10))
            assert writer(None, 3, 0) is wide


class TestTransportBitIdentity:
    """shm and pickle merges agree bit-for-bit at every worker count."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bernoulli_kind(self, workers):
        baseline = run_bernoulli_trials(_bernoulli_trial, 600, seed=11,
                                        config=RunConfig(shards=6, workers=1, transport="pickle"))
        shm = run_bernoulli_trials(_bernoulli_trial, 600, seed=11,
                                   config=RunConfig(shards=6, workers=workers, transport="shm"))
        assert (shm.successes, shm.trials) == (baseline.successes,
                                               baseline.trials)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_categorical_kind(self, workers):
        baseline = run_categorical_trials(_categorical_trial, 600, seed=12,
                                          config=RunConfig(shards=6, workers=1,
                                                           transport="pickle"))
        shm = run_categorical_trials(_categorical_trial, 600, seed=12,
                                     config=RunConfig(shards=6, workers=workers, transport="shm"))
        assert shm.counts == baseline.counts
        assert shm.trials == baseline.trials

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_event_kind(self, workers):
        baseline = run_event_trials(_event_batch, 4_000, seed=13,
                                    config=RunConfig(shards=6, workers=1, transport="pickle"))
        shm = run_event_trials(_event_batch, 4_000, seed=13,
                               config=RunConfig(shards=6, workers=workers, transport="shm"))
        assert (shm.successes, shm.trials) == (baseline.successes,
                                               baseline.trials)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_window_kind(self, workers):
        baseline = measure_critical_windows("TSO", 2, 60, seed=14,
                                            config=RunConfig(shards=4, workers=1,
                                                             transport="pickle"))
        shm = measure_critical_windows("TSO", 2, 60, seed=14,
                                       config=RunConfig(shards=4, workers=workers,
                                                        transport="shm"))
        np.testing.assert_array_equal(shm.durations, baseline.durations)
        assert shm.overlap_trials == baseline.overlap_trials
        assert shm.manifest_trials == baseline.manifest_trials
        assert shm.manifest_without_overlap == baseline.manifest_without_overlap

    def test_auto_matches_both(self):
        auto = run_event_trials(_event_batch, 4_000, seed=13,
                                config=RunConfig(shards=6, workers=2, transport="auto"))
        pickled = run_event_trials(_event_batch, 4_000, seed=13,
                                   config=RunConfig(shards=6, workers=2, transport="pickle"))
        assert (auto.successes, auto.trials) == (pickled.successes,
                                                 pickled.trials)

    def test_shm_without_layout_raises(self):
        from repro.stats.parallel import ShardPlan, run_sharded

        with pytest.raises(ValueError, match="layout"):
            run_sharded(lambda source, count: None,
                        ShardPlan(10, 2, 0), config=RunConfig(workers=1, transport="shm"))
