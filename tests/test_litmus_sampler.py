"""Tests for the sampled walk's two parts: counted orders and block draws.

Random mode's tables are pinned byte for byte (``tests/data``), so both
parts must reproduce the draw-by-draw sampler exactly:
:class:`~repro.litmus.core.BlockReader` equals ``Generator.integers``
draw for draw, and :class:`~repro.litmus.core.Orders` equals
:func:`~repro.litmus.core.legal_orders` rank for rank without listing
the orders.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from repro.errors import LitmusError
from repro.litmus import (
    ZOO_MODELS,
    FamilySpec,
    LitmusTest,
    explore_random,
    family_member,
)
from repro.litmus.core import (
    MAX_ORDERS,
    BlockReader,
    Orders,
    blocker_masks,
    enabled,
    legal_orders,
)
from repro.runconfig import RunConfig
from repro.sim import Store, ThreadProgram
from repro.stats.rng import PhiloxSource, RandomSource

#: Both bit generators the library draws from: a spawned PCG64 stream
#: (the shards') and a counter-addressed Philox stream (the family
#: generator's); the reader must match numpy on either.
SOURCES = {
    "spawn": lambda: RandomSource(2024),
    "philox": lambda: PhiloxSource(2024, (3,)),
}


def _reader_draws(source, bounds, block=512) -> list[int]:
    below = BlockReader(source.generator, block).below
    return [below(k) for k in bounds]


def _numpy_draws(source, bounds) -> list[int]:
    return [source.uniform_int(0, k - 1) for k in bounds]


@pytest.mark.parametrize("stream", sorted(SOURCES))
class TestBlockReader:
    def test_small_bounds_draw_for_draw(self, stream):
        bounds = np.random.default_rng(7).integers(1, 131, 10**5).tolist()
        assert _reader_draws(SOURCES[stream](), bounds) \
            == _numpy_draws(SOURCES[stream](), bounds)

    @pytest.mark.parametrize("k", [2**31 + 12345, 3_000_000_001, 2**32])
    def test_large_bounds_draw_for_draw(self, stream, k):
        bounds = [k] * 3000
        assert _reader_draws(SOURCES[stream](), bounds) \
            == _numpy_draws(SOURCES[stream](), bounds)

    @pytest.mark.parametrize("k", [2**31 + 12345, 3_000_000_001])
    def test_large_bounds_take_the_rejection_path(self, stream, k):
        # Words the multiply-shift rejects are consumed without a draw.
        words = SOURCES[stream]().generator.integers(
            0, 2**32, size=3000, dtype=np.uint32).tolist()
        rejected = sum(word * k % 2**32 < 2**32 % k for word in words)
        assert rejected > 100

    def test_k_one_consumes_nothing(self, stream):
        bounds = [5, 1, 1, 9, 1, 7] * 500
        assert _reader_draws(SOURCES[stream](), bounds) \
            == _numpy_draws(SOURCES[stream](), bounds)
        reader = BlockReader(SOURCES[stream]().generator, 4)
        assert [reader.below(1) for _ in range(10)] == [0] * 10
        assert reader.below(2**32) == SOURCES[stream]().generator.integers(
            0, 2**32, dtype=np.uint32)

    @pytest.mark.parametrize("block", [1, 3, 64, 4096])
    def test_block_size_never_changes_a_draw(self, stream, block):
        # Mixed bounds cross many block boundaries at small block sizes.
        bounds = ([3, 2**31 + 12345, 17, 1, 3_000_000_001, 2**32, 130]
                  * 300)
        assert _reader_draws(SOURCES[stream](), bounds, block) \
            == _numpy_draws(SOURCES[stream](), bounds)

    @pytest.mark.parametrize("k", [0, -3, 2**32 + 1, 2**40])
    def test_out_of_range_bound_raises(self, stream, k):
        with pytest.raises(ValueError):
            BlockReader(SOURCES[stream]().generator).below(k)


def _blocker_cases():
    for model in ZOO_MODELS:
        for spec, seed in ((FamilySpec(ops_per_thread=6, spacing=1), 3),
                           (FamilySpec(threads=3, ops_per_thread=4,
                                       fence_density=0.4), 5)):
            for index in range(2):
                for program in family_member(spec, seed, index).programs:
                    yield blocker_masks(program.operations, model)


def _chain_with_free(length: int, free: tuple[int, ...]) -> tuple[int, ...]:
    """Blockers of a thread whose ops all order except those in ``free``."""
    blockers = []
    chained = 0
    for index in range(length):
        if index in free:
            blockers.append(0)
        else:
            blockers.append(chained)
            chained |= 1 << index
    return tuple(blockers)


def _legal(order, blockers) -> bool:
    done = 0
    for index in order:
        if blockers[index] & ~done:
            return False
        done |= 1 << index
    return done == (1 << len(blockers)) - 1


class TestOrders:
    def test_every_rank_equals_the_listed_order(self):
        for blockers in _blocker_cases():
            orders = Orders(blockers)
            listed = legal_orders(blockers)
            assert len(orders) == len(listed)
            assert [orders[rank] for rank in range(len(orders))] == listed

    def test_small_posets_exhaustively(self):
        # Every blocker assignment of a 4-operation thread.
        choices = [range(1 << index) for index in range(4)]
        for blockers in itertools.product(*choices):
            orders = Orders(blockers)
            assert [orders[rank] for rank in range(len(orders))] \
                == legal_orders(blockers)

    def test_iterates_like_the_list(self):
        blockers = _chain_with_free(6, (1, 4))
        assert list(Orders(blockers)) == legal_orders(blockers)
        with pytest.raises(IndexError):
            Orders(blockers)[len(legal_orders(blockers))]
        assert list(Orders(())) == [()]

    def test_long_thread_counts_without_recursion(self):
        # 1,100 operations: one chain plus two free operations, the
        # shape of a one-address WO family member.
        blockers = _chain_with_free(1100, (40, 700))
        orders = Orders(blockers)
        assert len(orders) == 1100 * 1099
        assert orders[0] == tuple(range(1100))
        for rank in (1, 5000, len(orders) // 2, len(orders) - 1):
            assert _legal(orders[rank], blockers)
        assert orders[len(orders) - 1][:2] == (700, 40)

    def test_more_than_max_orders_raises(self):
        assert len(Orders((0,) * 12)) == 479_001_600 <= MAX_ORDERS
        with pytest.raises(LitmusError, match="legal orders"):
            Orders((0,) * 13)  # 13! orders
        with pytest.raises(LitmusError, match="legal orders"):
            Orders((0,) * 40)

    def test_enabled_rule_matches_the_choices(self):
        blockers = _chain_with_free(9, (2, 6))
        orders = Orders(blockers)
        for pending, choices in orders.choices.items():
            assert [index for index, *_ in choices] \
                == enabled(pending, blockers)


class TestCountedOrdersEndToEnd:
    def test_hundred_twenty_op_member_samples_quickly(self):
        # 14,280 legal orders per thread; listing them per shard took
        # over a minute.
        member = family_member(
            FamilySpec(threads=2, ops_per_thread=120, spacing=1,
                       addresses=1), 3, 0)
        started = time.perf_counter()
        table = explore_random(member, "WO", 64, seed=0,
                               config=RunConfig(shards=4))
        assert time.perf_counter() - started < 20.0
        assert sum(count for _, count in table.counts) == 64

    def test_too_many_orders_raise_before_any_shard(self, monkeypatch):
        import repro.stats.montecarlo as montecarlo

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(montecarlo, "run_sharded", no_shards)
        wide = LitmusTest(
            name="wide", description="13 independent stores",
            programs=(ThreadProgram("T0", tuple(
                Store(f"x{index}", value=1) for index in range(13))),),
            relaxed_outcome=(), allowed={})
        with pytest.raises(LitmusError, match="legal orders"):
            explore_random(wide, "WO", 10, config=RunConfig(shards=2))
