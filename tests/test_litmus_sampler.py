"""Tests for the sampled walk's parts: counted orders, block draws and
the store-atomic lockstep kernel.

Random mode's tables are pinned byte for byte (``tests/data``), so every
part must reproduce the draw-by-draw sampler exactly:
:class:`~repro.litmus.core.BlockReader` equals ``Generator.integers``
draw for draw, one pass at a time too (``rows``);
:class:`~repro.litmus.core.Orders` equals
:func:`~repro.litmus.core.legal_orders` rank for rank without listing
the orders; and the lockstep kernel equals the one-trial-at-a-time loop
(``tests/reference.py``), table and insertion order.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from repro.errors import LitmusError
from repro.litmus import (
    ALL_TESTS,
    ZOO_MODELS,
    FamilySpec,
    LitmusTest,
    explore_random,
    family_member,
    get_zoo_model,
)
from repro.litmus.core import (
    LOCKSTEP_TRIALS,
    MAX_ORDERS,
    BlockReader,
    Machine,
    Orders,
    blocker_masks,
    enabled,
    legal_orders,
)
from repro.runconfig import RunConfig
from repro.sim import Fence, Load, Store, ThreadProgram
from repro.stats.rng import PhiloxSource, RandomSource
from .reference import sample_store_atomic

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


class TestBlockReaderRows:
    """``rows`` equals :meth:`BlockReader.below` pass for pass."""

    #: Bounds with heavy rejection (2**31 + 12345 and 3,000,000,001), no
    #: rejection (2**32), small ones and ones that draw nothing.
    BOUNDS = [7, 2**31 + 12345, 1, 3_000_000_001, 2**32, 1, 60, 2]

    @staticmethod
    def _passes(reader, bounds, count) -> list[list[int]]:
        return [[reader.below(k) for k in bounds] for _ in range(count)]

    @pytest.mark.parametrize("stream", sorted(SOURCES))
    def test_rows_equal_below_row_by_row(self, stream):
        reader = BlockReader(SOURCES[stream]().generator)
        calls = []
        below = reader.below
        reader.below = lambda k: calls.append(k) or below(k)
        rows = reader.rows(self.BOUNDS, 400)
        assert calls, "no row met a rejection"
        assert rows.tolist() == self._passes(
            BlockReader(SOURCES[stream]().generator), self.BOUNDS, 400)

    @pytest.mark.parametrize("stream", sorted(SOURCES))
    def test_rows_continue_the_stream(self, stream):
        # Passes split across calls, with read-ahead words from below()
        # in between, draw what one run of passes draws.
        reader = BlockReader(SOURCES[stream]().generator)
        got = [*reader.rows(self.BOUNDS, 3).tolist(), [reader.below(5)],
               *reader.rows(self.BOUNDS, 5).tolist(),
               *reader.rows([9, 4], 700).tolist()]
        scalar = BlockReader(SOURCES[stream]().generator)
        want = [*self._passes(scalar, self.BOUNDS, 3), [scalar.below(5)],
                *self._passes(scalar, self.BOUNDS, 5),
                *self._passes(scalar, [9, 4], 700)]
        assert got == want

    def test_bounds_of_one_and_no_rows_draw_nothing(self):
        reader = BlockReader(RandomSource(3).generator)
        assert reader.rows([1, 1], 5).tolist() == [[0, 0]] * 5
        assert reader.rows([9, 4], 0).shape == (0, 2)
        assert reader.rows([], 4).shape == (4, 0)
        assert reader.below(2**32) == RandomSource(3).generator.integers(
            0, 2**32, dtype=np.uint32)

    @pytest.mark.parametrize("k", [0, -3, 2**32 + 1])
    def test_out_of_range_bound_raises(self, k):
        with pytest.raises(ValueError):
            BlockReader(RandomSource(3).generator).rows([5, k], 2)


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


#: The models whose stores are atomic: the lockstep kernel runs them.
ATOMIC_MODELS = [model for model in ZOO_MODELS if model.atomicity != "non_atomic"]


def _test(name, *programs, observed=(), initial=None) -> LitmusTest:
    return LitmusTest(name=name, description=name, programs=programs,
                      relaxed_outcome=(), allowed={},
                      observed_locations=observed,
                      initial_memory=initial or {})


#: Battery tests, generated members with 2 and 3 threads with and
#: without fences, a thread with one legal order beside an empty thread,
#: a store from a register no load writes, a test with nothing to
#: observe, one with no operations, and 12 independent stores, whose 12!
#: orders under PSO and WO make the order draw reject about one word in
#: nine.
KERNEL_CASES = {
    **{test.name: test for test in ALL_TESTS},
    **{f"{threads}x{ops}-fences{density}-{index}": family_member(
        FamilySpec(threads=threads, ops_per_thread=ops, spacing=1,
                   fence_density=density), 7, index)
       for threads, ops in ((2, 5), (3, 4)) for density in (0.0, 0.3)
       for index in range(2)},
    "one-order-and-empty": _test(
        "one-order-and-empty",
        ThreadProgram("T0", (Store("x", value=2), Load("r1", "x"),
                             Store("x", src="r1"))),
        ThreadProgram("T1", ()),
        ThreadProgram("T2", (Load("r2", "x"), Fence(), Store("y", value=3))),
        observed=("x", "y")),
    "unwritten-register": _test(
        "unwritten-register",
        ThreadProgram("T0", (Store("x", src="r9"), Load("r1", "y"))),
        ThreadProgram("T1", (Store("y", value=4), Load("r2", "x"))),
        initial={"x": 5}),
    "nothing-observed": _test(
        "nothing-observed",
        ThreadProgram("T0", (Store("x", value=1), Store("y", value=1))),
        ThreadProgram("T1", ())),
    "no-operations": _test(
        "no-operations", ThreadProgram("T0", ()), observed=("x",),
        initial={"x": 7}),
    "twelve-stores": _test(
        "twelve-stores",
        ThreadProgram("T0", tuple(Store(f"x{index}", value=index + 1)
                                  for index in range(12))),
        ThreadProgram("T1", (Load("r1", "x0"), Load("r2", "x11")))),
}


def _both_walks(test, model, trials, seed=11):
    machine = Machine(test.programs, model, test.initial_memory,
                      test.observed_locations)
    kernel = machine.sample(RandomSource(seed), trials)
    loop = sample_store_atomic(machine, RandomSource(seed), trials)
    return kernel, loop


class TestLockstepKernel:
    """The lockstep kernel equals the store-atomic loop it replaced."""

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    @pytest.mark.parametrize("model", ATOMIC_MODELS, ids=lambda model: model.name)
    def test_equals_the_loop(self, name, model):
        for trials in (0, 1, 7, 156, 1000):
            kernel, loop = _both_walks(KERNEL_CASES[name], model, trials)
            assert kernel == loop
            assert list(kernel) == list(loop)  # insertion order too
            assert sum(kernel.values()) == trials

    @pytest.mark.parametrize("trials", [LOCKSTEP_TRIALS - 1, LOCKSTEP_TRIALS,
                                        LOCKSTEP_TRIALS + 1])
    @pytest.mark.parametrize("model", ATOMIC_MODELS, ids=lambda model: model.name)
    def test_equals_the_loop_around_a_pass(self, model, trials):
        for name in ("IRIW", "3x4-fences0.3-1"):
            kernel, loop = _both_walks(KERNEL_CASES[name], model, trials)
            assert kernel == loop and list(kernel) == list(loop)

    def test_values_of_any_size_stay_exact(self):
        big = 2**70
        test = _test(
            "big",
            ThreadProgram("T0", (Store("x", value=big), Load("r1", "y"))),
            ThreadProgram("T1", (Store("y", value=-big), Load("r2", "x"),
                                 Store("z", src="r2"))),
            observed=("x", "z"), initial={"x": big + 1, "y": 3})
        for model in ATOMIC_MODELS:
            kernel, loop = _both_walks(test, model, 500)
            assert kernel == loop and list(kernel) == list(loop)
            values = {value for outcome in kernel for _, value in outcome}
            assert {big, -big, big + 1} <= values

    def test_one_shard_run_equals_the_loop(self):
        # The default serial run is one shard that draws from the seed's
        # own source, over three full passes and a part pass.
        trials = LOCKSTEP_TRIALS * 3 + 5
        test = KERNEL_CASES["2x5-fences0.0-0"]
        for model in ("TSO", "PSO-WB"):
            table = explore_random(test, model, trials, seed=42)
            machine = Machine(test.programs, get_zoo_model(model),
                              test.initial_memory, test.observed_locations)
            loop = sample_store_atomic(machine, RandomSource(42), trials)
            assert table.shards is None  # the one-shard plan
            assert table.counts == tuple(sorted(loop.items()))
