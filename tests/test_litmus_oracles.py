"""Independent oracles for the litmus step semantics, and their tests.

The library states one litmus step semantics (:mod:`repro.litmus.core`)
and walks it; the executors here state the same models another way, so
agreement is evidence rather than tautology:

* :func:`enumerate_outcomes_buffered` — PSO stated *operationally*,
  dejafu-style: one FIFO write buffer per location per thread.  It must
  reach exactly the algebraic PSO outcome sets (the zoo's ``PSO-WB``).
* :func:`reference_outcomes` — the enumerator's definition read
  literally: pick one legal reordering per thread up front (a
  permutation whose every inverted pair may reorder), then run every
  interleaving of the picked orders, over one shared memory or, with
  non-atomic stores, over per-(writer, reader) FIFO propagation
  channels.  The core must reach exactly its outcome sets under every
  zoo model.
"""

from __future__ import annotations

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LitmusError
from repro.litmus import (
    ALL_TESTS,
    ZOO_MODELS,
    FamilySpec,
    Outcome,
    enumerate_outcomes,
    family_member,
    get_zoo_model,
)
from repro.litmus.core import _pair_may_reorder
from repro.sim import Fence, Load, Operation, Store, ThreadProgram

# ----------------------------------------------------------------------
# The per-location write-buffer executor (operational PSO)
# ----------------------------------------------------------------------

#: One thread's write buffers: sorted (location, pending values) pairs.
_Buffers = tuple[tuple[str, tuple[int, ...]], ...]


def _buffer_append(buffers: _Buffers, location: str, value: int) -> _Buffers:
    entries = dict(buffers)
    entries[location] = entries.get(location, ()) + (value,)
    return tuple(sorted(entries.items()))


def _buffer_pop(buffers: _Buffers, location: str) -> tuple[int, _Buffers]:
    entries = dict(buffers)
    value, *rest = entries[location]
    if rest:
        entries[location] = tuple(rest)
    else:
        del entries[location]
    return value, tuple(sorted(entries.items()))


def enumerate_outcomes_buffered(
    programs: list[ThreadProgram],
    initial_memory: dict[str, int] | None = None,
    observed_locations: tuple[str, ...] = (),
) -> set[Outcome]:
    """Exact reachable outcomes under per-location write buffers (PSO).

    Operational semantics, dejafu-style: a store appends to its thread's
    FIFO buffer *for that location*; a flush event moves some buffer's
    oldest entry to shared memory (buffers for distinct locations drain
    in any order — the ST→ST relaxation); a load forwards the newest
    value from the thread's own buffer, falling back to memory (the
    ST→LD relaxation plus store forwarding); a full fence blocks until
    the thread's buffers are empty.  Memory stays multi-copy atomic, so
    final memory is well-defined and ``observed_locations`` is
    supported, exactly as in the algebraic enumerator.
    """
    if not programs:
        raise LitmusError("a litmus test needs at least one thread")
    threads: list[tuple[Operation, ...]] = [
        program.operations for program in programs]
    names = [program.name for program in programs]
    n = len(threads)
    empty_buffers: tuple[_Buffers, ...] = tuple(() for _ in range(n))
    initial: tuple[tuple[str, int], ...] = tuple(
        sorted((initial_memory or {}).items()))

    outcomes: set[Outcome] = set()
    seen: set[tuple] = set()

    def record(memory, registers) -> None:
        entries = list(registers)
        lookup = dict(memory)
        entries += [(f"mem:{location}", lookup.get(location, 0))
                    for location in observed_locations]
        outcomes.add(tuple(sorted(entries)))

    def step(pcs, memory, buffers, registers) -> None:
        key = (pcs, memory, buffers, registers)
        if key in seen:
            return
        seen.add(key)
        finished = all(pcs[k] >= len(threads[k]) for k in range(n))
        if finished and not any(buffers):
            record(memory, registers)
            return

        # Instruction steps.
        for k in range(n):
            if pcs[k] >= len(threads[k]):
                continue
            operation = threads[k][pcs[k]]
            next_pcs = tuple(pc + 1 if i == k else pc
                             for i, pc in enumerate(pcs))
            if isinstance(operation, Load):
                pending = dict(buffers[k]).get(operation.location)
                if pending:
                    value = pending[-1]  # forward the newest own store
                else:
                    value = dict(memory).get(operation.location, 0)
                name = f"{names[k]}:{operation.dst}"
                next_registers = tuple(sorted(
                    {**dict(registers), name: value}.items()))
                step(next_pcs, memory, buffers, next_registers)
            elif isinstance(operation, Store):
                if operation.src is not None:
                    value = dict(registers).get(
                        f"{names[k]}:{operation.src}", 0)
                else:
                    assert operation.value is not None
                    value = operation.value
                new_buffers = list(buffers)
                new_buffers[k] = _buffer_append(
                    buffers[k], operation.location, value)
                step(next_pcs, memory, tuple(new_buffers), registers)
            else:
                assert isinstance(operation, Fence)
                if buffers[k]:
                    continue  # blocked until this thread's buffers drain
                step(next_pcs, memory, buffers, registers)

        # Flush events: any buffer's oldest entry commits to memory.
        for k in range(n):
            for location, _ in buffers[k]:
                value, new_thread_buffers = _buffer_pop(buffers[k], location)
                new_buffers = list(buffers)
                new_buffers[k] = new_thread_buffers
                new_memory = tuple(sorted(
                    {**dict(memory), location: value}.items()))
                step(pcs, new_memory, tuple(new_buffers), registers)

    step(tuple([0] * n), initial, empty_buffers, ())
    return outcomes


# ----------------------------------------------------------------------
# The reference definition: reorder up front, then interleave
# ----------------------------------------------------------------------


def reference_outcomes(
    programs: list[ThreadProgram],
    model,
    initial_memory: dict[str, int] | None = None,
    observed_locations: tuple[str, ...] = (),
    *,
    atomic: bool = True,
) -> set[Outcome]:
    """Every outcome of every interleaving of every legal reordering."""
    names = [program.name for program in programs]
    n = len(programs)
    memory = tuple(sorted((initial_memory or {}).items()))

    def legal(operations):
        return [tuple(operations[i] for i in order)
                for order in permutations(range(len(operations)))
                if all(_pair_may_reorder(model, operations[i], operations[j])
                       for slot, j in enumerate(order)
                       for i in order[slot + 1:] if i < j)]

    def put(view, location, value):
        return tuple(sorted({**dict(view), location: value}.items()))

    outcomes: set[Outcome] = set()
    for threads in product(*(legal(program.operations) for program in programs)):
        seen: set[tuple] = set()
        # views[k] is thread k's memory (one shared view when atomic);
        # channels[w * n + r] queues writer w's stores for reader r.
        stack = [((0,) * n, (memory,) * (1 if atomic else n),
                  ((),) * (n * n), ())]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            pcs, views, channels, registers = state
            if all(pc == len(thread) for pc, thread in zip(pcs, threads)):
                final = dict(views[0])
                outcomes.add(tuple(sorted(registers + tuple(
                    (f"mem:{location}", final.get(location, 0))
                    for location in observed_locations))))
                continue
            for k, thread in enumerate(threads):
                if pcs[k] == len(thread):
                    continue
                operation = thread[pcs[k]]
                view = 0 if atomic else k
                after = pcs[:k] + (pcs[k] + 1,) + pcs[k + 1:]
                if isinstance(operation, Load):
                    value = dict(views[view]).get(operation.location, 0)
                    stack.append((after, views, channels, tuple(sorted(
                        {**dict(registers),
                         f"{names[k]}:{operation.dst}": value}.items()))))
                elif isinstance(operation, Store):
                    value = (operation.value if operation.src is None else
                             dict(registers).get(f"{names[k]}:{operation.src}", 0))
                    new_views = list(views)
                    new_views[view] = put(views[view], operation.location, value)
                    new_channels = tuple(
                        queue + ((operation.location, value),)
                        if not atomic and index // n == k and index % n != k
                        else queue
                        for index, queue in enumerate(channels))
                    stack.append((after, tuple(new_views), new_channels,
                                  registers))
                elif not any(channels[k * n:(k + 1) * n]):
                    stack.append((after, views, channels, registers))
            for index, queue in enumerate(channels):
                if queue:
                    (location, value), rest = queue[0], queue[1:]
                    new_views = list(views)
                    new_views[index % n] = put(views[index % n], location, value)
                    stack.append((pcs, tuple(new_views),
                                  channels[:index] + (rest,) + channels[index + 1:],
                                  registers))
    return outcomes


seeds = st.integers(min_value=0, max_value=2**31)


@st.composite
def small_members(draw):
    """Generated members: 2-3 threads, fence density up to 0.3.

    Sizes stay where the reference, which searches once per product of
    reorderings, answers in well under a second under non-atomic WO.
    """
    threads = draw(st.integers(min_value=2, max_value=3))
    spacing = draw(st.integers(min_value=0, max_value=1)) if threads == 2 else 0
    spec = FamilySpec(
        threads=threads,
        ops_per_thread=draw(st.integers(min_value=spacing + 2,
                                        max_value=3 if threads == 2 else 2)),
        addresses=draw(st.integers(min_value=1, max_value=2)),
        spacing=spacing,
        fence_density=draw(st.sampled_from([0.0, 0.1, 0.2, 0.3])),
    )
    return family_member(spec, draw(seeds), draw(st.integers(0, 3)))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


class TestBufferedExecutor:
    def test_agrees_with_algebraic_pso_on_the_full_battery(self):
        """The dejafu-style per-location write-buffer machine reaches
        exactly the algebraic PSO outcome sets on every registered test
        — two independent statements of one model."""
        pso = get_zoo_model("PSO")
        for test in ALL_TESTS:
            programs = list(test.programs)
            buffered = enumerate_outcomes_buffered(
                programs, dict(test.initial_memory), test.observed_locations)
            algebraic = enumerate_outcomes(
                programs, pso, dict(test.initial_memory),
                test.observed_locations)
            assert buffered == algebraic, test.name

    def test_empty_program_list_rejected(self):
        with pytest.raises(LitmusError):
            enumerate_outcomes_buffered([])

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_agrees_with_algebraic_pso_on_generated_members(self, seed):
        test = family_member(FamilySpec(ops_per_thread=3, spacing=1), seed, 0)
        programs = list(test.programs)
        assert enumerate_outcomes_buffered(programs) \
            == enumerate_outcomes(programs, get_zoo_model("PSO"))


class TestReferenceDefinition:
    def test_battery_matches_reference_under_every_zoo_model(self):
        for test in ALL_TESTS:
            for model in ZOO_MODELS:
                non_atomic = model.atomicity == "non_atomic"
                if non_atomic and test.observed_locations:
                    continue
                assert enumerate_outcomes(
                    list(test.programs), model, dict(test.initial_memory),
                    test.observed_locations,
                ) == reference_outcomes(
                    list(test.programs), model, dict(test.initial_memory),
                    test.observed_locations, atomic=not non_atomic,
                ), (test.name, model.name)

    @settings(max_examples=40, deadline=None)
    @given(test=small_members())
    def test_generated_members_match_both_oracles(self, test):
        """Under every zoo model the core reaches exactly the reference
        definition's outcomes, and the buffered executor exactly PSO's."""
        programs = list(test.programs)
        for model in ZOO_MODELS:
            assert enumerate_outcomes(programs, model) == reference_outcomes(
                programs, model, atomic=model.atomicity != "non_atomic",
            ), (test.name, model.name)
        assert enumerate_outcomes_buffered(programs) \
            == enumerate_outcomes(programs, get_zoo_model("PSO"))
