"""One litmus step semantics, walked exhaustively or by sampling.

The paper defines a memory model only by which ordered pairs of
memory-operation types may reorder (Table 1).  This module states once
what a litmus execution step does; every executor in :mod:`repro.litmus`
walks it.

* **Compile** (:class:`Machine`): once per ``(programs, model)``, into
  operation tuples over numbered locations and registers, plus per
  operation a *blocker mask* of the earlier operations of its thread
  that it may not pass (:func:`blocker_masks`).  The model's
  ``atomicity`` flavor decides whether stores are atomic.
* **Enabling rule** (:func:`enabled`): a thread may run any pending
  operation that no earlier pending operation of the same thread
  blocks.  By the bubble-sort argument this gives exactly the
  executions of choosing one legal permutation per thread up front and
  then interleaving.
* **Steps**: a load reads the thread's view of memory; a store writes
  it and queues the value on the thread's outgoing per-(writer, reader)
  channels (:meth:`Machine.step`); a full fence changes nothing but
  waits until those channels are drained (:meth:`Machine.ready`); a
  delivery moves a channel's oldest store into its reader's view
  (:meth:`Machine.deliver`).  An atomic store is a non-atomic store
  delivered to every thread at once: all threads share one view and
  there are no channels.

Two iterative walks run over the core: :meth:`Machine.reachable`, the
set-valued walk with one memo over the test's state space, and
:meth:`Machine.sample`, the sampled walk behind random exploration.  The
sampled walk counts each thread's legal orders instead of listing them
(:class:`Orders`) and takes its random integers from a
:class:`BlockReader`.  :func:`fingerprint` digests the code of every
function and method here, so cached outcome sets and random-mode shards
are keyed to it.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
from functools import lru_cache

import numpy as np

from ..core.memory_models import LD, ST, MemoryModel
from ..errors import LitmusError
from ..sim.isa import Load, Operation, Store, ThreadProgram
from ..stats.checkpoint import kernel_fingerprint

__all__ = [
    "BlockReader",
    "MAX_ORDERS",
    "Machine",
    "Orders",
    "Outcome",
    "blocker_masks",
    "enabled",
    "fingerprint",
    "legal_orders",
]

#: A final state: sorted tuple of ("T0:r1", value) register entries plus
#: ("mem:x", value) entries for observed locations.
Outcome = tuple[tuple[str, int], ...]

LOAD, STORE, FENCE = 0, 1, 2

#: The most legal orders one thread may have in random mode: a draw
#: among them must fit one 32-bit word (see :class:`BlockReader`).
MAX_ORDERS = 1 << 32

#: Words the sampled walk pulls from its shard generator per numpy call.
BLOCK_WORDS = 512


def _depends(earlier: Operation, later: Operation) -> bool:
    """Register dependency (true, anti, or output) between two operations."""
    earlier_writes = set(earlier.writes())
    later_writes = set(later.writes())
    return bool(
        earlier_writes & set(later.reads())
        or set(earlier.reads()) & later_writes
        or earlier_writes & later_writes
    )


def _pair_may_reorder(model: MemoryModel, earlier: Operation, later: Operation) -> bool:
    if earlier.is_fence or later.is_fence:
        return False  # a full fence: nothing crosses it, it never moves
    if earlier.address is not None and earlier.address == later.address:
        return False
    if _depends(earlier, later):
        return False
    return model.relaxes(LD if earlier.is_load else ST,
                         LD if later.is_load else ST)


def blocker_masks(
    operations: tuple[Operation, ...], model: MemoryModel
) -> tuple[int, ...]:
    """Per operation, the bit mask of earlier operations it may not pass."""
    for operation in operations:
        if not (operation.is_load or operation.is_store or operation.is_fence):
            raise LitmusError("litmus programs may contain only loads, "
                              f"stores and fences, got {operation}")
    return tuple(
        sum(1 << earlier for earlier in range(later)
            if not _pair_may_reorder(model, operations[earlier], operations[later]))
        for later in range(len(operations))
    )


def enabled(pending: int, blockers: tuple[int, ...]) -> list[int]:
    """The enabling rule: pending operations no earlier pending one blocks.

    ``pending`` holds one bit per not-yet-run operation of a thread.  The
    lowest pending operation is always enabled, so a thread never sticks.
    """
    return [index for index, mask in enumerate(blockers)
            if pending >> index & 1 and not pending & mask]


def legal_orders(blockers: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every order the enabling rule allows one thread, lexicographically.

    A depth-first walk that tries the lowest enabled index first, so the
    list equals a scan of ``itertools.permutations`` filtered to legal
    orders, element for element.
    """
    orders: list[tuple[int, ...]] = []
    stack = [((), (1 << len(blockers)) - 1)]
    while stack:
        prefix, pending = stack.pop()
        if not pending:
            orders.append(prefix)
            continue
        for index in reversed(enabled(pending, blockers)):
            stack.append((prefix + (index,), pending & ~(1 << index)))
    return orders


class Orders:
    """The legal orders of one thread, counted and ranked, never listed.

    ``len(Orders(blockers))`` and ``Orders(blockers)[rank]`` equal
    ``len(legal_orders(blockers))`` and ``legal_orders(blockers)[rank]``,
    but the list is factorial in thread length and this is not.  One
    iterative walk with a memo over pending-operation masks counts, per
    reachable mask, the orders that finish from it, and keeps per mask
    its choices ``(index, mask after, orders from there)`` in index
    order; a rank then picks one choice per step.  Counting stops with a
    :class:`LitmusError` as soon as a partial count passes
    :data:`MAX_ORDERS`, since the total is at least any partial count.
    """

    def __init__(self, blockers: tuple[int, ...]) -> None:
        self.full = (1 << len(blockers)) - 1
        counts = {0: 1}
        choices: dict[int, list] = {}
        stack = [self.full]
        while stack:
            pending = stack[-1]
            if pending in counts:
                stack.pop()  # pushed by two masks, already counted
            elif pending not in choices:
                # First visit: count the masks it leads to first.
                choices[pending] = [(index, pending & ~(1 << index))
                                    for index in enabled(pending, blockers)]
                stack += [after for _, after in choices[pending]
                          if after not in counts]
            else:
                stack.pop()
                choices[pending] = [(index, after, counts[after])
                                    for index, after in choices[pending]]
                counts[pending] = sum(count for *_, count in choices[pending])
                if counts[pending] > MAX_ORDERS:
                    raise LitmusError(
                        f"a thread of {len(blockers)} operations has more "
                        f"than {MAX_ORDERS} legal orders; random mode draws "
                        "an order from one 32-bit word")
        self.total = counts[self.full]
        self.choices = choices

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.total:
            raise IndexError(f"order rank {rank} out of range")
        choices = self.choices
        order = []
        pending = self.full
        while pending:
            for index, after, count in choices[pending]:
                if rank < count:
                    break
                rank -= count
            order.append(index)
            pending = after
        return tuple(order)


#: Counted orders shared by every shard one process runs (a shard compiles
#: its own :class:`Machine`); bounded, and keyed on the blocker masks.
_counted_orders = lru_cache(maxsize=32)(Orders)


class BlockReader:
    """Uniform integers below ``k`` from 32-bit words read in blocks.

    :meth:`below` returns what one ``generator.integers(0, k)`` call
    would, draw for draw, for ``1 <= k <= 2**32``: numpy serves such a
    range from 32-bit words by Lemire's multiply-shift, ``(word * k) >>
    32``, rejecting a word while ``(word * k) mod 2**32 < 2**32 % k``,
    and consumes nothing when ``k == 1``; and ``generator.integers(0,
    2**32, size, dtype=np.uint32)`` returns those same words in order.
    So :meth:`RandomSource.uniform_int(low, high)
    <repro.stats.rng.RandomSource.uniform_int>` equals ``low +
    below(high - low + 1)`` on any bit generator, at one numpy call per
    ``block`` words instead of one per draw.  The reader may read past
    its last draw: whoever builds one owns the generator from then on.
    """

    def __init__(self, generator: np.random.Generator,
                 block: int = BLOCK_WORDS) -> None:
        self.generator = generator
        self.block = block
        self.words = iter(())

    def below(self, k: int) -> int:
        if k == 1:
            return 0
        if not 1 < k <= 1 << 32:
            raise ValueError(f"can only draw below k in [1, 2**32], got {k}")
        threshold = (1 << 32) % k
        while True:
            for word in self.words:
                product = word * k
                if product & 0xFFFFFFFF >= threshold:
                    return product >> 32
            self.words = iter(self.generator.integers(
                0, 1 << 32, size=self.block, dtype=np.uint32).tolist())


def _compile(operation, name, locations, registers) -> tuple[int, int, int, int]:
    if isinstance(operation, Load):
        return (LOAD, locations[operation.location],
                registers[f"{name}:{operation.dst}"], 0)
    if isinstance(operation, Store):
        if operation.src is None:
            return (STORE, locations[operation.location], -1, operation.value)
        return (STORE, locations[operation.location],
                registers.get(f"{name}:{operation.src}", -1), 0)
    return (FENCE, -1, -1, 0)


class Machine:
    """A litmus test compiled for one model, stores as the model says.

    The model's ``atomicity`` flavor picks the store semantics; under
    ``"non_atomic"`` stores final memory is ill-defined, so a test that
    observes memory is refused (:class:`LitmusError` naming the model).

    Operations become ``(kind, location, register, value)`` tuples over
    numbered slots: a load's ``register`` is its destination, a store's
    is its source register (``-1`` for an immediate ``value``, or for a
    register no load ever writes, which reads as 0).  A mutable state is
    ``(views, channels, registers)``, three lists of slot values; a
    thread reads and writes ``views[view[k]]`` and channel ``w * n + r``
    carries writer ``w``'s stores to reader ``r``.
    """

    def __init__(
        self,
        programs: list[ThreadProgram] | tuple[ThreadProgram, ...],
        model: MemoryModel,
        initial_memory: dict[str, int] | None = None,
        observed_locations: tuple[str, ...] = (),
    ) -> None:
        if not programs:
            raise LitmusError("a litmus test needs at least one thread")
        atomic = model.atomicity != "non_atomic"
        if not atomic and observed_locations:
            raise LitmusError(
                f"{model.name}: final memory is ill-defined under non-atomic "
                "stores; observe registers only")
        n = self.n = len(programs)
        memory = dict(initial_memory or {})
        locations: dict[str, int] = {}
        registers: dict[str, int] = {}
        for location in (*memory, *observed_locations):
            locations.setdefault(location, len(locations))
        for program in programs:
            for operation in program.operations:
                if isinstance(operation, (Load, Store)):
                    locations.setdefault(operation.location, len(locations))
                if isinstance(operation, Load):
                    registers.setdefault(f"{program.name}:{operation.dst}",
                                         len(registers))
        self.blockers = [blocker_masks(program.operations, model)
                         for program in programs]
        self.ops = [tuple(_compile(operation, program.name, locations, registers)
                          for operation in program.operations)
                    for program in programs]
        self.memory = [memory.get(location, 0) for location in locations]
        self.register_names = list(registers)
        self.observed = [(f"mem:{location}", locations[location])
                         for location in observed_locations]
        self.atomic = atomic
        self.view = [0] * n if atomic else list(range(n))
        self.outgoing = [[] if atomic else
                         [writer * n + reader for reader in range(n)
                          if reader != writer]
                         for writer in range(n)]

    def start(self) -> tuple[list[list[int]], list[list[tuple[int, int]]], list[int]]:
        """A fresh mutable state: initial views, empty channels, zero registers."""
        n = self.n
        return ([list(self.memory) for _ in range(1 if self.atomic else n)],
                [[] for _ in range(0 if self.atomic else n * n)],
                [0] * len(self.register_names))

    def step(self, views, channels, registers, thread: int, op) -> None:
        """Run compiled operation ``op`` of ``thread``, in place."""
        kind, location, register, value = op
        if kind == LOAD:
            registers[register] = views[self.view[thread]][location]
        elif kind == STORE:
            if register >= 0:
                value = registers[register]
            views[self.view[thread]][location] = value
            for channel in self.outgoing[thread]:
                channels[channel].append((location, value))
        # A fence changes no state: its whole effect is in ready().

    def ready(self, channels, thread: int, op) -> bool:
        """Whether ``op`` may run now: a full fence waits until every
        earlier store of ``thread`` has reached every other thread."""
        return op[0] != FENCE or not any(
            channels[channel] for channel in self.outgoing[thread])

    def deliver(self, views, channels, channel: int) -> None:
        """Move ``channel``'s oldest store into its reader's view, in place."""
        location, value = channels[channel].pop(0)
        views[channel % self.n][location] = value

    def outcome(self, views, registers) -> Outcome:
        entries = list(zip(self.register_names, registers))
        entries += [(name, views[0][slot]) for name, slot in self.observed]
        return tuple(sorted(entries))

    # ------------------------------------------------------------------
    # The walks
    # ------------------------------------------------------------------

    def reachable(self) -> set[Outcome]:
        """Every reachable outcome: an iterative walk with one memo.

        A state is frozen as ``(pending masks, views, channels,
        registers)``; equal states reached by different schedules — or
        by different reorderings — are expanded once.  Once every thread
        has finished, pending deliveries can no longer change a register,
        so the state is recorded and not expanded.
        """
        views, channels, registers = self.start()
        start = (tuple((1 << len(ops)) - 1 for ops in self.ops),
                 tuple(map(tuple, views)), tuple(map(tuple, channels)),
                 tuple(registers))
        seen = {start}
        stack = [start]
        outcomes: set[Outcome] = set()

        def push(pending, views, channels, registers) -> None:
            state = (pending, tuple(map(tuple, views)),
                     tuple(map(tuple, channels)), tuple(registers))
            if state not in seen:
                seen.add(state)
                stack.append(state)

        while stack:
            pending, views, channels, registers = stack.pop()
            if not any(pending):
                outcomes.add(self.outcome(views, registers))
                continue
            for thread in range(self.n):
                for index in enabled(pending[thread], self.blockers[thread]):
                    op = self.ops[thread][index]
                    if not self.ready(channels, thread, op):
                        continue
                    after = (*pending[:thread], pending[thread] & ~(1 << index),
                             *pending[thread + 1:])
                    new_views = list(map(list, views))
                    new_channels = list(map(list, channels))
                    new_registers = list(registers)
                    self.step(new_views, new_channels, new_registers, thread, op)
                    push(after, new_views, new_channels, new_registers)
            for channel, queue in enumerate(channels):
                if queue:
                    new_views = list(map(list, views))
                    new_channels = list(map(list, channels))
                    self.deliver(new_views, new_channels, channel)
                    push(pending, new_views, new_channels, registers)
        return outcomes

    def orders(self) -> list[Orders]:
        """Each thread's counted legal orders, shared across the process.

        Raises :class:`LitmusError` when a thread has more than
        :data:`MAX_ORDERS` of them.
        """
        return [_counted_orders(blockers) for blockers in self.blockers]

    def sample(self, source, trials: int) -> dict[Outcome, int]:
        """The sampled walk: ``trials`` random executions, tallied by outcome.

        Each trial draws one legal order per thread (uniformly among
        :func:`legal_orders`, by rank in :meth:`orders`; no draw when
        there is one), then schedules.
        With atomic stores the next thread is drawn in proportion to its
        remaining operations, which makes every interleaving of the
        chosen orders equally likely (the step probabilities telescope
        to ``∏ nₖ! / N!``).  With non-atomic stores the next event is
        drawn uniformly among each thread's next operation, if
        :meth:`ready`, and each non-empty channel's delivery; a blocked
        fence implies a deliverable store, so the walk never deadlocks.

        Every draw comes from a :class:`BlockReader` over ``source`` and
        equals the ``source.uniform_int`` draw it stands for, so tables
        match a draw-by-draw walk.  The walk owns ``source``: the reader
        reads ahead, so nothing may draw from ``source`` afterwards.
        """
        orders = self.orders()
        below = BlockReader(source.generator).below
        counts: dict[Outcome, int] = {}
        for _ in range(trials):
            outcome = self._trial(below, orders)
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def _trial(self, below, orders: list[Orders]) -> Outcome:
        n = self.n
        threads = [choices[below(len(choices))] for choices in orders]
        views, channels, registers = self.start()
        pcs = [0] * n
        step = self.step
        ops = self.ops
        if self.atomic:
            remaining = [len(thread) for thread in threads]
            total = sum(remaining)
            while total:
                pick = below(total)
                index = 0
                while pick >= remaining[index]:
                    pick -= remaining[index]
                    index += 1
                step(views, channels, registers, index,
                     ops[index][threads[index][pcs[index]]])
                pcs[index] += 1
                remaining[index] -= 1
                total -= 1
            return self.outcome(views, registers)
        ready = self.ready
        while True:
            events = []  # thread k as k, a delivery on channel c as n + c
            for thread in range(n):
                pc = pcs[thread]
                if pc < len(threads[thread]) and ready(
                        channels, thread, ops[thread][threads[thread][pc]]):
                    events.append(thread)
            for channel, queue in enumerate(channels):
                if queue:
                    events.append(n + channel)
            if not events:
                return self.outcome(views, registers)
            event = events[below(len(events))]
            if event >= n:
                self.deliver(views, channels, event - n)
            else:
                step(views, channels, registers, event,
                     ops[event][threads[event][pcs[event]]])
                pcs[event] += 1


def fingerprint() -> str:
    """The compiled code of every function and method in this module.

    Folded into the enumerator fingerprint and bound into the random-mode
    kernel, so a change to any step, the enabling rule, legality or
    either walk re-keys cached outcome sets and stored shards.
    """
    module = sys.modules[__name__]
    parts = []
    for _, value in sorted(vars(module).items()):
        if getattr(value, "__module__", None) != __name__:
            continue
        if inspect.isfunction(value):
            parts.append(kernel_fingerprint(value))
        elif inspect.isclass(value):
            parts += [kernel_fingerprint(member)
                      for _, member in sorted(vars(value).items())
                      if inspect.isfunction(member)]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]
