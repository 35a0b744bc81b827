"""Per-memory-model core pipelines for the simulated multiprocessor.

Each core model implements one memory consistency model *mechanistically*,
with the microarchitectural feature that motivates it in the literature
(§2.1 of the paper):

* :class:`SCCore` — in-order, one memory operation at a time, stores
  globally visible at execution.  The paper's "simple (and slow)"
  SC implementation (§7).
* :class:`TSOCore` — a FIFO store buffer with store-to-load forwarding;
  loads may complete while older stores sit buffered (the ST→LD
  relaxation).  Buffered stores drain to memory with a configurable
  per-cycle probability — the mechanistic analogue of the settling
  probability ``s``.
* :class:`PSOCore` — per-address store queues whose drains may interleave
  across addresses (adds the ST→ST relaxation).
* :class:`WOCore` — an out-of-order issue window that each cycle executes
  a uniformly random *ready* operation (all four relaxations, bounded by
  data dependencies, same-address order, and fences).

All cores honour register data dependencies and treat ``Fence`` as a full
barrier (issue stalls until buffers drain / older operations complete) —
the §7 extension hook.
"""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError
from ..stats.rng import RandomSource
from .isa import Fence, FetchAdd, Load, Operation, Store, ThreadProgram, is_memory_operation
from .memory import SharedMemory

__all__ = [
    "Core",
    "SCCore",
    "TSOCore",
    "PSOCore",
    "WOCore",
    "CORE_KINDS",
    "make_core",
    "DEFAULT_DRAIN_PROBABILITY",
    "DEFAULT_WINDOW_SIZE",
]

#: Per-cycle probability that a buffered store drains to memory.
DEFAULT_DRAIN_PROBABILITY = 0.5

#: Out-of-order issue window size for :class:`WOCore`.
DEFAULT_WINDOW_SIZE = 8

#: Store-buffer capacity (drains are forced when full).
DEFAULT_BUFFER_CAPACITY = 8


class Core:
    """Base class: program state, registers, and the per-cycle interface.

    A core makes progress only on cycles when the machine's scheduler
    calls :meth:`step`; :meth:`background_step` runs every cycle regardless
    (store buffers keep draining even while the pipeline is stalled by the
    scheduler, as on real hardware).
    """

    def __init__(
        self,
        name: str,
        program: ThreadProgram,
        memory: SharedMemory,
        source: RandomSource,
    ):
        self.name = name
        self.program = program
        self.memory = memory
        self.source = source
        self.registers: dict[str, int] = {register: 0 for register in program.registers()}
        self._pc = 0

    # ------------------------------------------------------------------

    @property
    def pc(self) -> int:
        """Index of the next not-yet-issued operation."""
        return self._pc

    @property
    def retired(self) -> bool:
        """Whether every operation has issued (buffers may still hold stores)."""
        return self._pc >= len(self.program)

    @property
    def done(self) -> bool:
        """Whether the core has fully finished (including buffer drain)."""
        return self.retired and self.pending_stores() == 0

    def pending_stores(self) -> int:
        """Stores executed but not yet globally visible."""
        return 0

    def step(self, cycle: int) -> None:
        """Advance the pipeline by one scheduled cycle."""
        raise NotImplementedError

    def background_step(self, cycle: int) -> None:
        """Work that continues even on unscheduled cycles (buffer drain)."""

    def flush(self, cycle: int) -> None:
        """Force all pending stores to commit (end-of-run drain)."""

    # ------------------------------------------------------------------

    def _execute_local(self, operation: Operation) -> None:
        from .isa import Add, AddImmediate, LoadImmediate, Nop

        if isinstance(operation, LoadImmediate):
            self.registers[operation.dst] = operation.value
        elif isinstance(operation, AddImmediate):
            self.registers[operation.dst] = self.registers[operation.src] + operation.value
        elif isinstance(operation, Add):
            self.registers[operation.dst] = (
                self.registers[operation.a] + self.registers[operation.b]
            )
        elif isinstance(operation, Nop):
            pass
        else:  # pragma: no cover - guarded by callers
            raise SimulationError(f"not a local operation: {operation}")

    def _store_value(self, operation: Store) -> int:
        if operation.src is not None:
            return self.registers[operation.src]
        assert operation.value is not None
        return operation.value

    def _execute_atomic(self, operation: FetchAdd, cycle: int) -> None:
        """One indivisible read-modify-write against shared memory."""
        old = self.memory.read(operation.location, cycle, self.name)
        self.registers[operation.dst] = old
        self.memory.commit(operation.location, old + operation.value, cycle, self.name)


class SCCore(Core):
    """Sequentially consistent core: strictly in order, immediate commits."""

    def step(self, cycle: int) -> None:
        if self.retired:
            return
        operation = self.program.operations[self._pc]
        if isinstance(operation, Load):
            self.registers[operation.dst] = self.memory.read(operation.location, cycle, self.name)
        elif isinstance(operation, Store):
            self.memory.commit(operation.location, self._store_value(operation), cycle, self.name)
        elif isinstance(operation, FetchAdd):
            self._execute_atomic(operation, cycle)
        elif isinstance(operation, Fence):
            pass  # nothing is ever pending on an SC core
        else:
            self._execute_local(operation)
        self._pc += 1


class TSOCore(Core):
    """Total Store Order core: FIFO store buffer + store-to-load forwarding."""

    def __init__(
        self,
        name: str,
        program: ThreadProgram,
        memory: SharedMemory,
        source: RandomSource,
        drain_probability: float = DEFAULT_DRAIN_PROBABILITY,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
    ):
        super().__init__(name, program, memory, source)
        if not 0.0 <= drain_probability <= 1.0:
            raise SimulationError(f"drain probability must be in [0, 1], got {drain_probability}")
        if buffer_capacity < 1:
            raise SimulationError(f"buffer capacity must be >= 1, got {buffer_capacity}")
        self._drain_probability = drain_probability
        self._capacity = buffer_capacity
        self._buffer: deque[tuple[str, int]] = deque()

    def pending_stores(self) -> int:
        return len(self._buffer)

    def background_step(self, cycle: int) -> None:
        if self._buffer and self.source.bernoulli(self._drain_probability):
            self._drain_one(cycle)

    def _drain_one(self, cycle: int) -> None:
        location, value = self._buffer.popleft()
        self.memory.commit(location, value, cycle, self.name)

    def flush(self, cycle: int) -> None:
        while self._buffer:
            self._drain_one(cycle)

    def _forward(self, location: str) -> int | None:
        """Newest buffered value for a location (store-to-load forwarding)."""
        for buffered_location, value in reversed(self._buffer):
            if buffered_location == location:
                return value
        return None

    def step(self, cycle: int) -> None:
        if self.retired:
            return
        operation = self.program.operations[self._pc]
        if isinstance(operation, Fence):
            if self._buffer:
                self._drain_one(cycle)  # stall, draining one entry per cycle
                return
        elif isinstance(operation, FetchAdd):
            if self._buffer:
                self._drain_one(cycle)  # lock prefix: full drain first
                return
            self._execute_atomic(operation, cycle)
            self._pc += 1
            return
        elif isinstance(operation, Store):
            if len(self._buffer) >= self._capacity:
                self._drain_one(cycle)  # structural stall
                return
            self._buffer.append((operation.location, self._store_value(operation)))
        elif isinstance(operation, Load):
            forwarded = self._forward(operation.location)
            if forwarded is not None:
                self.registers[operation.dst] = forwarded
            else:
                self.registers[operation.dst] = self.memory.read(
                    operation.location, cycle, self.name
                )
        else:
            self._execute_local(operation)
        self._pc += 1


class PSOCore(TSOCore):
    """Partial Store Order core: drains may reorder across addresses.

    The buffer is still a single queue for capacity purposes, but a drain
    commits the oldest entry of a *uniformly random buffered address*, so
    stores to distinct locations become visible out of order (the ST→ST
    relaxation); per-address FIFO order is preserved.
    """

    def _drain_one(self, cycle: int) -> None:
        locations = list({location for location, _ in self._buffer})
        chosen = locations[self.source.uniform_int(0, len(locations) - 1)]
        for index, (location, value) in enumerate(self._buffer):
            if location == chosen:
                del self._buffer[index]
                self.memory.commit(location, value, cycle, self.name)
                return
        raise SimulationError("buffered address vanished during drain")  # pragma: no cover


class WOCore(Core):
    """Weakly ordered core: out-of-order issue from a bounded window.

    Each scheduled cycle, one uniformly random *ready* operation from the
    next ``window_size`` un-issued operations executes.  Ready means: all
    source registers produced, no older un-issued operation on the same
    address, no older un-issued fence (and a fence itself waits for all
    older operations).  Stores commit at execution (reordering comes from
    the issue order itself).
    """

    def __init__(
        self,
        name: str,
        program: ThreadProgram,
        memory: SharedMemory,
        source: RandomSource,
        window_size: int = DEFAULT_WINDOW_SIZE,
    ):
        super().__init__(name, program, memory, source)
        if window_size < 1:
            raise SimulationError(f"window size must be >= 1, got {window_size}")
        self._window_size = window_size
        self._issued = [False] * len(program)
        self._register_ready: dict[str, bool] = {
            register: True for register in program.registers()
        }
        # A register written by a not-yet-issued op is "owned" by that op.
        self._writer: dict[str, list[int]] = {}
        for index, operation in enumerate(program.operations):
            for register in operation.writes():
                self._writer.setdefault(register, []).append(index)

    @property
    def retired(self) -> bool:
        return all(self._issued)

    @property
    def pc(self) -> int:
        for index, issued in enumerate(self._issued):
            if not issued:
                return index
        return len(self.program)

    def _ready(self, index: int) -> bool:
        operation = self.program.operations[index]
        older_unissued = [
            i for i in range(index) if not self._issued[i]
        ]
        if operation.is_fence or operation.is_atomic:
            return not older_unissued
        for i in older_unissued:
            older = self.program.operations[i]
            if older.is_fence or older.is_atomic:
                return False
            if (
                operation.address is not None
                and older.address is not None
                and older.address == operation.address
            ):
                return False
        # True register dependencies: every read must come from an issued
        # writer.  Anti/output dependencies (WAR/WAW) are also enforced —
        # the core has no register renaming, so reusing an architectural
        # register serialises around it.
        for register in operation.reads():
            writers = [i for i in self._writer.get(register, []) if i < index]
            if writers and not self._issued[max(writers)]:
                return False
        for register in operation.writes():
            for i in older_unissued:
                older = self.program.operations[i]
                if register in older.reads() or register in older.writes():
                    return False
        return True

    def step(self, cycle: int) -> None:
        if self.retired:
            return
        window_start = self.pc
        window = [
            index
            for index in range(window_start, min(window_start + self._window_size, len(self.program)))
            if not self._issued[index]
        ]
        ready = [index for index in window if self._ready(index)]
        if not ready:  # pragma: no cover - straight-line code always has index 0 ready
            return
        index = ready[self.source.uniform_int(0, len(ready) - 1)]
        operation = self.program.operations[index]
        if isinstance(operation, Load):
            self.registers[operation.dst] = self.memory.read(operation.location, cycle, self.name)
        elif isinstance(operation, Store):
            self.memory.commit(operation.location, self._store_value(operation), cycle, self.name)
        elif isinstance(operation, FetchAdd):
            self._execute_atomic(operation, cycle)
        elif isinstance(operation, Fence):
            pass
        else:
            self._execute_local(operation)
        self._issued[index] = True


#: Registry mapping memory-model names to core classes.
CORE_KINDS: dict[str, type[Core]] = {
    "SC": SCCore,
    "TSO": TSOCore,
    "PSO": PSOCore,
    "WO": WOCore,
}


def make_core(
    model_name: str,
    name: str,
    program: ThreadProgram,
    memory: SharedMemory,
    source: RandomSource,
    **options,
) -> Core:
    """Instantiate the core class implementing ``model_name``."""
    return _core_kind(model_name)(name, program, memory, source, **options)


def _core_kind(model_name: str) -> type[Core]:
    """The core class implementing ``model_name`` (``SimulationError`` if none)."""
    try:
        return CORE_KINDS[model_name.upper()]
    except KeyError:
        known = ", ".join(sorted(CORE_KINDS))
        raise SimulationError(f"no core model named {model_name!r}; known: {known}") from None
