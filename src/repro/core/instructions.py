"""The program model of §3.1.1 / Appendix A.1: random LD/ST programs.

A *program* in the paper's sense is a sequence of ``m`` body memory
operations followed by a *critical load* and a *critical store*:

    ``x_1, x_2, ..., x_m, LD X, ST X``

Body instruction ``x_i`` is a store with probability ``p`` (the paper sets
``p = 1/2``) and a load otherwise.  Each body instruction accesses its own
distinct location; only the two critical instructions share a location
(``X``).  The critical pair is lines 1 and 3 of the canonical atomicity
violation of §2.2 (the load and store of the racy read–modify–write); the
purely local line 2 carries no memory operation and is omitted.

This module defines the instruction/program data types and the random
program generator.  The settling process that reorders these programs lives
in :mod:`repro.core.settling`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ProgramError
from ..stats.rng import RandomSource

__all__ = [
    "InstructionType",
    "Instruction",
    "Program",
    "generate_program",
    "program_from_types",
    "DEFAULT_STORE_PROBABILITY",
]

#: The paper's ``p``: probability that a body instruction is a store.
DEFAULT_STORE_PROBABILITY = 0.5


class InstructionType(enum.Enum):
    """The two memory-operation types of the model: loads and stores."""

    LOAD = "LD"
    STORE = "ST"

    @property
    def mnemonic(self) -> str:
        """The two-letter mnemonic the paper uses (``LD`` / ``ST``)."""
        return self.value

    def __str__(self) -> str:
        return self.value


#: Shorthand aliases matching the paper's notation.
LD = InstructionType.LOAD
ST = InstructionType.STORE
__all__ += ["LD", "ST"]


@dataclass(frozen=True)
class Instruction:
    """One memory operation of a model program.

    Attributes
    ----------
    index:
        Position in the *initial* program order (1-based, matching the
        paper's ``x_1 .. x_{m+2}``).
    type:
        Whether the operation is a load or a store.
    location:
        Symbolic memory location.  Body instructions get unique locations
        ``"a<i>"``; the critical pair shares the location ``"X"``.
    is_critical:
        Whether this is the critical load or the critical store.
    """

    index: int
    type: InstructionType
    location: str
    is_critical: bool = False

    @property
    def is_load(self) -> bool:
        return self.type is InstructionType.LOAD

    @property
    def is_store(self) -> bool:
        return self.type is InstructionType.STORE

    def __str__(self) -> str:
        marker = "*" if self.is_critical else ""
        return f"{self.type.mnemonic}{marker}({self.location})"


#: Location shared by the critical load/store pair.
CRITICAL_LOCATION = "X"
__all__.append("CRITICAL_LOCATION")


class Program:
    """An initial program order ``S_0``: body + critical load + critical store.

    Instances are immutable; the settling process produces permutations of
    the index range rather than mutating the program.
    """

    def __init__(self, instructions: list[Instruction]):
        if len(instructions) < 2:
            raise ProgramError("a program needs at least the critical pair")
        critical = [instr for instr in instructions if instr.is_critical]
        if len(critical) != 2:
            raise ProgramError(f"expected exactly 2 critical instructions, found {len(critical)}")
        load, store = instructions[-2], instructions[-1]
        if not (load.is_critical and store.is_critical):
            raise ProgramError("the critical pair must be the final two instructions")
        if not load.is_load or not store.is_store:
            raise ProgramError("critical pair must be a load followed by a store")
        if load.location != store.location:
            raise ProgramError("critical load and store must share a location")
        body_locations = [instr.location for instr in instructions[:-2]]
        if len(set(body_locations)) != len(body_locations):
            raise ProgramError("body instructions must access distinct locations")
        if load.location in body_locations:
            raise ProgramError("body instructions must not touch the critical location")
        expected = list(range(1, len(instructions) + 1))
        if [instr.index for instr in instructions] != expected:
            raise ProgramError("instruction indices must be 1..m+2 in order")
        self._instructions = tuple(instructions)

    # ------------------------------------------------------------------

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return self._instructions

    @property
    def body_length(self) -> int:
        """The paper's ``m``: number of non-critical instructions."""
        return len(self._instructions) - 2

    @property
    def length(self) -> int:
        """Total instruction count ``m + 2``."""
        return len(self._instructions)

    @property
    def critical_load(self) -> Instruction:
        """``x_{m+1}``, the critical load."""
        return self._instructions[-2]

    @property
    def critical_store(self) -> Instruction:
        """``x_{m+2}``, the critical store."""
        return self._instructions[-1]

    def instruction(self, index: int) -> Instruction:
        """Look up an instruction by its 1-based initial-order index."""
        if not 1 <= index <= self.length:
            raise ProgramError(f"index {index} outside 1..{self.length}")
        return self._instructions[index - 1]

    def type_of(self, index: int) -> InstructionType:
        return self.instruction(index).type

    def types(self) -> list[InstructionType]:
        """Instruction types in initial program order."""
        return [instr.type for instr in self._instructions]

    def body_store_mask(self) -> np.ndarray:
        """Boolean array over the body: ``True`` marks stores.

        Vectorised consumers (the fast settling paths) work on this mask
        rather than on :class:`Instruction` objects.
        """
        return np.array([instr.is_store for instr in self._instructions[:-2]], dtype=bool)

    def store_count(self) -> int:
        """Number of stores in the body."""
        return int(self.body_store_mask().sum())

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self._instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._instructions == other._instructions

    def __hash__(self) -> int:
        return hash(self._instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Program(m={self.body_length})"

    def __str__(self) -> str:
        return " ".join(str(instr) for instr in self._instructions)


def program_from_types(body_types: list[InstructionType] | str) -> Program:
    """Build a program from explicit body types plus the critical pair.

    ``body_types`` may be a list of :class:`InstructionType` or a compact
    string of ``'L'``/``'S'`` characters, which is convenient in tests:

    >>> program_from_types("SSL").body_length
    3
    """
    if isinstance(body_types, str):
        mapping = {"L": InstructionType.LOAD, "S": InstructionType.STORE}
        try:
            body_types = [mapping[ch] for ch in body_types.upper()]
        except KeyError as exc:
            raise ProgramError(f"unknown type character {exc.args[0]!r}") from exc
    instructions = [
        Instruction(index=i + 1, type=instruction_type, location=f"a{i + 1}")
        for i, instruction_type in enumerate(body_types)
    ]
    m = len(instructions)
    instructions.append(
        Instruction(index=m + 1, type=InstructionType.LOAD, location=CRITICAL_LOCATION,
                    is_critical=True)
    )
    instructions.append(
        Instruction(index=m + 2, type=InstructionType.STORE, location=CRITICAL_LOCATION,
                    is_critical=True)
    )
    return Program(instructions)


def generate_program(
    body_length: int,
    source: RandomSource,
    store_probability: float = DEFAULT_STORE_PROBABILITY,
) -> Program:
    """Sample an initial program order per §3.1.1.

    Parameters
    ----------
    body_length:
        The paper's ``m``.  The analysis takes ``m → ∞``; in simulation a
        few hundred suffices because instruction movement under settling is
        geometrically bounded (see :mod:`repro.core.settling`).
    source:
        Randomness stream.
    store_probability:
        The paper's ``p`` (default 1/2).
    """
    _check_program_parameters(body_length, store_probability)
    store_mask = source.type_array(store_probability, body_length)
    body = [InstructionType.STORE if is_store else InstructionType.LOAD for is_store in store_mask]
    return program_from_types(body)


def _check_program_parameters(
    body_length: int,
    store_probability: float = DEFAULT_STORE_PROBABILITY,
) -> None:
    """Raise :class:`ProgramError` unless §3.1.1 can generate such programs.

    :func:`generate_program` checks its arguments here, and so does every
    driver that draws programs another way (type vectors, growth
    matrices), before it plans a shard: a bad argument must fail at the
    call on every kernel, not return a number on some.
    """
    if body_length < 0:
        raise ProgramError(f"body_length must be non-negative, got {body_length}")
    if not 0.0 <= store_probability <= 1.0:
        raise ProgramError(f"store_probability must be in [0, 1], got {store_probability}")
