"""Exhaustive litmus-test enumeration under a relaxation-based semantics.

The paper characterises a memory model purely by which ordered pairs of
memory-operation types may reorder (Table 1), ignoring store atomicity
(§2.1).  Under that semantics, the executions of a multi-threaded
straight-line program are exactly:

1. choose, per thread, a *legal reordering* of its operations — a
   permutation whose every inverted pair ``(i, j)`` (i before j in program
   order, j before i after) satisfies: the model relaxes
   ``(type_i, type_j)``, the operations touch different addresses, there
   is no register dependency between them, and neither is (or crosses) a
   fence;
2. interleave the reordered threads arbitrarily over an atomic shared
   memory.

A permutation with only swappable inversions is always reachable by
adjacent swaps of inverted pairs (bubble-sort argument), so pairwise
inversion-legality coincides with the settling process's reachability.
By the same argument, choosing the reordering step by step — run any
operation that no earlier pending one of its thread blocks — gives the
same executions, which is how :mod:`repro.litmus.core` walks them: one
search over one memo, not one search per product of reorderings.

For the classic 2–4 thread, 2–3 operation litmus shapes this enumeration
is tiny, and it yields the *exact* set of reachable outcomes per model —
experiment E11's ground truth.
"""

from __future__ import annotations

from ..core.memory_models import MemoryModel
from ..sim.isa import Operation, ThreadProgram
from .core import Machine, Outcome, blocker_masks, legal_orders

__all__ = ["Outcome", "legal_reorderings", "enumerate_outcomes"]


def legal_reorderings(
    program: ThreadProgram, model: MemoryModel
) -> list[tuple[Operation, ...]]:
    """All model-legal orderings of one thread's operations.

    The identity order is always legal; SC yields exactly one ordering.
    Orders come lexicographically, from the same blocker masks that the
    step semantics of :mod:`repro.litmus.core` enables operations by.
    """
    operations = program.operations
    return [tuple(operations[index] for index in order)
            for order in legal_orders(blocker_masks(operations, model))]


def enumerate_outcomes(
    programs: list[ThreadProgram],
    model: MemoryModel,
    initial_memory: dict[str, int] | None = None,
    observed_locations: tuple[str, ...] = (),
) -> set[Outcome]:
    """The exact reachable-outcome set of a litmus test under ``model``.

    Stores are atomic or not as ``model.atomicity`` says (the zoo's
    ``SC-NMCA`` and ``WO-NMCA`` are non-atomic); under non-atomic stores
    a test that observes memory raises :class:`~repro.errors.LitmusError`.
    """
    return Machine(programs, model, initial_memory, observed_locations).reachable()
