"""Non-atomic stores: the axis the paper deliberately scopes out (§2.1).

The paper cites Arvind–Maessen's decomposition *"memory model =
instruction reordering + store atomicity"* and analyses only the
reordering half, calling atomicity "tangential to our present analysis".
This module builds the other half so that the scoping decision can be
*checked* rather than assumed:

* stores become visible to other threads **asynchronously** — each
  (writer, reader) pair has a FIFO propagation channel, and a reader's
  view applies a writer's stores in issue order but interleaves different
  writers' stores arbitrarily (the weakest, non-coherent-across-writers
  form of non-atomicity);
* the writer sees its own stores immediately (store forwarding);
* :func:`enumerate_outcomes_non_atomic` exhaustively interleaves
  instruction execution with propagation events, per-thread reorderings
  included, and returns the exact reachable register outcomes — the
  non-atomic flavor of the one step semantics in
  :mod:`repro.litmus.core`.

The atomicity bench (E15) shows the orthogonality concretely: under
**SC ordering with non-atomic stores**, store buffering (SB) and IRIW
relaxed outcomes become reachable with *zero* instruction reordering,
while per-writer FIFO keeps CoRR forbidden.  Non-atomicity is thus an
independent source of the same class of risk — consistent with the
paper's choice to study reordering in isolation.
"""

from __future__ import annotations

from ..core.memory_models import MemoryModel
from ..sim.isa import ThreadProgram
from .core import Machine, Outcome

__all__ = ["enumerate_outcomes_non_atomic"]


def enumerate_outcomes_non_atomic(
    programs: list[ThreadProgram],
    model: MemoryModel,
    initial_memory: dict[str, int] | None = None,
) -> set[Outcome]:
    """Reachable register outcomes with non-atomic stores.

    Combines the model's legal per-thread reorderings (as in the atomic
    enumerator) with asynchronous store propagation: at every state any
    thread may run an enabled operation — a full fence only once the
    thread's outgoing channels are drained, i.e. its earlier stores have
    propagated everywhere — or any non-empty channel may deliver its
    oldest store to its reader's view.  Final *memory* is ill-defined
    without a global coherence order, so only register outcomes are
    supported; pass litmus tests that observe registers.
    """
    return Machine(programs, model, initial_memory, atomic=False).reachable()
