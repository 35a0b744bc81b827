"""The memory-model zoo: models beyond the paper's Table 1 four.

The paper's algebra (a :class:`~repro.core.memory_models.MemoryModel` is
a relaxation set over the four ordered LD/ST pairs) covers far more than
SC/TSO/PSO/WO, and the one step semantics (:mod:`repro.litmus.core`),
with atomic or non-atomic stores as the model's ``atomicity`` says,
covers more than the algebra alone.
This module collects the extra inhabitants:

* :data:`PSO_WB` — PSO stated *operationally*, dejafu-style: one FIFO
  write buffer **per location** per thread.  Buffering a store past
  later operations yields exactly the ST→LD and ST→ST relaxations, so
  the algebraic digest is PSO's, cached outcome sets are shared, and
  the core runs it as PSO.  The operational write-buffer executor lives
  in the test suite as an oracle, asserted equal to algebraic PSO.
* :data:`SC_NMCA` / :data:`WO_NMCA` — non-multicopy-atomic (ARM/POWER
  flavored) models: SC or WO ordering composed with asynchronous
  per-(writer, reader) store propagation.  Their ``atomicity`` flavor
  is ``"non_atomic"``, which the one step semantics
  (:class:`~repro.litmus.core.Machine`) reads, so
  :func:`~repro.litmus.enumerator.enumerate_outcomes` and both
  exploration modes run them like any other model.

Non-atomic stores are the axis the paper deliberately scopes out
(§2.1): it cites Arvind–Maessen's decomposition *"memory model =
instruction reordering + store atomicity"* and analyses only the
reordering half, calling atomicity "tangential to our present
analysis".  The non-atomic flavor builds the other half so that the
scoping decision can be *checked* rather than assumed:

* stores become visible to other threads **asynchronously** — each
  (writer, reader) pair has a FIFO propagation channel, and a reader's
  view applies a writer's stores in issue order but interleaves
  different writers' stores arbitrarily (the weakest,
  non-coherent-across-writers form of non-atomicity);
* the writer sees its own stores immediately (store forwarding);
* a full fence waits until the thread's outgoing channels are drained,
  i.e. its earlier stores have propagated everywhere;
* final *memory* is ill-defined without a global coherence order, so
  only tests that observe registers run under such a model.

The atomicity bench (E15, ``benchmarks/bench_store_atomicity.py``)
shows the orthogonality concretely: under **SC ordering with
non-atomic stores** (:data:`SC_NMCA`), store buffering (SB) and IRIW
relaxed outcomes become reachable with *zero* instruction reordering,
while per-writer FIFO keeps CoRR forbidden.  Non-atomicity is thus an
independent source of the same class of risk — consistent with the
paper's choice to study reordering in isolation.

:func:`get_zoo_model` resolves zoo names and falls back to the paper
registry, so every CLI/service surface that accepts ``"TSO"`` accepts
``"PSO-WB"`` too.
"""

from __future__ import annotations

from ..core.memory_models import (
    ALL_PAIRS,
    LD,
    PAPER_MODELS,
    ST,
    MemoryModel,
    get_model,
)
from ..errors import ModelDefinitionError

__all__ = [
    "PSO_WB",
    "SC_NMCA",
    "WO_NMCA",
    "ZOO_MODELS",
    "get_zoo_model",
]


PSO_WB = MemoryModel(
    "PSO-WB",
    relaxed_pairs=[(ST, LD), (ST, ST)],
    description=(
        "Partial Store Order, operationally: one FIFO write buffer per "
        "location per thread (dejafu's TotalStoreOrder=False). Same "
        "semantics — and same model digest, hence same cache entries — "
        "as the algebraic PSO."
    ),
)

SC_NMCA = MemoryModel(
    "SC-NMCA",
    relaxed_pairs=(),
    description=(
        "SC ordering without multi-copy atomicity: no instruction "
        "reordering, but stores propagate to other threads "
        "asynchronously over per-(writer, reader) FIFO channels."
    ),
    atomicity="non_atomic",
)

WO_NMCA = MemoryModel(
    "WO-NMCA",
    relaxed_pairs=list(ALL_PAIRS),
    description=(
        "Weak Ordering without multi-copy atomicity (ARM/POWER "
        "flavored): full reordering composed with asynchronous store "
        "propagation — the weakest model in the zoo."
    ),
    atomicity="non_atomic",
)

#: The full zoo, strongest first: the paper four plus the extensions.
ZOO_MODELS: tuple[MemoryModel, ...] = PAPER_MODELS + (PSO_WB, SC_NMCA, WO_NMCA)

_ZOO_REGISTRY = {model.name.upper(): model for model in ZOO_MODELS}


def get_zoo_model(name: str) -> MemoryModel:
    """Look up a model by name across the zoo *and* the paper registry.

    Zoo names (``"PSO-WB"``, ``"SC-NMCA"``, ``"WO-NMCA"``) resolve here;
    anything else falls through to
    :func:`~repro.core.memory_models.get_model` with its aliases — so
    this is a strict superset of the registry lookup.
    """
    key = name.strip().upper()
    if key in _ZOO_REGISTRY:
        return _ZOO_REGISTRY[key]
    try:
        return get_model(name)
    except ModelDefinitionError:
        known = ", ".join(sorted(_ZOO_REGISTRY))
        raise ModelDefinitionError(
            f"unknown memory model {name!r}; known: {known}") from None
