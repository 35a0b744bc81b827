"""Memory consistency models as relaxation sets — the algebra behind Table 1.

The paper characterises each memory model by *which ordered pairs of
instruction types may reorder* (§2.1, Table 1).  A pair ``(earlier, later)``
being *relaxed* means an instruction of type ``later`` may settle past (swap
above) a preceding instruction of type ``earlier``:

====================  =====  =====  =====  =====
Model                 ST/ST  ST/LD  LD/ST  LD/LD
====================  =====  =====  =====  =====
Sequential Consistency  –      –      –      –
Total Store Order       –      ✓      –      –
Partial Store Order     ✓      ✓      –      –
Weak Ordering           ✓      ✓      ✓      ✓
====================  =====  =====  =====  =====

where the column ``ST/LD`` is the pair ``(earlier=ST, later=LD)``.

A :class:`MemoryModel` couples the relaxation set with the *settle
probabilities* of the reordering process (§3.1.2): an allowed swap succeeds
with probability ``s`` (the paper's normal form sets every allowed pair to
``s = 1/2``; footnote 3 permits distinct ``s_{τ1,τ2}`` per pair, which this
class supports directly).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping

from ..errors import ModelDefinitionError
from .instructions import LD, ST, InstructionType

__all__ = [
    "OrderedPair",
    "MemoryModel",
    "SC",
    "TSO",
    "PSO",
    "WO",
    "PAPER_MODELS",
    "ALL_PAIRS",
    "ATOMICITY_FLAVORS",
    "DEFAULT_SETTLE_PROBABILITY",
    "get_model",
    "model_digest",
    "table1_rows",
]

#: An ordered pair ``(earlier, later)`` of instruction types.
OrderedPair = tuple[InstructionType, InstructionType]

#: All four ordered pairs, in the paper's Table 1 column order.
ALL_PAIRS: tuple[OrderedPair, ...] = ((ST, ST), (ST, LD), (LD, ST), (LD, LD))

#: The paper's ``s``: success probability of one allowed swap.
DEFAULT_SETTLE_PROBABILITY = 0.5

#: Store-atomicity flavors a model may declare (§2.1's orthogonal axis).
ATOMICITY_FLAVORS = ("atomic", "non_atomic")


def _pair_name(pair: OrderedPair) -> str:
    return f"{pair[0].mnemonic}/{pair[1].mnemonic}"


class MemoryModel:
    """A memory consistency model in the sense of the paper's Table 1.

    Parameters
    ----------
    name:
        Human-readable name, also the registry key (e.g. ``"TSO"``).
    relaxed_pairs:
        The ordered pairs ``(earlier, later)`` whose program-order
        constraint the model relaxes.
    settle_probability:
        Either a single ``s`` applied to every relaxed pair (the paper's
        strong normal form) or a mapping from relaxed pair to its own
        ``s_{τ1,τ2}`` (footnote 3).  Pairs not relaxed always have
        probability 0.
    description:
        Optional prose shown in reports.
    atomicity:
        The store-atomicity flavor: ``"atomic"`` (multi-copy-atomic shared
        memory, the paper's scoping assumption) or ``"non_atomic"``
        (per-writer FIFO propagation; the litmus step semantics of
        :mod:`repro.litmus.core` reads it).  Orthogonal to the relaxation
        set.

    Instances are immutable and hashable; the four paper models are module
    constants (:data:`SC`, :data:`TSO`, :data:`PSO`, :data:`WO`).
    """

    def __init__(
        self,
        name: str,
        relaxed_pairs: Iterable[OrderedPair],
        settle_probability: float | Mapping[OrderedPair, float] = DEFAULT_SETTLE_PROBABILITY,
        description: str = "",
        atomicity: str = "atomic",
    ):
        if not name:
            raise ModelDefinitionError("model name must be non-empty")
        if atomicity not in ATOMICITY_FLAVORS:
            raise ModelDefinitionError(
                f"unknown atomicity flavor {atomicity!r}; "
                f"known: {', '.join(ATOMICITY_FLAVORS)}"
            )
        relaxed = frozenset(relaxed_pairs)
        unknown = relaxed - set(ALL_PAIRS)
        if unknown:
            raise ModelDefinitionError(f"unknown instruction-type pairs: {sorted(map(str, unknown))}")

        probabilities: dict[OrderedPair, float] = {}
        if isinstance(settle_probability, Mapping):
            extra = set(settle_probability) - relaxed
            if extra:
                raise ModelDefinitionError(
                    f"settle probabilities given for non-relaxed pairs: "
                    f"{sorted(_pair_name(p) for p in extra)}"
                )
            for pair in relaxed:
                probabilities[pair] = float(settle_probability.get(pair, DEFAULT_SETTLE_PROBABILITY))
        else:
            for pair in relaxed:
                probabilities[pair] = float(settle_probability)
        for pair, probability in probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise ModelDefinitionError(
                    f"settle probability for {_pair_name(pair)} must be in [0, 1], "
                    f"got {probability}"
                )

        self._name = name
        self._relaxed = relaxed
        self._probabilities = probabilities
        self._description = description
        # Stored only when non-default: the __dict__-derived state (pickle,
        # the kernel-fingerprint canonical form) of every pre-existing
        # atomic model must stay byte-identical, or adding the flavor would
        # orphan all estimators' v2 plan keys and cache entries.
        if atomicity != "atomic":
            self._atomicity = atomicity

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def description(self) -> str:
        return self._description

    @property
    def relaxed_pairs(self) -> frozenset[OrderedPair]:
        """The set of ordered pairs this model allows to reorder."""
        return self._relaxed

    @property
    def atomicity(self) -> str:
        """The store-atomicity flavor (``"atomic"`` or ``"non_atomic"``)."""
        return getattr(self, "_atomicity", "atomic")

    def relaxes(self, earlier: InstructionType, later: InstructionType) -> bool:
        """Whether a ``later`` may settle past a preceding ``earlier``."""
        return (earlier, later) in self._relaxed

    def settle_probability(self, earlier: InstructionType, later: InstructionType) -> float:
        """The swap-success probability ``ρ_{τ1,τ2}`` of Appendix A.2.

        Zero for non-relaxed pairs; the configured ``s`` otherwise.
        """
        return self._probabilities.get((earlier, later), 0.0)

    @property
    def uniform_settle_probability(self) -> float | None:
        """The single ``s`` if all relaxed pairs share one; else ``None``.

        The paper's closed forms assume the strong normal form (uniform
        ``s``); the analytic modules consult this to decide whether their
        formulas apply.
        """
        values = set(self._probabilities.values())
        if not values:
            return None
        if len(values) == 1:
            return values.pop()
        return None

    # ------------------------------------------------------------------
    # Strictness ordering
    # ------------------------------------------------------------------

    def is_at_least_as_strong_as(self, other: "MemoryModel") -> bool:
        """Partial order on models: fewer relaxations = stronger.

        ``SC ≥ TSO ≥ PSO ≥ WO`` in this order; incomparable models exist
        (any two incomparable relaxation sets).
        """
        return self._relaxed <= other._relaxed

    # ------------------------------------------------------------------

    def table1_row(self) -> dict[str, bool]:
        """This model's Table 1 row: column name → relaxed?"""
        return {_pair_name(pair): pair in self._relaxed for pair in ALL_PAIRS}

    def with_settle_probability(
        self, settle_probability: float | Mapping[OrderedPair, float]
    ) -> "MemoryModel":
        """A copy of this model with different swap probabilities."""
        return MemoryModel(
            self._name, self._relaxed, settle_probability,
            self._description, self.atomicity,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryModel):
            return NotImplemented
        return (
            self._name == other._name
            and self._relaxed == other._relaxed
            and self._probabilities == other._probabilities
            and self.atomicity == other.atomicity
        )

    def __hash__(self) -> int:
        items = sorted(self._probabilities.items(), key=repr)
        return hash((self._name, self._relaxed, tuple(items), self.atomicity))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(sorted(_pair_name(pair) for pair in self._relaxed))
        return f"MemoryModel({self._name!r}, relaxes=[{pairs}])"

    def __str__(self) -> str:
        return self._name


# ----------------------------------------------------------------------
# The paper's models (Table 1)
# ----------------------------------------------------------------------

SC = MemoryModel(
    "SC",
    relaxed_pairs=(),
    description="Sequential Consistency (Lamport): no reordering at all.",
)

TSO = MemoryModel(
    "TSO",
    relaxed_pairs=[(ST, LD)],
    description=(
        "Total Store Order (SPARC/x86-like): loads may complete before "
        "preceding stores; all other orders preserved."
    ),
)

PSO = MemoryModel(
    "PSO",
    relaxed_pairs=[(ST, LD), (ST, ST)],
    description=(
        "Partial Store Order (SPARC): additionally lets stores to distinct "
        "locations reorder with each other."
    ),
)

WO = MemoryModel(
    "WO",
    relaxed_pairs=list(ALL_PAIRS),
    description=(
        "Weak Ordering (Dubois et al. / POWER-like): any two operations on "
        "distinct locations may reorder."
    ),
)

#: The models the paper analyses or mentions, strongest first.
PAPER_MODELS: tuple[MemoryModel, ...] = (SC, TSO, PSO, WO)

_REGISTRY = {model.name: model for model in PAPER_MODELS}


def get_model(name: str) -> MemoryModel:
    """Look up one of the paper's models by name (case-insensitive).

    Accepts the short names (``"SC"``) and a few common long spellings.
    """
    key = name.strip().upper().replace(" ", "_")
    aliases = {
        "SEQUENTIAL_CONSISTENCY": "SC",
        "TOTAL_STORE_ORDER": "TSO",
        "PARTIAL_STORE_ORDER": "PSO",
        "WEAK_ORDERING": "WO",
    }
    key = aliases.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelDefinitionError(f"unknown memory model {name!r}; known: {known}") from None


def model_digest(model: MemoryModel) -> str:
    """A stable hex digest of a model's *semantics*, name excluded.

    Covers, in Table 1 column order, each pair's relaxed flag and settle
    probability, plus the store-atomicity flavor — everything that can
    change what outcomes a litmus test reaches under the model.  The
    registry name and prose description deliberately stay out (the same
    rename-invariance as :func:`repro.litmus.explore.program_digest`):
    two models that relax the same pairs with the same probabilities and
    atomicity are the same model, whatever they are called — and two
    models that happen to share a name are *not*.
    """
    parts = []
    for pair in ALL_PAIRS:
        relaxed = pair in model.relaxed_pairs
        probability = model.settle_probability(*pair)
        parts.append(f"{_pair_name(pair)}={int(relaxed)}:{probability!r}")
    blob = "|".join(parts) + f"|atomicity:{model.atomicity}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def table1_rows(models: Iterable[MemoryModel] = PAPER_MODELS) -> list[dict[str, object]]:
    """Reproduce Table 1 as a list of row dicts (for the bench harness)."""
    rows = []
    for model in models:
        row: dict[str, object] = {"Name": model.name}
        row.update(model.table1_row())
        rows.append(row)
    return rows
