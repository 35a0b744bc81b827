"""Constrained random litmus-program families, seed-disciplined.

The paper analyses one canonical racy program; this module generalises
to *families*: :func:`generate_family` draws litmus tests from a
declarative :class:`FamilySpec` (thread count, memory operations per
thread, filler address pool, critical-pair spacing, fence placement
density), and :func:`sweep_family` re-estimates Thm 6.2/6.3-style
manifestation brackets for every family member against every model of
the zoo.

Every family member embeds a **critical cycle**: thread ``k`` stores 1
to its own flag and, exactly ``spacing`` filler operations later, loads
the *next* thread's flag — the ``threads``-way generalisation of store
buffering (SB).  The all-zero outcome of the critical loads is the
test's relaxed outcome: forbidden under SC (some store precedes the
last load in any interleaving), reachable once ST→LD reorders.  Filler
loads and stores draw from a disjoint address pool, so they perturb the
reordering space without touching the cycle's semantics; fences are
inserted between consecutive operations with probability
``fence_density``.

Generation is **seed-disciplined and worker-independent**: member ``i``
of family ``seed`` is a pure function of ``(spec, seed, i)``, drawn
from a dedicated Philox lane
(:class:`~repro.stats.rng.PhiloxSource` at path ``(GENERATOR_LANE,
i)``) — no generation state threads between members, so a family point
is exactly as cacheable and shardable as any other plan, and the same
``(spec, seed)`` yields bit-identical programs at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

from ..core.memory_models import MemoryModel, model_digest
from ..errors import LitmusError
from ..runconfig import RunConfig
from ..sim.isa import Fence, Load, Operation, Store, ThreadProgram
from ..stats.faults import pool_scope
from ..stats.intervals import wilson_interval
from ..stats.rng import PhiloxSource
from .enumerator import enumerate_outcomes
from .explore import explore_random, program_digest
from .tests import LitmusTest
from .zoo import ZOO_MODELS, get_zoo_model

__all__ = [
    "GENERATOR_LANE",
    "FamilySpec",
    "FamilySweepReport",
    "family_digests",
    "family_member",
    "generate_family",
    "sweep_family",
]

#: The Philox counter lane reserved for program generation.  Trial
#: streams are PCG64 shards spawned from the seed, a different generator
#: altogether, so generated programs never correlate with them.
GENERATOR_LANE = 0x4C49544D  # "LITM"

#: Small value pool for filler stores (0 is the implicit initial value).
_FILLER_VALUES = (1, 2, 3)


@dataclass(frozen=True)
class FamilySpec:
    """Declarative knobs of one program family.

    ``ops_per_thread`` counts *memory* operations (fences ride on top);
    each thread spends two of them on its critical store/load pair,
    separated by exactly ``spacing`` fillers, with the rest of the
    fillers placed around the pair.  Fillers draw addresses from a pool
    of ``addresses`` locations disjoint from the critical flags and are
    stores with probability ``store_fraction``.
    """

    threads: int = 2
    ops_per_thread: int = 4
    addresses: int = 2
    spacing: int = 0
    fence_density: float = 0.0
    store_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.threads < 2:
            raise LitmusError(
                f"a family needs at least 2 threads, got {self.threads}")
        if self.spacing < 0:
            raise LitmusError(f"spacing must be >= 0, got {self.spacing}")
        if self.ops_per_thread < self.spacing + 2:
            raise LitmusError(
                f"ops_per_thread must fit the critical pair plus spacing "
                f"(>= {self.spacing + 2}), got {self.ops_per_thread}")
        if self.addresses < 1:
            raise LitmusError(
                f"the filler address pool needs >= 1 location, "
                f"got {self.addresses}")
        for knob in ("fence_density", "store_fraction"):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise LitmusError(
                    f"{knob} must be in [0, 1], got {value}")

    def label(self) -> str:
        """A compact, deterministic spec tag used in member names."""
        return (f"t{self.threads}o{self.ops_per_thread}a{self.addresses}"
                f"s{self.spacing}f{round(self.fence_density * 100)}"
                f"w{round(self.store_fraction * 100)}")

    def to_json_dict(self) -> dict[str, object]:
        return {field.name: getattr(self, field.name)
                for field in fields(self)}


def _member_source(seed: int | None, index: int) -> PhiloxSource:
    return PhiloxSource(0 if seed is None else seed,
                        (GENERATOR_LANE, index))


def _generate_thread(
    spec: FamilySpec, source: PhiloxSource, thread: int
) -> ThreadProgram:
    """One thread's program: the critical pair plus placed fillers."""
    fillers = spec.ops_per_thread - 2 - spec.spacing
    # Position of the critical store among the memory operations.
    prefix = source.uniform_int(0, fillers) if fillers else 0
    operations: list[Operation] = []
    register = 0

    def filler() -> Operation:
        nonlocal register
        location = f"f{source.uniform_int(0, spec.addresses - 1)}"
        if source.generator.random() < spec.store_fraction:
            value = _FILLER_VALUES[
                source.uniform_int(0, len(_FILLER_VALUES) - 1)]
            return Store(location, value=value)
        register += 1
        return Load(f"r{register}", location)

    for _ in range(prefix):
        operations.append(filler())
    operations.append(Store(f"flag{thread}", value=1))
    for _ in range(spec.spacing):
        operations.append(filler())
    operations.append(Load("rc", f"flag{(thread + 1) % spec.threads}"))
    for _ in range(fillers - prefix):
        operations.append(filler())

    if spec.fence_density > 0.0:
        fenced: list[Operation] = []
        for position, operation in enumerate(operations):
            if position and source.generator.random() < spec.fence_density:
                fenced.append(Fence())
            fenced.append(operation)
        operations = fenced
    return ThreadProgram(f"T{thread}", tuple(operations))


def family_member(
    spec: FamilySpec, seed: int | None, index: int
) -> LitmusTest:
    """Member ``index`` of the family — a pure function of its arguments.

    The relaxed outcome is the all-zero reading of the critical loads
    (every thread misses its successor's flag), the SB pattern's
    signature; ``allowed`` stays empty (families carry no literature
    expectations — the exploration engine *computes* reachability) and
    no memory locations are observed, so every zoo model, non-atomic
    flavors included, can run every member.
    """
    source = _member_source(seed, index)
    programs = tuple(
        _generate_thread(spec, source, thread)
        for thread in range(spec.threads)
    )
    relaxed = tuple(sorted(
        (f"T{thread}:rc", 0) for thread in range(spec.threads)))
    return LitmusTest(
        name=f"fam-{spec.label()}-s{0 if seed is None else seed}-{index}",
        description=(
            f"Generated family member {index} (seed "
            f"{0 if seed is None else seed}) of spec {spec.label()}: "
            f"{spec.threads}-thread SB-style critical cycle with "
            f"{spec.ops_per_thread} memory ops/thread."),
        programs=programs,
        relaxed_outcome=relaxed,
        allowed={},
    )


def generate_family(
    spec: FamilySpec, count: int, seed: int | None = 0
) -> tuple[LitmusTest, ...]:
    """``count`` family members, independently addressed by index."""
    if count < 1:
        raise LitmusError(f"a family needs >= 1 member, got {count}")
    return tuple(family_member(spec, seed, index) for index in range(count))


# ----------------------------------------------------------------------
# Family sweeps: manifestation brackets over members × the zoo
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyPoint:
    """One (member, model) sweep point: the manifestation bracket.

    ``manifestation`` is the empirical probability that a sampled
    execution lands **outside** the member's SC outcome set — the
    family analogue of the paper's Pr[A] — with a Wilson score bracket
    at the sweep's confidence.
    """

    test: str
    member: int
    model: str
    model_digest: str
    trials: int
    weak_outcomes: int
    manifestation: float
    low: float
    high: float
    support: int
    sc_support: int

    def to_json_dict(self) -> dict[str, object]:
        return {
            "test": self.test,
            "member": self.member,
            "model": self.model,
            "model_digest": self.model_digest,
            "trials": self.trials,
            "weak_outcomes": self.weak_outcomes,
            "manifestation": self.manifestation,
            "low": self.low,
            "high": self.high,
            "support": self.support,
            "sc_support": self.sc_support,
        }


@dataclass(frozen=True)
class FamilySweepReport:
    """A full family sweep: members × models manifestation table."""

    spec: FamilySpec
    seed: int | None
    trials: int
    confidence: float
    points: tuple[FamilyPoint, ...]

    def rows(self) -> list[dict[str, object]]:
        """Table-ready rows (deterministic order: member, then model)."""
        return [
            {
                "member": point.member,
                "model": point.model,
                "manifestation": round(point.manifestation, 6),
                "low": round(point.low, 6),
                "high": round(point.high, 6),
                "support": point.support,
            }
            for point in self.points
        ]

    def point(self, member: int, model: str) -> FamilyPoint:
        for candidate in self.points:
            if candidate.member == member and candidate.model == model:
                return candidate
        raise KeyError(f"no sweep point ({member!r}, {model!r})")

    def to_json_dict(self) -> dict[str, object]:
        """A deterministic JSON view (insensitive to cache state)."""
        return {
            "spec": self.spec.to_json_dict(),
            "seed": self.seed,
            "trials": self.trials,
            "confidence": self.confidence,
            "points": [point.to_json_dict() for point in self.points],
        }


def sweep_family(
    spec: FamilySpec,
    models: Iterable[MemoryModel | str] | None = None,
    *,
    count: int = 4,
    trials: int = 10_000,
    seed: int | None = 0,
    confidence: float = 0.99,
    config: RunConfig | None = None,
) -> FamilySweepReport:
    """Estimate manifestation brackets over ``members × models``.

    For each generated member, the SC outcome set is enumerated exactly
    (the paper's store-atomic baseline); each model's sampled frequency
    table (:func:`~repro.litmus.explore.explore_random`, riding the full
    engine: sharding, caching, checkpoints, manifests) is then split
    into SC-consistent and weak mass, and the weak fraction gets a
    Wilson bracket.  Results are bit-identical for fixed
    ``(spec, seed, count, trials, shards)`` at any worker count and over
    any transport — generation is counter-addressed and sampling
    seed-disciplined.  The points share one process pool
    (:func:`~repro.stats.faults.pool_scope`).
    """
    if models is None:
        resolved = list(ZOO_MODELS)
    else:
        resolved = [get_zoo_model(model) if isinstance(model, str) else model
                    for model in models]
    if not resolved:
        raise LitmusError("a family sweep needs at least one model")
    tests = generate_family(spec, count, seed)

    points = []
    with pool_scope():
        for index, test in enumerate(tests):
            sc_outcomes = frozenset(enumerate_outcomes(
                list(test.programs), get_zoo_model("SC"),
                dict(test.initial_memory), test.observed_locations,
            ))
            for model in resolved:
                frequencies = explore_random(
                    test, model, trials, seed=seed, config=config)
                weak = sum(count_ for outcome, count_ in frequencies.counts
                           if outcome not in sc_outcomes)
                bracket = wilson_interval(weak, trials, confidence=confidence)
                points.append(FamilyPoint(
                    test=test.name,
                    member=index,
                    model=model.name,
                    model_digest=model_digest(model),
                    trials=trials,
                    weak_outcomes=weak,
                    manifestation=weak / trials,
                    low=bracket.low,
                    high=bracket.high,
                    support=len(frequencies.support),
                    sc_support=len(sc_outcomes),
                ))
    return FamilySweepReport(
        spec=spec, seed=seed, trials=trials, confidence=confidence,
        points=tuple(points),
    )


def family_digests(tests: Iterable[LitmusTest]) -> list[str]:
    """The program digests of a generated family, in member order.

    Convenience for bit-identity checks: equal specs and seeds must
    yield equal digest lists whatever process generated them.
    """
    return [program_digest(test) for test in tests]
