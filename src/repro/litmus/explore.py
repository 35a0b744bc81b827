"""Sharded, cached litmus exploration — exhaustive and pseudorandom.

The enumerator (:mod:`repro.litmus.enumerator`) computes the *exact*
reachable-outcome set of a litmus test under one memory model.  This
module turns that primitive into an engine-grade workload:

**Exhaustive mode** (:func:`explore_exhaustive`) fans the full
``tests × models`` grid over :func:`~repro.stats.parallel.parallel_map`
and content-addresses each grid point's outcome set in the shard cache
(:mod:`repro.cache`).  The entry key (:func:`explore_entry_key`) folds
the *program digest* (thread names, operations, initial memory, observed
locations), the *model digest*
(:func:`~repro.core.memory_models.model_digest`: relaxation set, settle
probabilities, atomicity flavor — **not** the name), and the *enumerator
fingerprint* (the compiled code of the enumeration pipeline, v2-style) —
so a cached set can never be served for a different program, model, or
enumerator version, and a warm re-run executes **zero** grid points.
Models travel to worker processes **by value**: an ad-hoc
:class:`~repro.core.memory_models.MemoryModel` explores exactly like a
registry model, and one that *shadows* a registry name (a model called
``"TSO"`` with WO relaxations) neither resolves to the registry model in
workers nor hits its cache entries.

**Pseudorandom mode** (:func:`explore_random`) estimates outcome
frequencies for programs too large to enumerate: each trial draws one
model-legal reordering per thread and one random schedule from the
shard's seed-disciplined stream, executes it with stores as atomic as
the model says, and tallies the final state.  Both modes walk the same step
semantics (:mod:`repro.litmus.core`): the exhaustive mode its
set-valued walk, the pseudorandom mode its sampled walk.  The run rides
:func:`~repro.stats.parallel.run_sharded` unchanged, so frequency tables
are **bit-identical for fixed** ``(seed, shards)`` at any worker count,
and shards checkpoint/cache like any estimation.

A trial picks the next thread with probability proportional to its
remaining operation count, which makes every distinct interleaving of
the chosen per-thread orders exactly equally likely (the product of the
step probabilities telescopes to ``∏ nₖ! / N!`` for every path).

**Convergence cross-check** (:func:`check_convergence`,
:func:`assert_convergence`) relates the two modes: every sampled outcome
must lie inside the enumerated set (escape == a semantics bug, asserted
hard), and coverage of the enumerated set is reported and optionally
required.  The sampler's frequencies themselves are refereed by the
exact outcome law of the sampled walk (``tests/test_litmus_law.py``).

See ``docs/LITMUS.md`` for the workload tour and the cache-key contract.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

from ..core.memory_models import PAPER_MODELS, MemoryModel, model_digest
from ..errors import LitmusError
from ..obs import ShardEvent, observed_run
from ..runconfig import RunConfig
from ..stats.checkpoint import kernel_fingerprint
from ..stats.montecarlo import _estimate
from ..stats.parallel import parallel_map, resolve_workers
from ..stats.rng import RandomSource
from .checker import outcome_to_string
from .core import Machine
from .core import fingerprint as core_fingerprint
from .enumerator import Outcome, enumerate_outcomes
from .tests import ALL_TESTS, LitmusTest, get_test
from .zoo import get_zoo_model

__all__ = [
    "ExhaustiveOutcomes",
    "ExplorationReport",
    "OutcomeFrequencies",
    "ConvergenceReport",
    "program_digest",
    "enumerator_fingerprint",
    "explore_entry_key",
    "explore_exhaustive",
    "explore_random",
    "check_convergence",
    "assert_convergence",
]


# ----------------------------------------------------------------------
# Identity: what a cached outcome set is an outcome set *of*
# ----------------------------------------------------------------------


def program_digest(test: LitmusTest) -> str:
    """A stable hex digest of everything that determines a test's outcomes.

    Covers the thread names (they appear in outcome keys), each thread's
    operation sequence, the initial memory, and the observed locations —
    and nothing else: the registry name and prose description stay out,
    so a renamed battery keeps hitting its cached entries.
    """
    parts = []
    for program in test.programs:
        ops = ";".join(repr(operation) for operation in program.operations)
        parts.append(f"{program.name}[{ops}]")
    blob = "|".join(parts)
    blob += "|init:" + ",".join(
        f"{location}={value}"
        for location, value in sorted(test.initial_memory.items())
    )
    blob += "|obs:" + ",".join(test.observed_locations)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def enumerator_fingerprint() -> str:
    """The enumeration pipeline's computational identity (v2-style).

    :func:`~repro.stats.checkpoint.kernel_fingerprint` of
    :func:`~repro.litmus.enumerator.enumerate_outcomes` only covers that
    function's own code, so the step semantics it walks
    (:func:`repro.litmus.core.fingerprint`: every function and method of
    the core) is folded in as extra salt — any change to reordering
    legality, a step, or a walk (atomic *or* non-atomic, as the model
    says) invalidates every cached outcome set.
    """
    return kernel_fingerprint(enumerate_outcomes, extra=core_fingerprint())


def explore_entry_key(
    digest: str, model: MemoryModel | str, fingerprint: str
) -> str:
    """The cache entry key of one exhaustive grid point (v2).

    Mirrors :func:`repro.cache.shard_entry_key`: a sha256[:32] over a
    namespaced identity string — here the program digest, the **model
    digest** (:func:`~repro.core.memory_models.model_digest`), and the
    enumerator fingerprint.  v1 keys folded the model's *name*, which
    let an ad-hoc model shadowing a registry name silently hit the
    registry model's entries; v2 keys on semantics, so two distinct
    models never share a key whatever they are called (v1 entries are
    orphaned by design).  A model name is still accepted and resolved
    through :func:`~repro.litmus.zoo.get_zoo_model` for convenience.
    """
    model = _resolve_models([model])[0]
    blob = f"litmus-explore:v2:{digest}:{model_digest(model)}:{fingerprint}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExhaustiveOutcomes:
    """One grid point: the exact outcome set of ``test`` under ``model``."""

    test: str
    model: str
    outcomes: frozenset[Outcome]
    cached: bool = False


@dataclass(frozen=True)
class ExplorationReport:
    """An exhaustive exploration of a ``tests × models`` grid.

    ``results`` holds one :class:`ExhaustiveOutcomes` per grid point in
    grid order (tests outer, models inner); the cache tallies say how
    many points were fetched vs executed vs stored this run.
    """

    results: tuple[ExhaustiveOutcomes, ...]
    cache_hits: int
    cache_misses: int
    cache_stored: int
    fingerprint: str

    def outcome_set(self, test: str, model: str) -> frozenset[Outcome]:
        """The outcome set of one grid point (raises on an unknown one)."""
        for result in self.results:
            if result.test == test and result.model == model:
                return result.outcomes
        raise KeyError(f"no grid point ({test!r}, {model!r}) in this report")

    def to_json_dict(self) -> dict[str, object]:
        """A deterministic JSON-ready view: sorted outcome strings per point.

        Cache tallies and timings stay out so a warm re-run serialises
        byte-identically to the cold run that populated the cache.
        """
        tests: dict[str, dict[str, list[str]]] = {}
        for result in self.results:
            tests.setdefault(result.test, {})[result.model] = sorted(
                outcome_to_string(outcome) for outcome in result.outcomes
            )
        return {"tests": tests}


@dataclass(frozen=True)
class OutcomeFrequencies:
    """A pseudorandom exploration's outcome frequency table.

    ``counts`` is a tuple of ``(outcome, count)`` pairs sorted by
    outcome — a canonical, hashable form, so two tables produced by
    equal ``(seed, shards)`` runs compare equal with ``==`` no matter
    how many workers executed them.
    """

    test: str
    model: str
    trials: int
    seed: int | None
    shards: int | None
    counts: tuple[tuple[Outcome, int], ...]
    # Derived lookup table, rebuilt by __post_init__ — and therefore by
    # dataclasses.replace too, so a replaced table can never alias a
    # stale mapping (init=False keeps it out of the constructor and out
    # of equality/repr; identity is the canonical ``counts`` tuple).
    _counts_map: dict[Outcome, int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_counts_map", dict(self.counts))

    @property
    def support(self) -> frozenset[Outcome]:
        """The set of outcomes observed at least once."""
        return frozenset(outcome for outcome, _ in self.counts)

    def count(self, outcome: Outcome) -> int:
        """How many trials ended in ``outcome`` (0 if never seen)."""
        return self._counts_map.get(outcome, 0)

    def frequency(self, outcome: Outcome) -> float:
        """The empirical probability of ``outcome``."""
        return self.count(outcome) / self.trials

    def to_json_dict(self) -> dict[str, object]:
        """A JSON-ready view keyed by rendered outcome strings."""
        return {
            "test": self.test,
            "model": self.model,
            "trials": self.trials,
            "seed": self.seed,
            "shards": self.shards,
            "counts": {outcome_to_string(outcome): count
                       for outcome, count in self.counts},
        }


# ----------------------------------------------------------------------
# Exhaustive mode
# ----------------------------------------------------------------------


def _resolve_tests(tests) -> list[LitmusTest]:
    if tests is None:
        return list(ALL_TESTS)
    return [get_test(test) if isinstance(test, str) else test
            for test in tests]


def _resolve_models(models) -> list[MemoryModel]:
    if models is None:
        return list(PAPER_MODELS)
    return [get_zoo_model(model) if isinstance(model, str) else model
            for model in models]


def _machine(test: LitmusTest, model: MemoryModel) -> Machine:
    """One point's compiled machine; raises :class:`LitmusError` for a
    point the model refuses (observed memory under non-atomic stores)."""
    return Machine(test.programs, model, test.initial_memory,
                   test.observed_locations)


def _exhaustive_point(machine: Machine) -> tuple[frozenset, float, int]:
    """Enumerate one grid point; returns (outcomes, seconds, worker pid).

    The point travels as its compiled :class:`~repro.litmus.core.Machine`
    (a few hundred pickled bytes), built in the calling process from the
    :class:`LitmusTest` and the
    :class:`~repro.core.memory_models.MemoryModel` themselves rather than
    registry names, so ad-hoc tests and models fan out over the pool
    like registry ones, and a model that shadows a registry name keeps
    its own semantics in the worker.
    """
    started = time.perf_counter()
    outcomes = frozenset(machine.reachable())
    return outcomes, time.perf_counter() - started, os.getpid()


def explore_exhaustive(
    tests=None,
    models=None,
    *,
    config: RunConfig | None = None,
) -> ExplorationReport:
    """Enumerate every ``tests × models`` grid point, cached and sharded.

    ``tests``/``models`` accept names or instances (default: the full
    battery under all four paper models).  Every point's machine is
    compiled here first, so a point the model refuses raises
    :class:`LitmusError` before any point runs.  With ``config.cache`` set,
    each point's outcome set is content-addressed under
    :func:`explore_entry_key`; cached points are fetched without
    executing, so a warm re-run executes zero points.  Uncached points
    fan out over :func:`~repro.stats.parallel.parallel_map` with the
    config's workers/retries/timeout.  Observability knobs produce the
    standard manifest (one ``litmus-explore`` run whose shards are the
    grid points, numbered by grid position) and span tree: cached points
    appear as cached shards and the cache tallies land in
    ``run.cache_hits``/``run.cache_misses``.
    """
    cfg = (config or RunConfig()).resolve()
    tests = _resolve_tests(tests)
    models = _resolve_models(models)
    if not tests or not models:
        raise LitmusError("exploration needs at least one test and one model")
    fingerprint = enumerator_fingerprint()
    grid = [(test.name, model.name) for test in tests for model in models]
    if len(set(grid)) != len(grid):
        raise LitmusError("duplicate (test, model) grid points in exploration")
    machines = {(test.name, model.name): _machine(test, model)
                for test in tests for model in models}
    digests = {test.name: program_digest(test) for test in tests}
    keys = {(test.name, model.name):
            explore_entry_key(digests[test.name], model, fingerprint)
            for test in tests for model in models}

    store = None
    if cfg.cache not in (None, False):
        from ..cache import resolve_cache
        store = resolve_cache(cfg.cache)

    cached: dict[tuple[str, str], frozenset] = {}
    misses: list[tuple[str, str]] = []
    for point in grid:
        hit = store.get(keys[point]) if store is not None else None
        if hit is not None:
            cached[point] = hit
        else:
            misses.append(point)
    position = {point: index for index, point in enumerate(grid)}

    def execute(observer) -> dict[tuple[str, str], frozenset]:
        if observer is not None:
            # Each grid point counts as one shard of work, numbered by
            # grid position; the manifest schema's "sharded" mode covers
            # grid fan-outs too.
            observer.run_started(
                trials=len(grid), shards=len(grid), seed=None,
                workers=resolve_workers(cfg.workers),
                active_shards=len(grid), retries=cfg.retries,
                timeout=cfg.timeout,
            )
            for point in grid:
                if point in cached:
                    observer.shard_cached(position[point], 1)
        executed = []
        if misses:
            # The points report to this run's observer below, so the
            # map itself runs unobserved.
            executed = parallel_map(
                _exhaustive_point, [machines[point] for point in misses],
                config=replace(cfg, manifest=None, trace=None, progress=False))
        evictions = 0
        outcome_sets = dict(cached)
        for point, (outcomes, seconds, worker) in zip(misses, executed):
            outcome_sets[point] = outcomes
            if store is not None:
                evictions += store.put(keys[point], outcomes)
            if observer is not None:
                observer.shard_finished(ShardEvent(
                    shard=position[point], trials=1, seconds=seconds,
                    attempts=1, worker=worker,
                ))
        if observer is not None:
            if store is not None:
                observer.cache_summary(hits=len(cached), misses=len(misses),
                                       stored=len(misses), evictions=evictions)
            observer.annotate("explore.grid_points", len(grid), "points")
            observer.annotate(
                "explore.outcomes_total",
                sum(len(outcomes) for outcomes in outcome_sets.values()),
                "outcomes")
        return outcome_sets

    def merge(outcome_sets) -> ExplorationReport:
        return ExplorationReport(
            results=tuple(
                ExhaustiveOutcomes(test=test_name, model=model_name,
                                   outcomes=outcome_sets[(test_name, model_name)],
                                   cached=(test_name, model_name) in cached)
                for test_name, model_name in grid),
            cache_hits=len(cached), cache_misses=len(misses),
            cache_stored=len(misses) if store is not None else 0,
            fingerprint=fingerprint,
        )

    return observed_run(cfg, "litmus-explore", execute, merge)


# ----------------------------------------------------------------------
# Pseudorandom mode
# ----------------------------------------------------------------------


def _random_shard(
    source: RandomSource,
    trials: int,
    *,
    test: LitmusTest,
    model: MemoryModel,
    model_identity: str = "",
    core_identity: str = "",
) -> dict[Outcome, int]:
    """One shard of pseudorandom exploration: ``trials`` sampled executions.

    Each trial is one run of the sampled walk
    (:meth:`repro.litmus.core.Machine.sample`): a uniformly random legal
    reordering per thread, then one random schedule — over atomic shared
    memory, or with propagation events when the model's atomicity flavor
    is ``non_atomic``.  The bound ``test`` and ``model`` (both picklable
    — the model travels **by value**, never re-resolved from a registry)
    enter the kernel fingerprint via the ``partial``, as do two explicit
    salts: ``model_identity``
    (:func:`~repro.core.memory_models.model_digest`) and
    ``core_identity`` (:func:`repro.litmus.core.fingerprint`, the code
    of the steps and walks this function calls) — so checkpoints and
    cache entries key on the actual program, the actual model semantics
    and the actual sampler.
    """
    del model_identity, core_identity  # fingerprint salt only
    machine = Machine(test.programs, model, test.initial_memory,
                      test.observed_locations)
    return machine.sample(source, trials)


def _check_random_point(test: LitmusTest, model: MemoryModel) -> None:
    """The checks random exploration of one point runs before any shard
    (the service runs them at submit too)."""
    # Compile the point and count every thread's orders here, before any
    # shard: a refused point or a thread with too many orders raises
    # LitmusError to the caller, and the shards (serial, or forked from
    # this process after this point) find the counts in the memo.  A
    # worker forked earlier in a pool scope recounts once.
    _machine(test, model).orders()


def explore_random(
    test,
    model,
    trials: int,
    *,
    seed: int | None = 0,
    config: RunConfig | None = None,
) -> OutcomeFrequencies:
    """Estimate outcome frequencies by seed-disciplined random exploration.

    The table depends only on ``(seed, shards)`` — shards merge in
    shard order, so results are bit-identical at any worker
    count and over any transport.  The run inherits the config's full
    engine surface: checkpoints resume it, the shard cache fetches
    previously-computed shards, and the observability knobs produce the
    standard manifest/trace/progress.
    """
    cfg = (config or RunConfig()).resolve()
    test = get_test(test) if isinstance(test, str) else test
    model = _resolve_models([model])[0]
    if trials < 1:
        raise LitmusError(f"trials must be positive, got {trials}")
    _check_random_point(test, model)
    identity = model_digest(model)
    kernel = partial(_random_shard, test=test, model=model,
                     model_identity=identity,
                     core_identity=core_fingerprint())
    label = f"litmus-explore:{test.name}:{model.name}:{identity}"

    def merge(parts, plan) -> OutcomeFrequencies:
        totals: dict[Outcome, int] = {}
        for part in parts:
            for outcome, count in part.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return OutcomeFrequencies(
            test=test.name, model=model.name, trials=trials, seed=plan.seed,
            shards=plan.shards, counts=tuple(sorted(totals.items())),
        )

    return _estimate(kernel, trials, seed, label, None, merge, cfg)


# ----------------------------------------------------------------------
# Convergence cross-check
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """How a sampled frequency table relates to the enumerated truth."""

    test: str
    model: str
    trials: int
    enumerated: frozenset[Outcome]
    sampled: frozenset[Outcome]

    @property
    def escaped(self) -> frozenset[Outcome]:
        """Sampled outcomes OUTSIDE the enumerated set (must be empty)."""
        return self.sampled - self.enumerated

    @property
    def unseen(self) -> frozenset[Outcome]:
        """Enumerated outcomes the sampler has not hit yet."""
        return self.enumerated - self.sampled

    @property
    def contained(self) -> bool:
        return not self.escaped

    @property
    def converged(self) -> bool:
        """Contained with full support: the sampler found every outcome."""
        return self.contained and not self.unseen

    @property
    def coverage(self) -> float:
        """Fraction of the enumerated set the sampler has observed."""
        if not self.enumerated:
            return 1.0
        return len(self.sampled & self.enumerated) / len(self.enumerated)


def check_convergence(
    frequencies: OutcomeFrequencies,
    enumerated: frozenset[Outcome] | ExhaustiveOutcomes | None = None,
    *,
    test: LitmusTest | str | None = None,
    model: MemoryModel | str | None = None,
) -> ConvergenceReport:
    """Relate a sampled table to the enumerated outcome set.

    ``enumerated`` may be a pre-computed set (e.g. from an
    :class:`ExplorationReport`) or ``None`` to enumerate here.  The
    ``None`` form enumerates from ``test``/``model`` when given;
    otherwise it looks both up by the *names* recorded in the table —
    so ad-hoc tests or models outside the registries must pass either
    their enumerated set or the instances themselves (a frequency table
    records names only, and a name is not an identity).
    """
    if enumerated is None:
        if test is None:
            test = get_test(frequencies.test)
        else:
            test = _resolve_tests([test])[0]
        model = _resolve_models(
            [frequencies.model if model is None else model])[0]
        enumerated = _machine(test, model).reachable()
    elif isinstance(enumerated, ExhaustiveOutcomes):
        enumerated = enumerated.outcomes
    return ConvergenceReport(
        test=frequencies.test, model=frequencies.model,
        trials=frequencies.trials, enumerated=frozenset(enumerated),
        sampled=frequencies.support,
    )


def assert_convergence(
    frequencies: OutcomeFrequencies,
    enumerated: frozenset[Outcome] | ExhaustiveOutcomes | None = None,
    *,
    test: LitmusTest | str | None = None,
    model: MemoryModel | str | None = None,
    require_full_support: bool = False,
) -> ConvergenceReport:
    """Hard-assert containment (and, optionally, full support).

    A sampled outcome outside the enumerated set means the two modes
    disagree about the semantics — always an error.  ``unseen`` outcomes
    are a sampling-budget question, so they only raise when the caller
    demands full support.
    """
    report = check_convergence(frequencies, enumerated, test=test, model=model)
    if report.escaped:
        rendered = ", ".join(sorted(outcome_to_string(outcome)
                                    for outcome in report.escaped))
        raise LitmusError(
            f"{report.test}/{report.model}: sampled outcome(s) escape the "
            f"enumerated set after {report.trials} trials: {rendered}")
    if require_full_support and report.unseen:
        rendered = ", ".join(sorted(outcome_to_string(outcome)
                                    for outcome in report.unseen))
        raise LitmusError(
            f"{report.test}/{report.model}: enumerated outcome(s) never "
            f"sampled in {report.trials} trials "
            f"(coverage {report.coverage:.3f}): {rendered}")
    return report
