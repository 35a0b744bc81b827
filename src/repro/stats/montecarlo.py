"""A small Monte-Carlo harness used by every empirical experiment.

The harness standardises three things across the library:

1. **Seeding discipline** — a run takes one experiment seed and derives
   per-batch child streams, so results are reproducible and trial batches
   are independent.
2. **Counting** — trials are Bernoulli (event counters) or categorical
   (PMF estimation over a countable support); both produce estimates with
   confidence intervals from :mod:`repro.stats.intervals`.
3. **Reporting** — results carry enough metadata (trial counts, seeds,
   confidence level) for the benchmark harness to print self-describing
   rows.

Every estimator takes its engine knobs as one keyword-only
``config=`` :class:`~repro.runconfig.RunConfig`, including the
observability knobs ``manifest`` (append a validated run manifest),
``trace`` (JSONL span trace: ``run`` > ``shards`` / ``merge``), and
``progress`` (live stderr progress line) — all off by default and all
strictly read-only with respect to the estimates (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, TypeVar

from repro.obs import observed_run

from ..runconfig import RunConfig
from .intervals import Proportion, wilson_interval
from .parallel import ShardPlan, run_sharded
from .rng import RandomSource, iter_batches
from .transport import BernoulliLayout, CategoricalLayout

__all__ = [
    "BernoulliResult",
    "CategoricalResult",
    "run_bernoulli_trials",
    "run_categorical_trials",
    "run_event_trials",
    "merge_bernoulli",
    "merge_categorical",
]

#: Default number of trials per vectorised batch.
DEFAULT_BATCH_SIZE = 4096

T = TypeVar("T")


@dataclass(frozen=True)
class BernoulliResult:
    """Outcome of a Bernoulli Monte-Carlo estimation."""

    successes: int
    trials: int
    confidence: float
    seed: int | None

    @property
    def proportion(self) -> Proportion:
        """The estimate with its Wilson confidence interval."""
        return wilson_interval(self.successes, self.trials, self.confidence)

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    def agrees_with(self, value: float) -> bool:
        """Whether the analytic ``value`` lies inside the interval."""
        return self.proportion.contains(value)

    def __str__(self) -> str:
        return str(self.proportion)


@dataclass(frozen=True)
class CategoricalResult:
    """Outcome of a categorical Monte-Carlo estimation (an empirical PMF)."""

    counts: dict[int, int]
    trials: int
    confidence: float
    seed: int | None
    # init=False keeps the memo out of __init__ *and* dataclasses.replace:
    # a replaced copy gets a fresh dict instead of aliasing the original's.
    _cache: dict[int, Proportion] = field(
        default_factory=dict, compare=False, repr=False, init=False
    )

    def probability(self, category: int) -> Proportion:
        """Estimate (with interval) of the probability of one category."""
        if category not in self._cache:
            self._cache[category] = wilson_interval(
                self.counts.get(category, 0), self.trials, self.confidence
            )
        return self._cache[category]

    def estimate(self, category: int) -> float:
        return self.counts.get(category, 0) / self.trials

    @property
    def support(self) -> list[int]:
        """Observed categories, sorted."""
        return sorted(self.counts)

    def tail_probability(self, category: int) -> Proportion:
        """Estimate of ``Pr[X >= category]`` with interval."""
        successes = sum(count for value, count in self.counts.items() if value >= category)
        return wilson_interval(successes, self.trials, self.confidence)

    def mean(self) -> float:
        """Empirical mean of the category values."""
        return sum(value * count for value, count in self.counts.items()) / self.trials


def _bernoulli_shard(
    source: RandomSource,
    shard_trials: int,
    trial: Callable[[RandomSource], bool],
    confidence: float,
) -> BernoulliResult:
    """Shard kernel for :func:`run_bernoulli_trials` (module level: picklable)."""
    successes = 0
    for batch in iter_batches(shard_trials, DEFAULT_BATCH_SIZE):
        successes += sum(1 for s in source.child().spawn(batch) if trial(s))
    return BernoulliResult(successes, shard_trials, confidence, None)


def _categorical_shard(
    source: RandomSource,
    shard_trials: int,
    trial: Callable[[RandomSource], int],
    confidence: float,
) -> CategoricalResult:
    """Shard kernel for :func:`run_categorical_trials`."""
    counts: Counter[int] = Counter()
    for batch in iter_batches(shard_trials, DEFAULT_BATCH_SIZE):
        counts.update(trial(s) for s in source.child().spawn(batch))
    return CategoricalResult(dict(counts), shard_trials, confidence, None)


def _event_shard(
    source: RandomSource,
    shard_trials: int,
    batch_trial: Callable[[RandomSource, int], int],
    batch_size: int,
    confidence: float,
) -> BernoulliResult:
    """Shard kernel for :func:`run_event_trials`.

    ``batch_trial`` is guaranteed to only ever see positive batch sizes:
    vectorised kernels are entitled to reject ``batch <= 0`` as a
    programming error, so empty batches — zero-trial shards, or budgets
    that divide exactly into ``shards * batch_size`` — are skipped here
    without touching the kernel or its random stream.
    """
    successes = 0
    for batch in iter_batches(shard_trials, batch_size):
        if batch <= 0:
            continue
        successes += int(batch_trial(source.child(), batch))
    return BernoulliResult(successes, shard_trials, confidence, None)


def _estimate(kernel: Callable[[RandomSource, int], Any], trials: int,
              seed: int | None, label: str, layout: Any,
              merge: Callable[[list, ShardPlan], T], cfg: RunConfig) -> T:
    """The one engine call behind every Monte-Carlo estimator.

    ``kernel(source, shard_trials)`` is a module-level shard kernel (a
    ``functools.partial`` binding the estimator's parameters, so it
    pickles to workers and fingerprints into checkpoint and cache keys);
    ``merge(parts, plan)`` pools its per-shard results in shard order;
    ``layout`` describes a result row for the shm transport (``None``:
    pickle only); ``label`` salts the plan key and names the manifest
    run; ``cfg`` is the calling estimator's resolved :class:`RunConfig`.

    The budget splits into the seed-disciplined shards of a
    :class:`~repro.stats.parallel.ShardPlan` whose shard field is
    :func:`_plan_shards`, run by
    :func:`~repro.stats.parallel.run_sharded` under
    :func:`~repro.obs.observed_run`, so results depend only on
    ``(seed, shards)``, never on the worker count.  The default serial
    config (``workers=1``, ``shards`` unset) runs the one-shard form
    (``shards=None``) on ``RandomSource(seed)`` itself, bit-compatible
    with pre-parallel releases; it checkpoints, caches and retries like
    any other plan, and its manifest record says ``mode="serial-legacy"``.
    """
    plan = ShardPlan(trials, _plan_shards(cfg), seed)

    def execute(observer) -> list:
        return run_sharded(kernel, plan, checkpoint_label=label,
                           observer=observer, layout=layout, config=cfg)

    return observed_run(cfg, label, execute, lambda parts: merge(parts, plan))


def _plan_shards(cfg: RunConfig) -> int | None:
    """The shard field of every estimator's plan under ``cfg``: the
    one-shard form ``None`` for the default serial config (``workers=1``,
    ``shards`` unset), else the resolved shard count.  The service's
    dedup key hashes it too."""
    if cfg.workers == 1 and cfg.shards is None:
        return None
    return cfg.resolved_shards()


def _seeded(merge: Callable[[list], Any], seed: int | None
            ) -> Callable[[list, ShardPlan], Any]:
    """``merge`` for the generic estimators: the pooled result keeps ``seed``."""
    return lambda parts, plan: replace(merge(parts), seed=seed)


def run_bernoulli_trials(
    trial: Callable[[RandomSource], bool],
    trials: int,
    seed: int | None = 0,
    confidence: float = 0.99,
    *,
    config: RunConfig | None = None,
) -> BernoulliResult:
    """Run ``trials`` independent Bernoulli trials of ``trial``.

    ``trial`` receives a fresh independent :class:`RandomSource` for each
    invocation and returns whether the event occurred.

    ``config`` (a :class:`repro.runconfig.RunConfig`; default: all
    defaults, the legacy serial path) carries every execution knob.
    With parallelism requested (``workers`` unset or above 1) the budget
    splits into seed-disciplined shards — ``shards`` if given, else the
    fixed :data:`~repro.stats.parallel.DEFAULT_SHARDS` — fanned out over
    ``workers`` processes; the outcome is bit-identical for fixed
    ``(seed, shards)`` at any worker count.  A non-picklable ``trial``
    (lambda/closure) degrades to in-process execution with the same
    sharded result.  ``retries``/``timeout``/``checkpoint`` configure the
    fault-tolerance layer and ``cache`` the content-addressed shard
    cache, both keyed by the run key (see
    :func:`~repro.stats.parallel.run_sharded`; the default serial run's
    one-shard plan checkpoints and caches like any other).

    ``manifest``/``trace``/``progress`` are the observability knobs
    (run manifest JSON, JSONL span trace, live stderr progress); all are
    read-only with respect to the estimate — see ``docs/OBSERVABILITY.md``.
    ``transport`` selects the shard result channel (see
    :mod:`repro.stats.transport`) and never changes the estimate.
    """
    _check_trials(trials)
    return _estimate(
        partial(_bernoulli_shard, trial=trial, confidence=confidence),
        trials, seed, "bernoulli", BernoulliLayout(confidence),
        _seeded(merge_bernoulli, seed), (config or RunConfig()).resolve())


def run_categorical_trials(
    trial: Callable[[RandomSource], int],
    trials: int,
    seed: int | None = 0,
    confidence: float = 0.99,
    *,
    config: RunConfig | None = None,
) -> CategoricalResult:
    """Run ``trials`` independent categorical trials of ``trial``.

    ``trial`` returns an integer category (e.g. the observed critical-window
    growth γ); the result aggregates the counts into an empirical PMF.
    The ``config`` record and every engine knob it carries follow
    :func:`run_bernoulli_trials`.
    """
    _check_trials(trials)
    return _estimate(
        partial(_categorical_shard, trial=trial, confidence=confidence),
        trials, seed, "categorical", CategoricalLayout(confidence),
        _seeded(merge_categorical, seed), (config or RunConfig()).resolve())


def run_event_trials(
    batch_trial: Callable[[RandomSource, int], int],
    trials: int,
    seed: int | None = 0,
    confidence: float = 0.99,
    batch_size: int = DEFAULT_BATCH_SIZE,
    *,
    checkpoint_label: str = "event",
    config: RunConfig | None = None,
) -> BernoulliResult:
    """Vectorised Bernoulli estimation.

    ``batch_trial(source, size)`` must run ``size`` independent trials using
    ``source`` and return the number of successes, and is only ever called
    with ``size >= 1`` (empty batches are filtered by the engine, so
    kernels may treat ``size <= 0`` as a programming error).  This is the
    fast path for numpy-vectorisable events (e.g. shift-process
    disjointness), where spawning one :class:`RandomSource` per trial
    would dominate runtime — the :mod:`repro.kernels` batch kernels all
    ride this entry point.  The ``config`` record and every engine knob
    it carries follow :func:`run_bernoulli_trials`; ``checkpoint_label``
    lets callers key
    the checkpoint by their experiment parameters (different events with
    the same ``(trials, shards, seed)`` must not share stored shards)
    and doubles as the manifest run label.  The kernel itself is
    fingerprinted into the run key as well, so two *different*
    ``batch_trial`` callables never share a stored shard even under an
    identical label.
    """
    _check_trials(trials)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return _estimate(
        partial(_event_shard, batch_trial=batch_trial, batch_size=batch_size,
                confidence=confidence),
        trials, seed, checkpoint_label, BernoulliLayout(confidence),
        _seeded(merge_bernoulli, seed), (config or RunConfig()).resolve())


def merge_bernoulli(results: Iterable[BernoulliResult]) -> BernoulliResult:
    """Pool several independent Bernoulli results into one.

    All inputs must share a confidence level.  The pooled seed is ``None``
    because the merged result no longer corresponds to a single stream.
    Degenerate zero-trial inputs (e.g. empty shards recorded by an older
    checkpoint, or manual merges of optional legs) are filtered out —
    they contribute nothing and their ``.proportion``/``.estimate`` are
    undefined — but at least one non-degenerate input is required.
    """
    results = [result for result in list(results) if result.trials > 0]
    if not results:
        raise ValueError("cannot merge: no results with trials > 0")
    confidence = results[0].confidence
    if any(result.confidence != confidence for result in results):
        raise ValueError("cannot merge results with differing confidence levels")
    successes = sum(result.successes for result in results)
    trials = sum(result.trials for result in results)
    return BernoulliResult(successes, trials, confidence, None)


def merge_categorical(results: Iterable[CategoricalResult]) -> CategoricalResult:
    """Pool several independent categorical results into one empirical PMF.

    The counter-summing analogue of :func:`merge_bernoulli`: per-category
    counts add, trial totals add, and — addition being commutative — the
    merged PMF is independent of merge order.  All inputs must share a
    confidence level; the pooled seed is ``None``.  Degenerate zero-trial
    inputs are filtered out (as in :func:`merge_bernoulli`).
    """
    results = [result for result in list(results) if result.trials > 0]
    if not results:
        raise ValueError("cannot merge: no results with trials > 0")
    confidence = results[0].confidence
    if any(result.confidence != confidence for result in results):
        raise ValueError("cannot merge results with differing confidence levels")
    counts: Counter[int] = Counter()
    for result in results:
        counts.update(result.counts)
    trials = sum(result.trials for result in results)
    return CategoricalResult(dict(counts), trials, confidence, None)


def _check_trials(trials: int) -> None:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
