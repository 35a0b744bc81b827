"""Heterogeneous fleets: threads under *different* memory models.

Theorem 6.1 collapses the shift-process permutation sum only when every
segment length has the same marginal law.  Real systems increasingly mix
core types (big.LITTLE, accelerator + host) or migrate threads across
models, so this module extends the joined model of §6 to an arbitrary
assignment of memory models to threads:

* :func:`heterogeneous_disjointness` — the exact Pr[A] for *independent*
  per-thread window laws, by the order-conditioned Theorem 5.1 form:

  ``Pr[A] = prefactor(n, β) · Σ_σ Π_{i=1}^{n-1} E[β^{(n-i)(Γ_{σ(i)}+1)}]``

  (an n!-term sum over which thread holds the i-th largest shift — exact
  for fleets of SC/WO threads at any n, and for any fleet at n = 2).

* :func:`heterogeneous_non_manifestation` — the same, taking memory
  models and deriving their window laws.

* :func:`sample_heterogeneous_growths` /
  :func:`estimate_heterogeneous_non_manifestation` — the end-to-end Monte
  Carlo honouring the §6 coupling (all threads run identical copies of
  one random program, whatever their model), used to validate the exact
  route and to quantify the TSO/PSO shared-program dependence in mixed
  fleets.

Findings (benched in ``bench_heterogeneous_fleet.py``): at n = 2 the
formula makes mixing *exactly arithmetic averaging* of the homogeneous
survival probabilities (only per-thread marginal transforms enter); at
larger n the composition interpolates roughly log-linearly — each thread
downgraded from SC to WO multiplies Pr[A] by a near-constant factor, so
no single weak thread dominates, but none is free either.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations

import numpy as np

from ..errors import ModelDefinitionError
from ..runconfig import RunConfig
from ..stats.montecarlo import BernoulliResult, run_event_trials
from ..stats.rng import RandomSource, _check_beta
from .distributions import DiscreteDistribution, ValueWithError
from .instructions import _check_program_parameters
from .memory_models import PSO, SC, TSO, WO, MemoryModel
from .settling import DEFAULT_BODY_LENGTH
from .shift import DEFAULT_SHIFT_RATIO, batch_disjoint
from .shift_analytic import (
    MAX_EXACT_SEGMENTS,
    WINDOW_LENGTH_OFFSET,
    prefactor,
)
from .window_analytic import window_distribution

__all__ = [
    "heterogeneous_disjointness",
    "heterogeneous_non_manifestation",
    "sample_heterogeneous_growths",
    "estimate_heterogeneous_non_manifestation",
]


def heterogeneous_disjointness(
    window_laws: list[DiscreteDistribution], beta: float = DEFAULT_SHIFT_RATIO
) -> ValueWithError:
    """Exact ``Pr[A]`` for independent, per-thread window-growth laws.

    Costs ``n!`` products of precomputed transforms; limited to
    ``MAX_EXACT_SEGMENTS`` threads like the Theorem 5.1 enumeration.
    """
    n = len(window_laws)
    if n < 1:
        raise ValueError("need at least one thread")
    if n == 1:
        return ValueWithError(1.0, 0.0)
    if n > MAX_EXACT_SEGMENTS:
        raise ValueError(
            f"exact heterogeneous evaluation limited to {MAX_EXACT_SEGMENTS} threads; "
            "use the Monte-Carlo route for larger fleets"
        )
    offset = WINDOW_LENGTH_OFFSET + 1  # Γ + 1 = growth + 3
    # transforms[k][j] = E[beta^{j (Γ_k + 1)}] for thread k, weight j.
    transforms: list[list[ValueWithError]] = []
    for law in window_laws:
        per_weight = [ValueWithError(1.0, 0.0)]  # j = 0 (unused placeholder)
        for weight in range(1, n):
            base = beta**weight
            inner = law.power_transform(base)
            factor = base**offset
            per_weight.append(ValueWithError(inner.value * factor, inner.error * factor))
        transforms.append(per_weight)

    scale = prefactor(n, beta)
    total = 0.0
    error = 0.0
    for order in permutations(range(n)):
        product = 1.0
        relative_error = 0.0
        for i, thread in enumerate(order[:-1], start=1):
            term = transforms[thread][n - i]
            product *= term.value
            if term.value > 0.0:
                relative_error += term.error / term.value
        total += product
        error += product * relative_error
    return ValueWithError(scale * total, scale * error)


def heterogeneous_non_manifestation(
    models: list[MemoryModel],
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    allow_independent_approximation: bool = False,
) -> ValueWithError:
    """Exact/approximate ``Pr[A]`` for a fleet of memory models.

    Window laws are independent across threads for SC/WO; TSO/PSO threads
    are coupled through the shared program, so fleets containing **two or
    more** store-buffer threads need ``allow_independent_approximation``
    (or the Monte-Carlo route).  A single TSO/PSO thread in an otherwise
    SC/WO fleet is exact — dependence needs at least two coupled windows.
    """
    if not models:
        raise ValueError("need at least one thread")
    coupled = sum(
        1 for model in models
        if model.relaxed_pairs in (TSO.relaxed_pairs, PSO.relaxed_pairs)
    )
    # At n = 2 only window marginals enter the formula, so even two coupled
    # threads are exact; at n >= 3 the joint law matters.
    if coupled >= 2 and len(models) >= 3 and not allow_independent_approximation:
        raise ModelDefinitionError(
            f"{coupled} store-buffer threads share the program; pass "
            "allow_independent_approximation=True or use "
            "estimate_heterogeneous_non_manifestation"
        )
    laws = [window_distribution(model, store_probability) for model in models]
    return heterogeneous_disjointness(laws, beta)


# ----------------------------------------------------------------------
# Monte Carlo with the shared-program coupling
# ----------------------------------------------------------------------


def sample_heterogeneous_growths(
    models: list[MemoryModel],
    source: RandomSource,
    trials: int,
    body_length: int = DEFAULT_BODY_LENGTH,
    store_probability: float = 0.5,
) -> np.ndarray:
    """Growth matrix ``(trials, n)`` for a mixed fleet sharing one program.

    The shared randomness is the per-trial instruction-type sequence; all
    settling randomness is per thread.  SC/WO threads do not consume the
    shared types (their laws are program-independent), which is
    distribution-preserving.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not models:
        raise ValueError("need at least one thread")
    _check_samplers(models)
    needs_program = [
        model.relaxed_pairs in (TSO.relaxed_pairs, PSO.relaxed_pairs) for model in models
    ]
    store_mask = (
        source.bernoulli_array(store_probability, (trials, body_length))
        if any(needs_program)
        else None
    )
    growths = np.zeros((trials, len(models)), dtype=np.int64)
    for thread, model in enumerate(models):
        if model.relaxed_pairs == SC.relaxed_pairs:
            continue
        settle = model.uniform_settle_probability
        if model.relaxed_pairs == WO.relaxed_pairs:
            load = np.minimum(source.geometric_array(settle, trials), body_length)
            chase = np.minimum(source.geometric_array(settle, trials), load)
            growths[:, thread] = load - chase
        else:
            assert store_mask is not None
            growths[:, thread] = _store_buffer_growths(
                model, source, store_mask, settle
            )
    return growths


def _check_samplers(models: list[MemoryModel]) -> None:
    """Raise ``ModelDefinitionError`` for a model with no growth sampler.

    SC threads need none; WO, TSO and PSO threads need a uniform settle
    probability; any other relaxation set has no heterogeneous sampler.
    """
    for model in models:
        if model.relaxed_pairs == SC.relaxed_pairs:
            continue
        if model.uniform_settle_probability is None:
            raise ModelDefinitionError(
                f"heterogeneous sampling needs a uniform settle probability "
                f"({model.name})"
            )
        if model.relaxed_pairs not in (WO.relaxed_pairs, TSO.relaxed_pairs,
                                       PSO.relaxed_pairs):
            raise ModelDefinitionError(
                f"no heterogeneous sampler for relaxation set of {model.name}"
            )


def _store_buffer_growths(
    model: MemoryModel,
    source: RandomSource,
    store_mask: np.ndarray,
    settle: float,
) -> np.ndarray:
    """TSO/PSO growths for one thread, driven by the shared type matrix."""
    trials, body_length = store_mask.shape
    runs = np.zeros(trials, dtype=np.int64)
    for round_index in range(body_length):
        climbs = source.geometric_array(settle, trials)
        split = np.minimum(runs, climbs)
        runs = np.where(store_mask[:, round_index], runs + 1, split)
    load_gap = np.minimum(source.geometric_array(settle, trials), runs)
    if model.relaxed_pairs == PSO.relaxed_pairs:
        chase = np.minimum(source.geometric_array(settle, trials), load_gap)
        return load_gap - chase
    return load_gap


def _fleet_batch_trial(
    source: RandomSource,
    batch: int,
    models: tuple[MemoryModel, ...],
    store_probability: float,
    beta: float,
    body_length: int,
) -> int:
    """The batch trial of :func:`estimate_heterogeneous_non_manifestation`."""
    growths = sample_heterogeneous_growths(
        models, source, batch, body_length, store_probability
    )
    lengths = growths + WINDOW_LENGTH_OFFSET
    shifts = source.geometric_array(beta, (batch, len(models)))
    return int(batch_disjoint(shifts, lengths).sum())


def estimate_heterogeneous_non_manifestation(
    models: list[MemoryModel],
    trials: int,
    seed: int | None = 0,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    body_length: int = DEFAULT_BODY_LENGTH,
    confidence: float = 0.99,
    *,
    config: RunConfig | None = None,
) -> BernoulliResult:
    """End-to-end Monte-Carlo ``Pr[A]`` for a mixed fleet.

    Runs the module-level batch trial on
    :func:`repro.stats.montecarlo.run_event_trials`; ``config`` (a
    :class:`repro.runconfig.RunConfig`) carries the engine knobs, so
    the estimate shards, checkpoints, caches and is observed like any
    other.  Every model is checked for a growth sampler, and the program
    and shift parameters for range, before any shard runs
    (``ModelDefinitionError``, ``ProgramError``, ``ValueError``).
    """
    if len(models) < 2:
        raise ValueError("the joined model needs at least 2 threads")
    _check_samplers(models)
    _check_program_parameters(body_length, store_probability)
    _check_beta(beta)
    kernel = partial(_fleet_batch_trial, models=tuple(models),
                     store_probability=store_probability, beta=beta,
                     body_length=body_length)
    label = (f"fleet:{'+'.join(model.name for model in models)}"
             f":p={store_probability}:beta={beta}:body={body_length}")
    return run_event_trials(kernel, trials, seed=seed, confidence=confidence,
                            checkpoint_label=label, config=config)
