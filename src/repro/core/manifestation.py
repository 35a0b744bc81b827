"""The joined model (§6): probability that the canonical data race manifests.

This module combines the window laws of §4 with the shift process of §5 to
evaluate the paper's headline quantities:

* ``Pr[A]`` — the probability that **no** pair of critical windows
  overlaps when ``n`` identically-programmed threads execute (Theorem 6.2
  for n = 2; Theorem 6.3's ``e^{-n²(1+o(1))}`` asymptotics for large n).
* ``Pr[bug] = 1 − Pr[A]`` — the manifestation probability.

Evaluation routes, in decreasing exactness:

1. **Closed/numeric-exact** — SC (any n), WO (any n; its windows are
   independent of the shared program), and *any* paper model at n = 2
   (only window marginals enter the n = 2 formula).  TSO/PSO marginals
   come from the exact run-chain solve.
2. **Rao–Blackwellised Monte Carlo** — for TSO/PSO at n ≥ 3, where windows
   are exchangeable but dependent through the shared program: sample
   programs, compute each program's *conditional* window law exactly
   (a DP), apply Theorem 6.1 conditionally, and average.  Variance is
   dramatically lower than raw simulation because all settling/shift
   randomness is integrated out analytically.
3. **End-to-end Monte Carlo** — simulate everything (shared program,
   per-thread settling, geometric shifts, overlap check); the ground truth
   that validates routes 1–2 in the benches.

All probabilities are available in log space (route 1) since Theorem 6.3's
regime underflows doubles beyond n ≈ 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import ModelDefinitionError
from ..runconfig import RunConfig
from ..stats.montecarlo import BernoulliResult, run_event_trials
from ..stats.rng import RandomSource, _check_beta
from .distributions import DiscreteDistribution, ValueWithError
from .instructions import _check_program_parameters
from .memory_models import PSO, SC, TSO, WO, MemoryModel
from .settling import DEFAULT_BODY_LENGTH
from .shift import DEFAULT_SHIFT_RATIO
from .shift_analytic import (
    WINDOW_LENGTH_OFFSET,
    disjointness_iid,
    log_disjointness_iid,
)
from .tso_analysis import conditional_run_distribution
from .window_analytic import (
    pso_window_from_load_gap,
    window_distribution,
    window_from_run_distribution,
)

__all__ = [
    "non_manifestation_probability",
    "manifestation_probability",
    "log_non_manifestation",
    "tso_two_thread_bounds",
    "theorem_62_reference",
    "estimate_non_manifestation",
    "RaoBlackwellResult",
    "estimate_non_manifestation_rao_blackwell",
    "asymptotic_exponent",
]

#: Models whose windows are genuinely independent across threads, making
#: the iid route exact at every thread count.
_INDEPENDENT_WINDOW_MODELS = (SC.relaxed_pairs, WO.relaxed_pairs)


def _iid_route_is_exact(model: MemoryModel, n: int) -> bool:
    return n <= 2 or model.relaxed_pairs in _INDEPENDENT_WINDOW_MODELS


def non_manifestation_probability(
    model: MemoryModel,
    n: int = 2,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    allow_independent_approximation: bool = False,
    critical_section_length: int = WINDOW_LENGTH_OFFSET,
) -> ValueWithError:
    """``Pr[A]``: no two critical windows overlap (Theorem 6.2 quantities).

    Exact for SC/WO at any ``n`` and for every paper model at ``n = 2``.
    For TSO/PSO at ``n ≥ 3`` the windows are dependent through the shared
    program; pass ``allow_independent_approximation=True`` to accept the
    independent-window approximation (its error is quantified by the
    Rao–Blackwell and end-to-end estimators), otherwise this raises.

    ``critical_section_length`` generalises the canonical bug's base
    window of 2 time units: a critical section with extra local work
    between the racy load and store occupies more steps, widening every
    thread's vulnerable interval regardless of the memory model.

    >>> value = non_manifestation_probability(SC)
    >>> round(value.value, 6)
    0.166667
    """
    if n < 2:
        raise ValueError(f"the joined model needs n >= 2 threads, got {n}")
    if not _iid_route_is_exact(model, n) and not allow_independent_approximation:
        raise ModelDefinitionError(
            f"{model.name} windows are dependent through the shared program at "
            f"n = {n}; use estimate_non_manifestation_rao_blackwell / "
            "estimate_non_manifestation, or pass allow_independent_approximation=True"
        )
    growth = window_distribution(model, store_probability)
    return disjointness_iid(growth, n, beta, critical_section_length)


def manifestation_probability(
    model: MemoryModel,
    n: int = 2,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    allow_independent_approximation: bool = False,
) -> ValueWithError:
    """``Pr[bug] = 1 − Pr[A]`` — the reliability metric of the paper."""
    survival = non_manifestation_probability(
        model, n, store_probability, beta, allow_independent_approximation
    )
    return ValueWithError(1.0 - survival.value, survival.error)


def log_non_manifestation(
    model: MemoryModel,
    n: int,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    allow_independent_approximation: bool = False,
) -> float:
    """Natural log of ``Pr[A]`` — the Theorem 6.3 scale (n up to hundreds)."""
    if n < 2:
        raise ValueError(f"the joined model needs n >= 2 threads, got {n}")
    if not _iid_route_is_exact(model, n) and not allow_independent_approximation:
        raise ModelDefinitionError(
            f"{model.name} at n = {n} requires allow_independent_approximation=True "
            "for the analytic route"
        )
    growth = window_distribution(model, store_probability)
    return log_disjointness_iid(growth, n, beta)


def asymptotic_exponent(
    model: MemoryModel,
    n: int,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
) -> float:
    """Theorem 6.3's normalised exponent ``−ln Pr[A] / n²``.

    The theorem asserts this converges to the *same* constant for every
    memory model (``(3/2)·ln 2 ≈ 1.0397`` at the paper's parameters); the
    thread-scaling bench plots it per model.
    """
    return -log_non_manifestation(
        model, n, store_probability, beta, allow_independent_approximation=True
    ) / (n * n)


def manifestation_bounds(
    model: MemoryModel,
    n: int,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
) -> tuple[float, float]:
    """Rigorous Bonferroni brackets on ``Pr[bug]`` at any thread count.

    Each thread pair, marginally, is exactly the n = 2 system (shifts are
    i.i.d. and pairwise window marginals need no joint law), so with
    ``q = Pr[one fixed pair overlaps]``:

    ``q ≤ Pr[bug] ≤ min(1, binom(n, 2) · q)``.

    Unlike the independent-window approximation these hold *exactly* for
    the dependent TSO/PSO fleets; they are informative for small n (the
    union bound saturates once ``binom(n,2)·q`` passes 1, which the
    paper's e^{-n²} regime reaches quickly).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 threads, got {n}")
    pair_overlap = 1.0 - non_manifestation_probability(
        model, 2, store_probability, beta
    ).value
    upper = min(1.0, math.comb(n, 2) * pair_overlap)
    return pair_overlap, upper


__all__.append("manifestation_bounds")


# ----------------------------------------------------------------------
# Theorem 6.2 reference values
# ----------------------------------------------------------------------


def tso_two_thread_bounds() -> tuple[float, float]:
    """The paper's Theorem 6.2 TSO interval: ``(58/441, 58/441 + 1/189)``.

    Stated in the paper as ``0.1315 < Pr[A] < 0.1369``.
    """
    lower = 58.0 / 441.0
    return lower, lower + 1.0 / 189.0


def theorem_62_reference() -> dict[str, object]:
    """The published n = 2 values: SC = 1/6, WO = 7/54, TSO in bounds."""
    return {
        "SC": 1.0 / 6.0,
        "TSO": tso_two_thread_bounds(),
        "WO": 7.0 / 54.0,
    }


# ----------------------------------------------------------------------
# Route 3 — end-to-end Monte Carlo
# ----------------------------------------------------------------------


def _disjointness_batch_trial(
    source: RandomSource,
    batch: int,
    model: MemoryModel,
    n: int,
    store_probability: float,
    beta: float,
    body_length: int,
    critical_section_length: int,
) -> int:
    """One vectorised §6 batch: settle windows, shift threads, count A.

    The kernel itself lives in :func:`repro.kernels.joined.
    non_manifestation_batch` (relocated verbatim, so fixed-seed results
    are unchanged); this module-level wrapper keeps the historical pickle
    identity for ``functools.partial`` fan-out over worker processes.
    The import is deferred because :mod:`repro.kernels` imports this
    module's package during its own initialisation.
    """
    from ..kernels.joined import non_manifestation_batch

    return non_manifestation_batch(
        source, batch, model, n, store_probability, beta, body_length,
        critical_section_length,
    )


def _check_joined_arguments(n: int, store_probability: float, beta: float,
                            body_length: int) -> None:
    """The argument checks of :func:`estimate_non_manifestation`."""
    if n < 2:
        raise ValueError(f"need n >= 2 threads, got {n}")
    _check_program_parameters(body_length, store_probability)
    _check_beta(beta)


def estimate_non_manifestation(
    model: MemoryModel,
    n: int,
    trials: int,
    seed: int | None = 0,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    body_length: int = DEFAULT_BODY_LENGTH,
    confidence: float = 0.99,
    critical_section_length: int = WINDOW_LENGTH_OFFSET,
    *,
    config: RunConfig | None = None,
) -> BernoulliResult:
    """Simulate the full §6 pipeline and estimate ``Pr[A]``.

    Per trial: one shared program, ``n`` independent reorderings, geometric
    shifts, and the closed-interval overlap check on windows of length
    ``γ + 2`` (see :mod:`repro.core.shift` for the convention).

    ``config`` (a :class:`repro.runconfig.RunConfig`) carries every
    execution knob below.  ``workers``/``shards`` fan the budget out
    over seed-disciplined shards (see :mod:`repro.stats.parallel`);
    fixed ``(seed, shards)`` gives bit-identical results at any worker
    count.  ``retries``/``timeout``/``checkpoint`` configure the
    fault-tolerance layer; the checkpoint key is salted with the model
    name and the experiment parameters, so one checkpoint directory can
    hold several models' runs without cross-contamination.  The key also
    folds in the kernel *fingerprint*, derived from the fully-bound
    trial kernel.
    ``cache`` enables the content-addressed shard result cache
    (``"auto"``, a directory, or a :class:`repro.cache.ShardStore`; see
    ``docs/CACHING.md``).
    ``manifest``/``trace``/``progress`` are the observability knobs
    (see ``docs/OBSERVABILITY.md``); manifest run records carry the same
    salted label, so one manifest file can hold all four models' runs.
    ``transport`` selects the shard result channel, forwarded to
    :func:`repro.stats.montecarlo.run_event_trials`.

    Each batch runs the vectorized kernel
    :func:`repro.kernels.joined.non_manifestation_batch` (this
    estimator's historical implementation, so fixed-seed results are
    unchanged; see ``docs/KERNELS.md``).  The program and shift
    parameters are checked before any shard runs (``ProgramError`` for
    ``store_probability``/``body_length``, ``ValueError`` for ``beta``).
    """
    _check_joined_arguments(n, store_probability, beta, body_length)
    batch_trial = partial(
        _disjointness_batch_trial,
        model=model,
        n=n,
        store_probability=store_probability,
        beta=beta,
        body_length=body_length,
        critical_section_length=critical_section_length,
    )
    label = (f"nonmanifestation:{model.name}:n={n}:p={store_probability}"
             f":beta={beta}:body={body_length}:L={critical_section_length}")
    return run_event_trials(batch_trial, trials, seed=seed,
                            confidence=confidence,
                            checkpoint_label=label, config=config)


# ----------------------------------------------------------------------
# Route 2 — Rao–Blackwellised estimation for dependent windows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RaoBlackwellResult:
    """Program-averaged conditional evaluation of ``Pr[A]``.

    ``estimate`` averages the *exact conditional* disjointness probability
    over sampled programs; ``standard_error`` is the sample standard error
    of that average (the only remaining randomness is the program draw).
    """

    estimate: float
    standard_error: float
    programs: int

    def agrees_with(self, value: float, sigmas: float = 3.0) -> bool:
        return abs(value - self.estimate) <= sigmas * self.standard_error + 1e-12

    def __str__(self) -> str:
        return f"{self.estimate:.6f} ± {self.standard_error:.2e} ({self.programs} programs)"


def estimate_non_manifestation_rao_blackwell(
    model: MemoryModel,
    n: int,
    programs: int,
    seed: int | None = 0,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    body_length: int = DEFAULT_BODY_LENGTH,
    max_run: int = 64,
) -> RaoBlackwellResult:
    """``Pr[A]`` for TSO/PSO at any n, honouring the shared-program coupling.

    Threads' windows are conditionally i.i.d. given the program, so
    ``Pr[A] = E_prog[ Pr[A | program] ]`` where the conditional term is
    evaluated *exactly*: the conditional trailing-run law by DP
    (:func:`repro.core.tso_analysis.conditional_run_distribution`), folded
    into the conditional window law, then through Theorem 6.1.  Only the
    program draw is sampled.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 threads, got {n}")
    settle = model.uniform_settle_probability
    if settle is None:
        raise ModelDefinitionError("Rao–Blackwell route needs a uniform settle probability")
    if model.relaxed_pairs not in (TSO.relaxed_pairs, PSO.relaxed_pairs, SC.relaxed_pairs,
                                   WO.relaxed_pairs):
        raise ModelDefinitionError(
            f"no conditional window law for {model.name}; use estimate_non_manifestation"
        )
    source = RandomSource(seed)
    values = np.empty(programs)
    for index in range(programs):
        store_mask = source.type_array(store_probability, body_length)
        conditional = _conditional_window_distribution(
            model, store_mask, settle, max_run
        )
        values[index] = disjointness_iid(conditional, n, beta).value
    estimate = float(values.mean())
    spread = float(values.std(ddof=1)) if programs > 1 else 0.0
    return RaoBlackwellResult(estimate, spread / math.sqrt(programs), programs)


def _conditional_window_distribution(
    model: MemoryModel,
    store_mask: np.ndarray,
    settle: float,
    max_run: int,
) -> DiscreteDistribution:
    """Conditional window-growth law given the explicit program prefix."""
    if model.relaxed_pairs in _INDEPENDENT_WINDOW_MODELS:
        return window_distribution(model)
    runs = conditional_run_distribution(store_mask, settle, max_run)
    load_gap = window_from_run_distribution(runs, settle)
    if model.relaxed_pairs == PSO.relaxed_pairs:
        return pso_window_from_load_gap(load_gap, settle)
    return load_gap
