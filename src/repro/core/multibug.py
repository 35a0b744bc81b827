"""Scaling in the number of bugs — the dual axis to Theorem 6.3.

The paper scales the *thread count* n for a single canonical bug and finds
the memory-model gap vanishes.  Real programs scale along another axis:
one pair of threads, but **many** racy critical sections.  This module
analyses K independent atomicity violations at well-separated positions
of the (identical) two-thread program, under the paper's own execution
model:

* the threads' relative offset is a single shared value for the whole run
  (the shift model's per-thread shift):  ``d = s₂ − s₁``,
  ``Pr[d = 0] = (1−β)/(1+β)``, ``Pr[d = k] = (1−β)β^{|k|}/(1+β)``;
* for a given ``d > 0`` the j-th bug survives iff the *earlier* thread's
  j-th window ends before the later thread reaches it: ``Γ₁⁽ʲ⁾ < d``
  (symmetrically for d < 0) — only one thread's windows enter, and
  windows of well-separated sections live in disjoint program regions, so
  they are genuinely independent.  Hence **exactly**:

  ``Pr[no bug manifests] = Σ_{k≥1} Pr[|d| = k] · F_Γ(k − 1)^K``

  with ``F_Γ`` the window-length CDF.  (``d = 0`` loses every section.)

The headline result, benched as E16: under SC the windows are
deterministic (Γ ≡ 2), so the survival probability is **constant in K**
(= Pr[|d| ≥ 3] = 1/6), while any model with geometric window tails decays
like ``Θ(1/K)`` (Laplace's method on the sum).  Along the bug-count axis
the strict model's relative advantage *diverges* — the mirror image of
Theorem 6.3's vanishing gap along the thread axis.  Whether a strict
memory model is worth its cost therefore depends on which way a system
grows: more cores (no), or more unsynchronised code per core pair (yes).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import ModelDefinitionError
from ..runconfig import RunConfig
from ..stats.montecarlo import BernoulliResult, run_event_trials
from ..stats.rng import RandomSource, _check_beta
from .distributions import ValueWithError
from .instructions import _check_program_parameters
from .memory_models import MemoryModel
from .settling import DEFAULT_BODY_LENGTH
from .shift import DEFAULT_SHIFT_RATIO
from .shift_analytic import WINDOW_LENGTH_OFFSET
from .window_analytic import window_distribution
from .window_sampling import sample_growth_matrix

__all__ = [
    "shift_difference_pmf",
    "multi_bug_survival",
    "estimate_multi_bug_survival",
    "multi_bug_gap_curve",
]


def shift_difference_pmf(k: int, beta: float = DEFAULT_SHIFT_RATIO) -> float:
    """``Pr[s₂ − s₁ = k]`` for i.i.d. geometric shifts of ratio β.

    The discrete two-sided law ``(1−β) β^{|k|} / (1+β)``; at β = 1/2 this
    gives 1/3 at k = 0 and 1/6 at |k| = 1, matching the direct sums used
    in the shift-analytic tests.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return (1.0 - beta) * beta ** abs(k) / (1.0 + beta)


def multi_bug_survival(
    model: MemoryModel,
    bug_count: int,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    tolerance: float = 1e-12,
) -> ValueWithError:
    """Exact ``Pr[none of K separated bugs manifests]``, two threads.

    ``Σ_{k≥1} 2·Pr[d = k] · F_Γ(k−1)^K`` with adaptive truncation (the
    tail is bounded by the raw shift-difference tail).  ``bug_count = 1``
    reproduces :func:`repro.core.manifestation.non_manifestation_probability`
    at n = 2.
    """
    if bug_count < 1:
        raise ValueError(f"bug_count must be >= 1, got {bug_count}")
    growth = window_distribution(model, store_probability)
    prefix = growth.prefix
    cumulative = np.cumsum(prefix)

    def window_cdf(x: int) -> float:
        """Pr[Γ <= x] = Pr[growth <= x - WINDOW_LENGTH_OFFSET]."""
        index = x - WINDOW_LENGTH_OFFSET
        if index < 0:
            return 0.0
        if index >= cumulative.size:
            return 1.0  # beyond the stored prefix (tail bound folded below)
        return float(cumulative[index])

    total = 0.0
    k = 1
    while True:
        weight = 2.0 * shift_difference_pmf(k, beta)
        total += weight * window_cdf(k - 1) ** bug_count
        # Everything beyond k contributes at most the remaining shift mass.
        remaining = 2.0 * beta ** (k + 1) / (1.0 + beta)
        if remaining < tolerance:
            break
        k += 1
        if k > 10_000:  # pragma: no cover - geometric tails terminate long before
            break
    # Window-law truncation error: each CDF evaluation may be low by at
    # most the growth law's tail bound, amplified by K via the power —
    # bounded by K * tail per term, summed with the shift weights (<= 1).
    error = remaining + min(1.0, bug_count * growth.tail_bound)
    return ValueWithError(total, error)


def _multi_bug_batch_trial(
    source: RandomSource,
    batch: int,
    model: MemoryModel,
    bug_count: int,
    store_probability: float,
    beta: float,
    body_length: int,
) -> int:
    """The batch trial of :func:`estimate_multi_bug_survival`."""
    d = source.geometric_array(beta, batch) - source.geometric_array(beta, batch)
    # Sections live in disjoint program regions: their windows are fully
    # independent, so sample them as separate single-thread draws (the
    # multi-thread sampler would wrongly couple them through one program).
    growths = sample_growth_matrix(
        model, source, batch * bug_count, 1, body_length, store_probability
    ).reshape(batch, bug_count)
    lengths = growths + WINDOW_LENGTH_OFFSET
    survive = (lengths < np.abs(d)[:, np.newaxis]).all(axis=1) & (d != 0)
    return int(survive.sum())


def estimate_multi_bug_survival(
    model: MemoryModel,
    bug_count: int,
    trials: int,
    seed: int | None = 0,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
    body_length: int = DEFAULT_BODY_LENGTH,
    confidence: float = 0.99,
    *,
    config: RunConfig | None = None,
) -> BernoulliResult:
    """Monte-Carlo validation of :func:`multi_bug_survival`.

    Per trial: draw the shared offset ``d``; if ``d = 0`` every section
    overlaps; otherwise draw the earlier thread's K window growths
    (independent sections → independent programs) and require every
    window to close before ``|d|``.

    The module-level batch trial runs on
    :func:`repro.stats.montecarlo.run_event_trials`; ``config`` (a
    :class:`repro.runconfig.RunConfig`) carries the engine knobs, so
    the estimate shards, checkpoints, caches and is observed like any
    other.  The model and the program and shift parameters are checked
    before any shard runs (``ModelDefinitionError``, ``ProgramError``,
    ``ValueError``).
    """
    if bug_count < 1:
        raise ValueError(f"bug_count must be >= 1, got {bug_count}")
    _check_program_parameters(body_length, store_probability)
    _check_beta(beta)
    if model.uniform_settle_probability is None and model.relaxed_pairs:
        raise ModelDefinitionError(
            "multi-bug Monte Carlo needs a uniform settle probability"
        )
    kernel = partial(_multi_bug_batch_trial, model=model, bug_count=bug_count,
                     store_probability=store_probability, beta=beta,
                     body_length=body_length)
    label = (f"multibug:{model.name}:K={bug_count}:p={store_probability}"
             f":beta={beta}:body={body_length}")
    return run_event_trials(kernel, trials, seed=seed, confidence=confidence,
                            checkpoint_label=label, config=config)


def multi_bug_gap_curve(
    bug_counts: list[int],
    models: tuple[MemoryModel, ...] | None = None,
    store_probability: float = 0.5,
    beta: float = DEFAULT_SHIFT_RATIO,
) -> list[dict[str, object]]:
    """Survival per model over bug counts, with the diverging SC/WO ratio.

    The dual of :func:`repro.analysis.asymptotics.exponent_gap_curve`:
    there the ratio tends to 1; here it grows without bound (≈ K/6·c).
    """
    from .memory_models import PAPER_MODELS

    chosen = models if models is not None else PAPER_MODELS
    rows = []
    for bug_count in bug_counts:
        row: dict[str, object] = {"bugs": bug_count}
        values = {}
        for model in chosen:
            value = multi_bug_survival(model, bug_count, store_probability, beta).value
            values[model.name] = value
            row[f"Pr[A] {model.name}"] = value
        if "SC" in values and "WO" in values and values["WO"] > 0:
            row["SC/WO ratio"] = values["SC"] / values["WO"]
        rows.append(row)
    return rows
