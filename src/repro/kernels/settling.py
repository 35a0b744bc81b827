"""Vectorized settling kernels — Theorem 4.1 window growths in batch.

The scalar reference, :func:`repro.core.settling.sample_window_growth`,
draws one thread's critical-window growth γ per call.  These kernels draw
a whole batch as array operations, using the same model-specific laws:

* **SC** — γ = 0 (point mass).
* **WO** — two coupled geometric climbs; the window is program-independent.
* **TSO/PSO** — the trailing-store-run Markov chain of Lemma 4.2 advanced
  ``body_length`` rounds with array state, then the critical-load climb
  (and, for PSO, the critical-store chase).
* anything else — an honest scalar loop over the reference settler, so
  custom models still work (just not fast).

:func:`window_growth_batch` is the one-thread column of the §6 growth
matrix, :func:`repro.core.window_sampling.sample_growth_matrix` (with one
thread the shared-program coupling is void), so the two draw the same
numbers.  The vectorized chain draws its per-round climb variable
unconditionally (the scalar chain draws it only on load rounds); the
unused draws are independent of everything else, so the sampled law is
identical while the stream positions differ — the backends are
statistically equivalent, not bit-identical (see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import numpy as np

from ..core.instructions import DEFAULT_STORE_PROBABILITY
from ..core.memory_models import MemoryModel
from ..core.settling import DEFAULT_BODY_LENGTH, _require_store_load_only
from ..core.window_sampling import sample_growth_matrix
from ..stats.rng import RandomSource

__all__ = ["window_growth_batch", "trailing_run_batch"]


def trailing_run_batch(
    model: MemoryModel,
    source: RandomSource,
    trials: int,
    body_length: int = DEFAULT_BODY_LENGTH,
    store_probability: float = DEFAULT_STORE_PROBABILITY,
) -> np.ndarray:
    """Batch trailing-store-run lengths µ (the ``L_µ`` of Lemma 4.2).

    Vectorized analogue of :func:`repro.core.settling.sample_trailing_run`:
    TSO/PSO only (other models raise).  Returns an int64 array of shape
    ``(trials,)``.
    """
    settle = _require_store_load_only(model)
    _check_trials(trials)
    return _trailing_run_chain(source, settle, store_probability, trials, body_length)


def window_growth_batch(
    model: MemoryModel,
    source: RandomSource,
    trials: int,
    body_length: int = DEFAULT_BODY_LENGTH,
    store_probability: float = DEFAULT_STORE_PROBABILITY,
) -> np.ndarray:
    """Batch critical-window growths γ (the events ``B_γ`` of Theorem 4.1).

    Vectorized analogue of
    :func:`repro.core.settling.sample_window_growth`; rows are i.i.d.
    single-thread draws, the one-thread column of
    :func:`repro.core.window_sampling.sample_growth_matrix` (use that
    sampler for the shared-program *matrix* coupling of §6).
    Returns an int64 array of shape ``(trials,)``.
    """
    return sample_growth_matrix(model, source, trials, 1, body_length,
                                store_probability)[:, 0]


def _trailing_run_chain(
    source: RandomSource,
    settle: float,
    store_probability: float,
    trials: int,
    body_length: int,
) -> np.ndarray:
    """Advance ``trials`` independent trailing-run chains ``body_length`` rounds.

    Per round: a ST extends the run (``k → k + 1``); a LD climbs
    ``j = min(Geom(s), k)`` stores, splitting the run to ``j`` when it
    stops early (the same per-round idiom as
    :func:`repro.core.window_sampling.sample_growth_matrix`, without the
    shared-program coupling).
    """
    runs = np.zeros(trials, dtype=np.int64)
    for _ in range(body_length):
        is_store = source.bernoulli_array(store_probability, trials)
        climbs = source.geometric_array(settle, trials)
        runs = np.where(is_store, runs + 1, np.minimum(runs, climbs))
    return runs


def _check_trials(trials: int) -> None:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
