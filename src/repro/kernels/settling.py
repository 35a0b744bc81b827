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
identical while the stream positions differ — the kernel and the scalar
reference are statistically equivalent, not bit-identical (see
``docs/KERNELS.md``).
"""

from __future__ import annotations

import numpy as np

from ..core.instructions import DEFAULT_STORE_PROBABILITY
from ..core.memory_models import MemoryModel
from ..core.settling import DEFAULT_BODY_LENGTH
from ..core.window_sampling import sample_growth_matrix
from ..stats.rng import RandomSource

__all__ = ["window_growth_batch"]


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

