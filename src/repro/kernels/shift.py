"""Vectorized shift-process kernels — Theorem 5.1 disjointness in batch.

The shift process (§5, Definition 1) translates ``n`` closed segments by
i.i.d. geometric shifts and asks whether they are mutually disjoint.  The
scalar reference draws one event per call
(:meth:`repro.core.shift.ShiftProcess.sample_event`); the kernels here
draw a ``(batch, n)`` shift matrix in one call and count disjoint rows
with the shared vectorized checker
(:func:`repro.core.shift.batch_disjoint` — closed-interval convention,
shared endpoints overlap).

The one shift estimator, :func:`repro.core.shift.estimate_disjointness`,
binds :func:`shift_disjoint_batch` as its module-level batch trial, so
parallelism, retries, checkpoints and manifests all compose unchanged.
"""

from __future__ import annotations

import numpy as np

from ..core.shift import DEFAULT_SHIFT_RATIO, batch_disjoint
from ..stats.rng import RandomSource

__all__ = [
    "sample_shifts_batch",
    "shift_disjoint_batch",
]


def sample_shifts_batch(
    source: RandomSource,
    batch: int,
    n: int,
    beta: float = DEFAULT_SHIFT_RATIO,
) -> np.ndarray:
    """Draw a ``(batch, n)`` matrix of i.i.d. geometric shifts."""
    if batch <= 0 or n <= 0:
        raise ValueError(f"batch and n must be positive, got {batch}, {n}")
    return source.geometric_array(beta, (batch, n))


def shift_disjoint_batch(
    source: RandomSource,
    batch: int,
    lengths: np.ndarray | list[int] | tuple[int, ...],
    beta: float = DEFAULT_SHIFT_RATIO,
) -> int:
    """Number of disjoint outcomes among ``batch`` draws of ``A(γ̄)``.

    ``lengths`` are the segment lengths γ̄ (one closed segment
    ``[s_i, s_i + γ_i]`` per entry).  This is the engine-ready batch
    trial: ``batch`` rows of shifts, one vectorized disjointness check.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    shifts = sample_shifts_batch(source, batch, lengths.size, beta)
    return int(batch_disjoint(shifts, lengths).sum())
