"""Vectorized shift-process kernels — Theorem 5.1 disjointness in batch.

The shift process (§5, Definition 1) translates ``n`` closed segments by
i.i.d. geometric shifts and asks whether they are mutually disjoint.  The
scalar reference draws one event per call
(:meth:`repro.core.shift.ShiftProcess.sample_event`); the kernels here
draw a ``(batch, n)`` shift matrix in one call and count disjoint rows
with the shared vectorized checker
(:func:`repro.core.shift.batch_disjoint` — closed-interval convention,
shared endpoints overlap).

:func:`estimate_shift_disjointness` rides the sharded Monte-Carlo engine
(:func:`repro.stats.montecarlo.run_event_trials`): the kernel is a
module-level picklable batch trial, so parallelism, retries, checkpoints
and manifests all compose unchanged.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.shift import DEFAULT_SHIFT_RATIO, batch_disjoint
from ..runconfig import RunConfig
from ..stats.montecarlo import BernoulliResult, run_event_trials
from ..stats.rng import RandomSource

__all__ = [
    "sample_shifts_batch",
    "shift_disjoint_batch",
    "estimate_shift_disjointness",
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


def _shift_batch_trial(
    source: RandomSource,
    batch: int,
    lengths: tuple[int, ...],
    beta: float,
) -> int:
    """Module-level kernel so the engine can pickle it across workers."""
    return shift_disjoint_batch(source, batch, lengths, beta)


def estimate_shift_disjointness(
    lengths: list[int] | tuple[int, ...],
    trials: int,
    beta: float = DEFAULT_SHIFT_RATIO,
    seed: int | None = 0,
    confidence: float = 0.99,
    *,
    config: RunConfig | None = None,
) -> BernoulliResult:
    """Monte-Carlo ``Pr[A(γ̄)]`` on the sharded engine, vectorized.

    The picklable counterpart of
    :func:`repro.core.shift.estimate_disjointness`: ``config`` (a
    :class:`repro.runconfig.RunConfig`) forwards to
    :func:`repro.stats.montecarlo.run_event_trials`, so the kernel fans
    out over processes and journals/manifests like any other experiment.
    """
    lengths = tuple(int(length) for length in lengths)
    batch_trial = partial(_shift_batch_trial, lengths=lengths, beta=beta)
    label = f"shift:lengths={','.join(map(str, lengths))}:beta={beta}"
    return run_event_trials(batch_trial, trials, seed=seed, confidence=confidence,
                            checkpoint_label=label, config=config)
