"""The shift process of §5 (Definition 1): random interleaving of windows.

``n`` closed integer segments of lengths ``γ̄ = (γ_1, …, γ_n)`` originate
at 0 and are translated by i.i.d. geometric shifts
``Pr[s_i = k] = (1 - β) β^k`` (the paper's ``β = 1/2`` gives
``2^{-(k+1)}``).  The event of interest, ``A(γ̄)``, is that the shifted
segments ``[s_i, s_i + γ_i]`` are *mutually disjoint*.

Disjointness convention
-----------------------
Segments are **closed** intervals with integer endpoints, so two segments
are disjoint iff the later one starts strictly past the earlier one's end:
``s_j ≥ s_i + γ_i + 1`` (shared endpoints count as overlap).  This is the
convention under which every closed form in §5/§6 of the paper holds — it
is visible in the proof of Theorem 5.1, where segment ``j`` following
segment ``i`` contributes a factor ``2^{-(ℓ + γ_i + 1)} = Pr[s_j ≥ ℓ +
γ_i + 1]``, and it is what makes Theorem 6.2's SC value come out to 1/6.
It corresponds to a window's closed time interval from its load's *read
instant* to its store's *commit instant*.

The paper is not perfectly consistent about this: Figure 2's caption calls
segments that merely touch "disjoint" (a half-open reading), and the
window-index formulation of Appendix A.3 differs by one unit as well.
Because the theorems' numbers are the ground truth being reproduced, the
closed convention is the default everywhere; pass ``closed=False`` to the
checkers to get the half-open reading (used only to reproduce Figure 2's
caption verbatim).  See EXPERIMENTS.md for the full accounting.

This module is the *simulation* side: samplers and vectorised disjointness
checks.  Closed forms live in :mod:`repro.core.shift_analytic`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..runconfig import RunConfig
from ..stats.montecarlo import BernoulliResult, run_event_trials
from ..stats.rng import RandomSource

__all__ = [
    "ShiftProcess",
    "segments_disjoint",
    "batch_disjoint",
    "estimate_disjointness",
    "DEFAULT_SHIFT_RATIO",
]

#: The paper's geometric-shift ratio β (``Pr[s=k] = (1-β)β^k``).
DEFAULT_SHIFT_RATIO = 0.5


def segments_disjoint(
    shifts: np.ndarray | list[int],
    lengths: np.ndarray | list[int],
    closed: bool = True,
) -> bool:
    """Whether segments ``[shifts[i], shifts[i] + lengths[i]]`` are
    mutually disjoint.

    With ``closed=True`` (the theorem convention; default) a shared
    endpoint counts as overlap; ``closed=False`` gives the half-open
    reading Figure 2's caption uses.

    >>> segments_disjoint([0, 3], [2, 1])
    True
    >>> segments_disjoint([0, 2], [2, 1])  # endpoint 2 is shared
    False
    >>> segments_disjoint([0, 2], [2, 1], closed=False)
    True
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if shifts.shape != lengths.shape or shifts.ndim != 1:
        raise ValueError("shifts and lengths must be 1-d arrays of equal size")
    order = np.argsort(shifts, kind="stable")
    starts = shifts[order]
    ends = starts + lengths[order]
    if closed:
        return bool(np.all(starts[1:] > ends[:-1]))
    return bool(np.all(starts[1:] >= ends[:-1]))


def batch_disjoint(shifts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorised :func:`segments_disjoint` over a batch.

    Parameters
    ----------
    shifts:
        Integer array of shape ``(batch, n)``.
    lengths:
        Integer array of shape ``(n,)`` or ``(batch, n)``.

    Returns a boolean array of shape ``(batch,)``.
    """
    shifts = np.asarray(shifts, dtype=np.int64)
    if shifts.ndim != 2:
        raise ValueError(f"shifts must be 2-d (batch, n), got shape {shifts.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim == 1:
        lengths = np.broadcast_to(lengths, shifts.shape)
    if lengths.shape != shifts.shape:
        raise ValueError(f"lengths shape {lengths.shape} incompatible with {shifts.shape}")
    if shifts.shape[1] == 2:
        # The sort below in closed form: with s0 <= s1 the segments are
        # disjoint iff s1 > s0 + l0, otherwise iff s0 > s1 + l1 (a tie
        # keeps thread order, as the stable argsort does).
        s0, s1 = shifts[:, 0], shifts[:, 1]
        return np.where(s0 <= s1, s1 - s0 > lengths[:, 0], s0 - s1 > lengths[:, 1])
    order = np.argsort(shifts, axis=1, kind="stable")
    starts = np.take_along_axis(shifts, order, axis=1)
    ends = starts + np.take_along_axis(lengths, order, axis=1)
    return np.all(starts[:, 1:] > ends[:, :-1], axis=1)


class ShiftProcess:
    """Sampler for the shift process with geometric ratio ``beta``."""

    def __init__(self, beta: float = DEFAULT_SHIFT_RATIO):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {beta}")
        self._beta = beta

    @property
    def beta(self) -> float:
        return self._beta

    def sample_shifts(self, source: RandomSource, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. shifts."""
        return source.geometric_array(self._beta, count)

    def sample_event(self, source: RandomSource, lengths: np.ndarray | list[int]) -> bool:
        """One draw of the disjointness event ``A(γ̄)``."""
        lengths = np.asarray(lengths, dtype=np.int64)
        shifts = self.sample_shifts(source, lengths.size)
        return segments_disjoint(shifts, lengths)


def estimate_disjointness(
    lengths: list[int] | tuple[int, ...],
    trials: int,
    beta: float = DEFAULT_SHIFT_RATIO,
    seed: int | None = 0,
    confidence: float = 0.99,
    *,
    config: RunConfig | None = None,
) -> BernoulliResult:
    """Monte-Carlo estimate of ``Pr[A(γ̄)]`` with a confidence interval.

    The benches compare this against the exact Theorem 5.1 value from
    :func:`repro.core.shift_analytic.disjointness_probability`.  Each
    batch is one call of the vectorized kernel
    :func:`repro.kernels.shift.shift_disjoint_batch`, run by
    :func:`repro.stats.montecarlo.run_event_trials`; ``config`` (a
    :class:`repro.runconfig.RunConfig`) carries the engine knobs, so the
    estimate shards, checkpoints, caches and is observed like any other.
    """
    from ..kernels.shift import shift_disjoint_batch

    lengths = tuple(int(length) for length in lengths)
    if not lengths:
        raise ValueError("need at least one segment")
    ShiftProcess(beta)  # validates beta at the call, not inside a shard
    label = f"shift:lengths={','.join(map(str, lengths))}:beta={beta}"
    return run_event_trials(
        partial(shift_disjoint_batch, lengths=lengths, beta=beta), trials,
        seed=seed, confidence=confidence, checkpoint_label=label,
        config=config)
