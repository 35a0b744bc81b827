"""Joined-model kernels — the §6 non-manifestation event in batch.

``non_manifestation_batch`` is the vectorized end-to-end trial of
Theorems 6.2/6.3: settle a ``(batch, n)`` growth matrix with the
shared-program coupling, add the critical-section length, shift every
thread geometrically, and count trials where no two windows overlap.

This function *is* the historical batch path of
:func:`repro.core.manifestation.estimate_non_manifestation` (relocated
here verbatim): its random-draw sequence is unchanged, so every published
fixed-seed number is bit-identical — pinned by a golden-value test.  Its
speed comes from the two primitives it composes:
:meth:`RandomSource.geometric_array` draws the settle climbs and shifts
by in-place inversion of one uniform block wherever that returns numpy's
own geometric variates (every ratio up to 2/3, which covers the paper's
1/2), and :func:`repro.core.shift.batch_disjoint` checks two threads in
closed form instead of sorting.

The draw-by-draw reference loop it is checked against (one explicit
program per trial, settled round by round) lives with the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

from ..core.memory_models import MemoryModel
from ..core.shift import batch_disjoint
from ..core.window_sampling import sample_growth_matrix
from ..stats.rng import RandomSource

__all__ = ["non_manifestation_batch"]


def non_manifestation_batch(
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

    Module level (rather than a closure inside the estimator) so that a
    ``functools.partial`` over it pickles and the batches can fan out over
    worker processes.
    """
    growths = sample_growth_matrix(
        model, source, batch, n, body_length, store_probability
    )
    lengths = growths + critical_section_length
    shifts = source.geometric_array(beta, (batch, n))
    return int(batch_disjoint(shifts, lengths).sum())

