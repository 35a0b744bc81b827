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

``non_manifestation_scalar_batch`` is the scalar reference backend: per
trial it generates one explicit program, settles each thread with the
round-by-round reference simulator
(:class:`repro.core.settling.SettlingProcess`), and checks disjointness
on scalar draws.  It defines the semantics the vectorized kernel must
reproduce statistically, and is what ``backend="scalar"`` selects.
"""

from __future__ import annotations

import numpy as np

from ..core.instructions import generate_program
from ..core.memory_models import MemoryModel
from ..core.settling import SettlingProcess
from ..core.shift import batch_disjoint, segments_disjoint
from ..core.window_sampling import sample_growth_matrix
from ..stats.rng import RandomSource

__all__ = [
    "non_manifestation_batch",
    "non_manifestation_scalar_batch",
]


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


def non_manifestation_scalar_batch(
    source: RandomSource,
    batch: int,
    model: MemoryModel,
    n: int,
    store_probability: float,
    beta: float,
    body_length: int,
    critical_section_length: int,
) -> int:
    """The scalar reference §6 trial loop (one draw at a time).

    Per trial: one shared program (§6's "identical copies of a single
    program"), ``n`` independent reference settlings, ``n`` scalar
    geometric shifts, and the closed-interval disjointness check.
    """
    process = SettlingProcess(model)
    successes = 0
    for _ in range(batch):
        program = generate_program(body_length, source, store_probability)
        lengths = np.empty(n, dtype=np.int64)
        for thread in range(n):
            growth = process.settle(program, source).window_growth
            lengths[thread] = growth + critical_section_length
        shifts = np.array([source.geometric(beta) for _ in range(n)],
                          dtype=np.int64)
        successes += segments_disjoint(shifts, lengths)
    return int(successes)
