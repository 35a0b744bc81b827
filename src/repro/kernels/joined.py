"""Joined-model kernels — the §6 non-manifestation event in batch.

``non_manifestation_batch`` is the vectorized end-to-end trial of
Theorems 6.2/6.3: settle a ``(batch, n)`` growth matrix with the
shared-program coupling, add the critical-section length, shift every
thread geometrically, and count trials where no two windows overlap.

This function *is* the historical batch path of
:func:`repro.core.manifestation.estimate_non_manifestation` (relocated
here verbatim): its random-draw sequence is unchanged, so every published
fixed-seed number is bit-identical — pinned by a golden-value test.

``non_manifestation_scalar_batch`` is the scalar reference backend: per
trial it generates one explicit program, settles each thread with the
round-by-round reference simulator
(:class:`repro.core.settling.SettlingProcess`), and checks disjointness
on scalar draws.  It defines the semantics the vectorized kernel must
reproduce statistically, and is what ``backend="scalar"`` selects.

``non_manifestation_fused_batch`` is the fused fast path
(``backend="fused"``): the same settle → shift → disjointness chain run
in one pass over memory.  Per the backend contract it is
**statistically equivalent** to the composed chain (same joint law,
validated by the two-sample z harness in
:mod:`repro.kernels.validation`): every geometric block is drawn by
in-place inversion of one uniform block (``floor(log1p(-u) /
log(beta))``) instead of ``Generator.geometric``, in-place ufuncs
replace the per-round ``np.where``/``np.minimum`` temporaries, the
growth matrix is promoted to window lengths in place, and for ``n == 2``
the disjointness test is a closed form with no ``argsort`` and no
gathered start/end matrices.

The fused counts are not merely z-equivalent at the paper's parameters:
they **equal** the vectorized counts, draw for draw, whenever every
geometric ratio is at most 2/3 (``beta <= 2/3``; the paper models settle
with ratio 1/2).  For a success probability ``p = 1 - beta >= 1/3``,
numpy's ``Generator.geometric(p)`` draws by search, consuming one
uniform double per variate, and returns exactly what the inversion above
computes from that same double.  Above 2/3 numpy switches to a different
algorithm and the fixed-seed numbers differ.  Like every backend the
fused kernel is bit-reproducible on its own terms: fixed ``(seed,
shards)`` gives identical fused counts at any worker count.
"""

from __future__ import annotations

import numpy as np

from ..core.instructions import generate_program
from ..core.memory_models import PSO, SC, TSO, WO, MemoryModel
from ..core.settling import SettlingProcess
from ..core.shift import batch_disjoint, segments_disjoint
from ..core.window_sampling import sample_growth_matrix
from ..stats.rng import RandomSource, _check_beta

__all__ = [
    "non_manifestation_batch",
    "non_manifestation_scalar_batch",
    "non_manifestation_fused_batch",
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


def _fused_geometric(source: RandomSource, beta: float,
                     shape: tuple[int, int]) -> np.ndarray:
    """Geometric block by in-place inversion of one uniform block.

    ``X = floor(log(1 - U) / log(beta))`` with ``U ~ U[0, 1)`` has
    ``Pr[X = k] = (1 - beta) * beta**k`` — the same law as
    :meth:`RandomSource.geometric_array` — at under half the cost of
    ``Generator.geometric`` plus its ``astype``/decrement copies: the
    uniform block is transformed in place and only the final int64 cast
    allocates.  For ``beta <= 2/3`` the result equals
    ``Generator.geometric(1 - beta) - 1`` on the same stream, variate for
    variate (numpy draws those by search from one uniform double each);
    above, numpy consumes the stream differently and the draws differ.
    """
    _check_beta(beta)
    if beta == 0.0:
        return np.zeros(shape, dtype=np.int64)
    u = source.generator.random(shape)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= np.log(beta)
    np.floor(u, out=u)
    return u.astype(np.int64)


def non_manifestation_fused_batch(
    source: RandomSource,
    batch: int,
    model: MemoryModel,
    n: int,
    store_probability: float,
    beta: float,
    body_length: int,
    critical_section_length: int,
) -> int:
    """One fused §6 batch: settle, shift, and count A in a single pass.

    Same joint law as :func:`non_manifestation_batch` — and the same
    counts whenever ``beta <= 2/3`` (see the module docstring) — while
    allocating only
    the arrays that must exist: the run matrix and the current uniform
    block.  Custom models without a uniform settle law delegate to the
    composed chain — fusion is a fast path, never a semantic fork.
    """
    if batch <= 0 or n <= 0:
        raise ValueError(f"batch and n must be positive, got {batch}, {n}")
    shape = (batch, n)
    settle = model.uniform_settle_probability
    if model.relaxed_pairs == SC.relaxed_pairs:
        lengths = np.full(shape, critical_section_length, dtype=np.int64)
    elif settle is None:
        # No uniform law to vectorise — the composed chain's reference
        # fallback is already the only implementation.
        return non_manifestation_batch(
            source, batch, model, n, store_probability, beta,
            body_length, critical_section_length,
        )
    elif model.relaxed_pairs == WO.relaxed_pairs:
        lengths = _fused_geometric(source, settle, shape)
        np.minimum(lengths, body_length, out=lengths)
        chase = _fused_geometric(source, settle, shape)
        np.minimum(chase, lengths, out=chase)
        lengths -= chase
        lengths += critical_section_length
    elif model.relaxed_pairs in (TSO.relaxed_pairs, PSO.relaxed_pairs):
        runs = np.zeros(shape, dtype=np.int64)
        for _ in range(body_length):
            is_store = source.bernoulli_array(store_probability, batch)
            climbs = _fused_geometric(source, settle, shape)
            rows = is_store[:, np.newaxis]
            # Disjoint row masks: stores extend the run, loads split it.
            np.add(runs, 1, out=runs, where=rows)
            np.logical_not(is_store, out=is_store)  # `rows` now = loads
            np.minimum(runs, climbs, out=runs, where=rows)
        lengths = _fused_geometric(source, settle, shape)
        np.minimum(lengths, runs, out=lengths)
        if model.relaxed_pairs == PSO.relaxed_pairs:
            chase = _fused_geometric(source, settle, shape)
            np.minimum(chase, lengths, out=chase)
            lengths -= chase
        lengths += critical_section_length
    else:
        return non_manifestation_batch(
            source, batch, model, n, store_probability, beta,
            body_length, critical_section_length,
        )
    shifts = _fused_geometric(source, beta, shape)
    if n == 2:
        # Closed form of the stable-sort disjointness check: with
        # s0 <= s1 the windows are disjoint iff s1 > s0 + l0, otherwise
        # iff s0 > s1 + l1 (ties keep thread order, matching the stable
        # argsort in ``batch_disjoint``).
        s0, s1 = shifts[:, 0], shifts[:, 1]
        first = s0 <= s1
        disjoint = np.where(first,
                            s1 - s0 > lengths[:, 0],
                            s0 - s1 > lengths[:, 1])
        return int(np.count_nonzero(disjoint))
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
