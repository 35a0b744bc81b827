"""Vectorised Monte-Carlo samplers for critical-window growth.

The joined model of §6 needs, per trial, the window growths of ``n``
threads that share **one** initial program but reorder independently
(the paper stresses this coupling: "we generate a single initial random
program, then independently reorder n copies").  These samplers produce
``(trials, threads)`` growth matrices honouring that dependence structure,
using numpy throughout:

* **SC** — all zeros.
* **WO** — the window law is program-independent (every pair may swap at
  the same rate), so entries are i.i.d.: two coupled geometric climbs.
* **TSO / PSO** — per trial, one shared store/load draw per settling
  round drives the trailing-run Markov chains of all threads in parallel
  (independent climb randomness per thread), then the critical-load climb
  and, for PSO, the critical-store chase.  The chains are read backward
  from the last round, only as far as a round can still change a run,
  wherever the stream can seek; elsewhere they are stepped forward.
* anything else — an honest per-trial loop over the reference settler
  (:class:`repro.core.settling.SettlingProcess`) with a shared program.

Each sampler is validated against the scalar reference in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..stats.rng import (
    RandomSource,
    bernoulli_doubles,
    geometric_doubles,
    geometric_from_uniforms,
)
from .instructions import DEFAULT_STORE_PROBABILITY, generate_program
from .memory_models import PSO, SC, TSO, WO, MemoryModel
from .settling import DEFAULT_BODY_LENGTH, SettlingProcess

__all__ = ["sample_growth_matrix"]


def sample_growth_matrix(
    model: MemoryModel,
    source: RandomSource,
    trials: int,
    threads: int,
    body_length: int = DEFAULT_BODY_LENGTH,
    store_probability: float = DEFAULT_STORE_PROBABILITY,
) -> np.ndarray:
    """Sample window growths, shape ``(trials, threads)``.

    Rows are independent trials; within a row the threads share one random
    program and reorder independently.
    """
    if trials <= 0 or threads <= 0:
        raise ValueError(f"trials and threads must be positive, got {trials}, {threads}")
    shape = (trials, threads)
    if model.relaxed_pairs == SC.relaxed_pairs:
        return np.zeros(shape, dtype=np.int64)
    settle = model.uniform_settle_probability
    if settle is None:
        return _sample_growth_reference(
            model, source, trials, threads, body_length, store_probability
        )
    if model.relaxed_pairs == WO.relaxed_pairs:
        return _sample_growth_weak_ordering(source, settle, shape, body_length)
    if model.relaxed_pairs in (TSO.relaxed_pairs, PSO.relaxed_pairs):
        chase = model.relaxed_pairs == PSO.relaxed_pairs
        return _sample_growth_store_buffer(
            source, settle, store_probability, shape, body_length, chase
        )
    return _sample_growth_reference(
        model, source, trials, threads, body_length, store_probability
    )


def _sample_growth_weak_ordering(
    source: RandomSource,
    settle: float,
    shape: tuple[int, int],
    body_length: int,
) -> np.ndarray:
    """WO: γ = i − min(Geom(s), i) with i = min(Geom(s), m)."""
    load_climb = np.minimum(source.geometric_array(settle, shape), body_length)
    store_chase = np.minimum(source.geometric_array(settle, shape), load_climb)
    return load_climb - store_chase


def _sample_growth_store_buffer(
    source: RandomSource,
    settle: float,
    store_probability: float,
    shape: tuple[int, int],
    body_length: int,
    chase: bool,
) -> np.ndarray:
    """TSO/PSO: shared-program trailing-run chains, then the climb and chase.

    The per-round instruction type is drawn once per *trial* (the shared
    program); the climb randomness is per (trial, thread).  The runs come
    from the backward scan wherever the stream lets it seek, and from the
    forward loop elsewhere: the same numbers, the stream left in the same
    place.
    """
    if source.seekable and geometric_doubles(settle) is not None:
        runs = _scan_trailing_runs(source, settle, store_probability, shape, body_length)
    else:
        runs = _step_trailing_runs(source, settle, store_probability, shape, body_length)
    load_gap = np.minimum(source.geometric_array(settle, shape), runs)
    if not chase:
        return load_gap
    store_chase = np.minimum(source.geometric_array(settle, shape), load_gap)
    return load_gap - store_chase


def _step_trailing_runs(
    source: RandomSource,
    settle: float,
    store_probability: float,
    shape: tuple[int, int],
    body_length: int,
) -> np.ndarray:
    """The trailing-run chains advanced round by round, oldest first."""
    trials, _threads = shape
    runs = np.zeros(shape, dtype=np.int64)
    for _ in range(body_length):
        is_store = source.bernoulli_array(store_probability, trials)
        climbs = source.geometric_array(settle, shape)
        next_runs = np.minimum(runs, climbs)  # a LD splits/keeps the run
        runs = np.where(is_store[:, np.newaxis], runs + 1, next_runs)
    return runs


#: The backward scan tests its stop rule once per this many rounds read.
_SCAN_ROUNDS = 8
#: It reads at most this many uniforms (128 KB) at a time, and at least
#: one round: larger blocks ran slower per double on a 2-vCPU VM, their
#: temporaries page-faulting on every batch.
_SCAN_DOUBLES = 1 << 14


def _scan_trailing_runs(
    source: RandomSource,
    settle: float,
    store_probability: float,
    shape: tuple[int, int],
    body_length: int,
) -> np.ndarray:
    """The runs of :func:`_step_trailing_runs`, read from the last round back.

    Unrolled, the forward loop ends at ``min(S(0, T), min over load
    rounds l of climb_l + S(l + 1, T))``, with ``S(a, T)`` the store
    rounds from ``a`` to ``T - 1``.  Read newest first, a round can lower
    that minimum only while the stores after it number fewer than the
    minimum so far; once that fails on every entry, no earlier round
    matters (docs/MATH.md §3).  Each round is one coin double per trial
    and one climb double per entry (:func:`bernoulli_doubles`,
    :func:`geometric_doubles`; a point mass draws none), so round ``r``
    sits at a known offset in the stream, and only the rounds that can
    matter are read.  The stream is then left past the whole body, as
    the forward loop leaves it.
    """
    trials, threads = shape
    coins = trials * bernoulli_doubles(store_probability)
    per_round = coins + trials * threads * geometric_doubles(settle)
    rounds_per_read = max(1, min(_SCAN_ROUNDS, _SCAN_DOUBLES // max(per_round, 1)))
    above = body_length + 1  # above any run
    # Thread-major, so that per-trial counts broadcast along the long axis.
    runs = np.full((threads, trials), above, dtype=np.int64)
    stores_after = np.zeros(trials, dtype=np.int64)
    end, unchecked = body_length, 0
    while end > 0:
        if unchecked >= _SCAN_ROUNDS:
            if (stores_after >= runs).all():
                break
            unchecked = 0
        start = max(0, end - rounds_per_read)
        rounds = end - start
        block = source.uniforms_ahead(start * per_round, rounds * per_round)
        block = block.reshape(rounds, per_round)
        if coins:
            is_store = block[:, :coins] < store_probability
        else:
            is_store = np.full((rounds, trials), store_probability >= 1.0)
        if per_round > coins:  # inverted contiguous, exactly as geometric_array does
            uniforms = block[:, coins:].reshape(rounds, trials, threads)
            climbs = geometric_from_uniforms(
                np.ascontiguousarray(uniforms.transpose(0, 2, 1)), settle)
        else:
            climbs = np.zeros((rounds, threads, trials), dtype=np.int64)
        for store, climb in zip(is_store[::-1], climbs[::-1]):
            climb += np.where(store, above, stores_after)  # a store offers no run
            np.minimum(runs, climb, out=runs)
            stores_after += store
        end, unchecked = start, unchecked + rounds
    source.skip(body_length * per_round)
    return np.ascontiguousarray(np.minimum(runs, stores_after).T)


def _sample_growth_reference(
    model: MemoryModel,
    source: RandomSource,
    trials: int,
    threads: int,
    body_length: int,
    store_probability: float,
) -> np.ndarray:
    """Fallback for custom models: full settling with a shared program."""
    process = SettlingProcess(model)
    growths = np.zeros((trials, threads), dtype=np.int64)
    for trial in range(trials):
        program = generate_program(body_length, source, store_probability)
        for thread in range(threads):
            growths[trial, thread] = process.settle(program, source).window_growth
    return growths
