"""Vectorized machine kernels — the §2.2 canonical bug in batch.

The scalar machine (:mod:`repro.sim`) executes one trial at a time:
Python objects per core, a cycle loop, a store-buffer deque.  For the
canonical increment race under the geometric-launch scheduler, the whole
trial is expressible as array state — per ``(trial, core)`` integers for
the program counter, store-buffer occupancy, and the critical access
cycles — advanced one *global* cycle per loop iteration across the entire
batch.

Scope: the racy :func:`repro.sim.programs.canonical_increment` workload
under :class:`repro.sim.scheduler.GeometricLaunchScheduler`, for the
**SC**, **TSO** and **PSO** cores (:data:`SUPPORTED_MACHINE_MODELS`).
The WO core's out-of-order ready-set dynamics (register hazards across a
random issue window) do not vectorize honestly, and the fenced/atomic
variants change the per-op semantics — all of those raise here, and
``run_canonical_bug(backend="scalar")`` runs them.

Semantics mirrored from the scalar machine (validated statistically in
the test suite):

* per cycle, a scheduled core executes one op; the store buffer then
  gets a background drain chance ``drain_probability`` — for *every*
  core of a live trial, launched or not, retired or not;
* a store into a full buffer structurally stalls, draining one entry
  (FIFO-oldest for TSO; a uniformly random buffered address for PSO —
  every buffered address is distinct on this workload);
* the run ends when all cores have issued everything; remaining buffered
  stores flush on the following cycle in core-index order;
* the final counter replays the per-trial read/commit events of ``x`` in
  ``(cycle, core index)`` order — the same order the scalar machine's
  in-cycle core loop produces, since each core's read and commit cycles
  are at least two cycles apart.

The kernel draws randomness in a different stream order than the scalar
machine (per-cycle arrays instead of per-core streams), so the two
machines are statistically equivalent, not bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..sim.cpu import DEFAULT_BUFFER_CAPACITY, DEFAULT_DRAIN_PROBABILITY
from ..stats.rng import RandomSource

__all__ = [
    "SUPPORTED_MACHINE_MODELS",
    "machine_race_batch",
    "canonical_bug_batch",
]

#: Core models the vectorized machine kernel implements.
SUPPORTED_MACHINE_MODELS = ("SC", "TSO", "PSO")

#: Safety net mirroring :data:`repro.sim.machine.MAX_CYCLES` — geometric
#: tails make the horizon unbounded in principle, but a batch that is
#: still live after this many cycles indicates a kernel bug.
_MAX_CYCLES = 100_000


def machine_race_batch(
    source: RandomSource,
    batch: int,
    model_name: str,
    threads: int = 2,
    body_length: int = 8,
    beta: float = 0.5,
    drain_probability: float = DEFAULT_DRAIN_PROBABILITY,
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
    store_probability: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``batch`` canonical-increment races as array operations.

    Returns ``(reads, commits, finals)``: the critical load's read cycle
    and the critical store's commit cycle per ``(trial, core)`` — the
    measured critical window of :mod:`repro.sim.measurement` — and the
    final shared-counter value per trial (``finals < threads`` is the
    manifestation event).
    """
    model = model_name.upper()
    if model not in SUPPORTED_MACHINE_MODELS:
        known = ", ".join(SUPPORTED_MACHINE_MODELS)
        raise SimulationError(
            f"vectorized machine kernel supports {known}; {model_name!r} "
            "requires backend='scalar'"
        )
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    if threads < 2:
        raise ValueError(f"the race needs at least 2 threads, got {threads}")
    delays = source.geometric_array(beta, (batch, threads))
    if model == "SC":
        # In-order, immediate commits: read at launch + body, commit two
        # cycles later (the add sits between), all in closed form.
        reads = delays + body_length
        commits = reads + 2
    else:
        body_stores = source.bernoulli_array(store_probability,
                                             (batch, body_length))
        reads, commits = _store_buffer_timeline(
            source, delays, body_stores, threads, model == "PSO",
            drain_probability, buffer_capacity,
        )
    finals = _replay_counter(reads, commits)
    return reads, commits, finals


def canonical_bug_batch(
    source: RandomSource,
    batch: int,
    model_name: str,
    threads: int = 2,
    body_length: int = 8,
    beta: float = 0.5,
    drain_probability: float = DEFAULT_DRAIN_PROBABILITY,
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
) -> dict[int, int]:
    """Final-counter outcome counts over ``batch`` races (E10's PMF)."""
    _, _, finals = machine_race_batch(
        source, batch, model_name, threads, body_length, beta,
        drain_probability, buffer_capacity,
    )
    values, counts = np.unique(finals, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}


def _store_buffer_timeline(
    source: RandomSource,
    delays: np.ndarray,
    body_stores: np.ndarray,
    threads: int,
    pso: bool,
    drain_probability: float,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle-accurate TSO/PSO timelines for the canonical workload.

    Array state per ``(trial, core)``: program counter ``pc`` over the
    ``m + 3`` ops (m body ops, critical load, add, critical store),
    buffer occupancy ``occ``, whether the critical store is buffered and
    (TSO) how many entries sit ahead of it.  Store-to-load forwarding
    never fires on this workload (every load's address is disjoint from
    every earlier store's), so loads always read memory.
    """
    batch, body_length = body_stores.shape
    program_length = body_length + 3
    shape = (batch, threads)
    generator = source.generator

    pc = np.zeros(shape, dtype=np.int64)
    occ = np.zeros(shape, dtype=np.int64)
    crit_in = np.zeros(shape, dtype=bool)
    crit_rank = np.zeros(shape, dtype=np.int64)
    reads = np.full(shape, -1, dtype=np.int64)
    commits = np.full(shape, -1, dtype=np.int64)
    end_cycle = np.full(batch, -1, dtype=np.int64)
    trial_live = np.ones(batch, dtype=bool)
    rows = np.arange(batch)[:, np.newaxis]

    def drain(mask: np.ndarray, cycle: int) -> None:
        """Commit one buffered entry per masked core (mask ⊆ occ > 0)."""
        nonlocal occ, crit_in, crit_rank, commits
        if pso:
            # A drain picks a uniformly random buffered address; all
            # addresses are distinct here, so the critical store commits
            # with probability 1 / occupancy while buffered.
            uniform = generator.random(shape)
            crit_commit = mask & crit_in & (uniform * occ < 1.0)
        else:
            crit_commit = mask & crit_in & (crit_rank == 0)
        commits = np.where(crit_commit, cycle, commits)
        crit_in = crit_in & ~crit_commit
        if not pso:
            crit_rank = np.where(mask & crit_in, crit_rank - 1, crit_rank)
        occ = occ - mask.astype(np.int64)

    for cycle in range(_MAX_CYCLES):
        if not trial_live.any():
            break
        live = trial_live[:, np.newaxis]
        retired = pc >= program_length
        stepping = live & ~retired & (cycle >= delays)

        # ---- step phase: one op per scheduled, unretired core --------
        body_op = stepping & (pc < body_length)
        body_is_store = np.take_along_axis(
            body_stores, np.clip(pc, 0, body_length - 1), axis=1
        )
        storing = (body_op & body_is_store) | (stepping & (pc == body_length + 2))
        stalled = storing & (occ >= capacity)
        drain(stalled, cycle)  # structural stall: drain instead of issuing
        pushing = storing & ~stalled
        crit_push = pushing & (pc == body_length + 2)
        crit_in = crit_in | crit_push
        crit_rank = np.where(crit_push, occ, crit_rank)
        occ = occ + pushing.astype(np.int64)
        reads = np.where(stepping & (pc == body_length), cycle, reads)
        pc = pc + (stepping & ~stalled).astype(np.int64)

        # ---- background phase: buffers drain on every live core ------
        chance = generator.random(shape) < drain_probability
        drain(live & (occ > 0) & chance, cycle)

        # ---- end-of-trial bookkeeping --------------------------------
        finished = trial_live & (pc >= program_length).all(axis=1)
        end_cycle = np.where(finished, cycle + 1, end_cycle)
        trial_live = trial_live & ~finished
    else:  # pragma: no cover - defensive, mirrors Machine.MAX_CYCLES
        raise SimulationError(
            f"vectorized machine did not finish within {_MAX_CYCLES} cycles"
        )

    # Flush: remaining buffered criticals commit on the cycle after the
    # last core retired (core-index order is preserved by the replay key).
    commits = np.where(crit_in, np.broadcast_to(end_cycle[:, np.newaxis], shape),
                       commits)
    del rows
    return reads, commits


def _replay_counter(reads: np.ndarray, commits: np.ndarray) -> np.ndarray:
    """Final counter value per trial from the critical access cycles.

    Replays the ``2n`` read/commit events of ``x`` in ``(cycle, core)``
    order: a read captures the current value into the core's register; a
    commit publishes that captured value plus one.  Each ``(cycle, core)``
    pair holds at most one event (a core's read precedes its own commit
    by at least two cycles), so the key is collision-free.
    """
    batch, n = reads.shape
    cores = np.arange(n, dtype=np.int64)
    keys = np.concatenate([reads * n + cores, commits * n + cores], axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    value = np.zeros(batch, dtype=np.int64)
    held = np.zeros((batch, n), dtype=np.int64)
    rows = np.arange(batch)
    for slot in range(2 * n):
        event = order[:, slot]
        is_read = event < n
        core = np.where(is_read, event, event - n)
        held[rows, core] = np.where(is_read, value, held[rows, core])
        value = np.where(is_read, value, held[rows, core] + 1)
    return value
