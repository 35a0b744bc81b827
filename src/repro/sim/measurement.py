"""Measuring critical windows on the machine — Theorem 4.1, mechanically.

The abstract model's window length Γ is the time from the critical load's
*read instant* to the critical store's *commit instant*.  Both instants
are directly observable on the simulated multiprocessor through the memory
access log, so the machine can measure its own window distribution and the
benches can compare its *shape* with the abstract laws:

* **SC** — the in-order core reads x, spends one cycle on the add, and
  commits: the window is a deterministic constant (the machine analogue
  of SC's point-mass window law);
* **TSO/PSO** — the store buffer delays the commit by a geometric drain
  wait: the window gains a geometric tail, exactly the abstract model's
  shape for store-buffer relaxations;
* **WO** — out-of-order issue spreads both endpoints.

Overlap of two threads' measured windows is *necessary* for the lost
update (the §3.2 argument made concrete), which
:func:`measure_critical_windows` also checks trial by trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.instructions import _check_program_parameters
from ..errors import SimulationError
from ..runconfig import RunConfig
from ..stats.bootstrap import BootstrapInterval, bootstrap_mean_interval
from ..stats.montecarlo import _check_trials, _estimate
from ..stats.transport import WindowLayout
from ..stats.rng import RandomSource, iter_batches
from .executor import TRIAL_SPAWN_BATCH, _check_core_options
from .machine import Machine, MachineResult
from .memory import AccessKind
from .programs import SHARED_COUNTER, canonical_increment, sample_body_types
from .scheduler import GeometricLaunchScheduler, Scheduler

__all__ = ["WindowMeasurement", "measure_critical_windows", "extract_windows"]


def extract_windows(result: MachineResult, threads: int) -> list[tuple[int, int]]:
    """Per-thread (read_cycle, commit_cycle) of the critical accesses.

    Requires the machine to have run with ``log_accesses=True`` on the
    canonical increment workload (one read of and one commit to the shared
    counter per thread).
    """
    reads: dict[str, int] = {}
    commits: dict[str, int] = {}
    for record in result.log:
        if record.location != SHARED_COUNTER:
            continue
        if record.kind == AccessKind.READ and record.core not in reads:
            reads[record.core] = record.cycle
        elif record.kind == AccessKind.COMMIT:
            commits[record.core] = record.cycle  # last commit wins (there is one)
    windows = []
    for thread in range(threads):
        name = f"T{thread}"
        if name not in reads or name not in commits:
            raise SimulationError(f"no critical accesses logged for {name}")
        windows.append((reads[name], commits[name]))
    return windows


def _windows_overlap(windows: list[tuple[int, int]]) -> bool:
    ordered = sorted(windows)
    return any(later_start <= earlier_end
               for (_, earlier_end), (later_start, _) in zip(ordered, ordered[1:]))


@dataclass(frozen=True)
class WindowMeasurement:
    """Aggregated machine-window statistics for one core model."""

    model: str
    threads: int
    trials: int
    durations: np.ndarray  # flattened per-thread window lengths
    overlap_trials: int
    manifest_trials: int
    manifest_without_overlap: int

    @property
    def mean_duration(self) -> BootstrapInterval:
        """Mean window length with a bootstrap interval."""
        return bootstrap_mean_interval(self.durations, seed=0)

    @property
    def deterministic(self) -> bool:
        """Whether every measured window had the same length (SC's signature)."""
        return bool(np.all(self.durations == self.durations[0]))

    def duration_fraction(self, length: int) -> float:
        """Empirical ``Pr[window length = length]``."""
        return float((self.durations == length).mean())

    def __str__(self) -> str:
        return (
            f"{self.model}: mean window {self.mean_duration} cycles; "
            f"overlaps in {self.overlap_trials}/{self.trials} trials"
        )


@dataclass(frozen=True)
class _WindowShard:
    """Per-shard window aggregate (plain arrays/ints: cheap to pickle)."""

    durations: np.ndarray
    overlap_trials: int
    manifest_trials: int
    manifest_without_overlap: int


def _window_shard(
    source: RandomSource,
    shard_trials: int,
    model_name: str,
    threads: int,
    body_length: int,
    scheduler: Scheduler | None,
    core_options: dict[str, object],
) -> _WindowShard:
    """Measure one shard of window trials (hot loop mirrors the executor's:
    scheduler hoisted out, trial streams pre-spawned in blocks)."""
    if scheduler is None:
        scheduler = GeometricLaunchScheduler()
    durations: list[int] = []
    overlap_trials = 0
    manifest_trials = 0
    manifest_without_overlap = 0
    for batch in iter_batches(shard_trials, TRIAL_SPAWN_BATCH):
        streams = source.spawn(2 * batch)
        for index in range(batch):
            body = sample_body_types(body_length, streams[2 * index])
            programs = [canonical_increment(thread, body) for thread in range(threads)]
            machine = Machine(
                model_name,
                programs,
                scheduler=scheduler,
                log_accesses=True,
                **core_options,
            )
            result = machine.run(streams[2 * index + 1])
            windows = extract_windows(result, threads)
            durations.extend(end - start for start, end in windows)
            overlapped = _windows_overlap(windows)
            manifested = result.location(SHARED_COUNTER) < threads
            overlap_trials += overlapped
            manifest_trials += manifested
            if manifested and not overlapped:
                manifest_without_overlap += 1
    return _WindowShard(
        durations=np.array(durations, dtype=np.int64),
        overlap_trials=overlap_trials,
        manifest_trials=manifest_trials,
        manifest_without_overlap=manifest_without_overlap,
    )


def measure_critical_windows(
    model_name: str,
    threads: int,
    trials: int,
    seed: int | None = 0,
    body_length: int = 8,
    scheduler: Scheduler | None = None,
    *,
    config: RunConfig | None = None,
    **core_options,
) -> WindowMeasurement:
    """Run the canonical race and measure every thread's critical window.

    Also verifies, trial by trial, the §3.2 implication *manifestation ⇒
    window overlap* (counted in ``manifest_without_overlap``, which must
    be zero — asserted in the tests).  ``config`` (a
    :class:`repro.runconfig.RunConfig`) carries every execution knob.
    ``workers``/``shards`` follow the library-wide sharding discipline
    (:mod:`repro.stats.parallel`): shard aggregates concatenate in shard
    order, so fixed ``(seed, shards)`` is bit-reproducible at any worker
    count (``shards=None`` defaults to the fixed
    :data:`~repro.stats.parallel.DEFAULT_SHARDS` whenever parallelism is
    requested, never the worker count).
    ``retries``/``timeout``/``checkpoint`` configure the fault-tolerance
    layer (:func:`repro.stats.parallel.run_sharded`);
    ``cache`` the content-addressed shard cache (``docs/CACHING.md``);
    ``manifest``/``trace``/``progress`` the observability layer
    (``docs/OBSERVABILITY.md``).
    ``transport`` selects the shard result channel (see
    :mod:`repro.stats.transport`).  The trials run on the scalar
    machine, the one that logs every access.  As in
    :func:`~repro.sim.executor.run_canonical_bug`, ``core_options`` the
    model's core does not accept raise ``TypeError`` before any shard
    runs, as a negative ``body_length`` raises ``ProgramError``.
    """
    if threads < 2:
        raise ValueError(f"need at least 2 threads, got {threads}")
    _check_trials(trials)
    _check_core_options(model_name, core_options)
    _check_program_parameters(body_length)
    kernel = partial(
        _window_shard,
        model_name=model_name,
        threads=threads,
        body_length=body_length,
        scheduler=scheduler,
        core_options=core_options,
    )
    label = f"windows:{model_name}:n={threads}:body={body_length}"

    def build(parts: list[_WindowShard], plan) -> WindowMeasurement:
        return WindowMeasurement(
            model=model_name,
            threads=threads,
            trials=trials,
            durations=np.concatenate([part.durations for part in parts]),
            overlap_trials=sum(part.overlap_trials for part in parts),
            manifest_trials=sum(part.manifest_trials for part in parts),
            manifest_without_overlap=sum(part.manifest_without_overlap
                                         for part in parts),
        )

    return _estimate(kernel, trials, seed, label, WindowLayout(threads), build,
                     (config or RunConfig()).resolve())
