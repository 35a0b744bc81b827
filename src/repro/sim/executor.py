"""Experiment drivers for the machine substrate (experiment E10).

:func:`run_canonical_bug` executes the §2.2 counter-increment race on the
simulated multiprocessor many times and reports how often it manifests
(final counter below the thread count).  The benches use it to check the
machine-level ordering of the memory models against the abstract model's
predictions.

The trial loop is a shardable kernel: the trial budget splits into
seed-disciplined shards (one child stream per shard, pre-spawned trial
streams within a shard) that fan out over worker processes via
:mod:`repro.stats.parallel` and merge through
:func:`repro.stats.montecarlo.merge_categorical` — so machine experiments
scale across cores while staying bit-reproducible for a fixed
``(seed, shards)``.
"""

from __future__ import annotations

import inspect
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial

from ..core.instructions import _check_program_parameters
from ..runconfig import RunConfig
from ..stats.intervals import Proportion, _check_confidence, wilson_interval
from ..stats.montecarlo import (
    CategoricalResult,
    _check_trials,
    _estimate,
    merge_categorical,
)
from ..stats.rng import RandomSource, iter_batches
from ..stats.transport import CategoricalLayout
from .cpu import Core, _core_kind
from .isa import ThreadProgram
from .machine import Machine
from .programs import (
    SHARED_COUNTER,
    canonical_increment,
    canonical_increment_atomic,
    canonical_increment_fenced,
    sample_body_types,
)
from .scheduler import GeometricLaunchScheduler, Scheduler

__all__ = ["CanonicalBugResult", "run_canonical_bug"]

#: Trial streams are pre-spawned from the shard stream in blocks of this
#: size (two streams per trial: body sampling and machine execution).
TRIAL_SPAWN_BATCH = 1024

#: Trials per whole-array kernel call on the vectorized machine.
VECTORIZED_TRIAL_BATCH = 4096


def _check_core_options(model_name: str, core_options: dict[str, object]) -> None:
    """Raise ``TypeError`` for an option the ``model_name`` core cannot take.

    Runs before any planning, so a typo — or an engine knob passed as a
    keyword instead of through ``config=`` — fails at the call site
    instead of inside the first shard, where the engine would retry it
    as if it were a transient fault.  An unknown model raises
    ``SimulationError`` here for the same reason.
    """
    kind = _core_kind(model_name)
    accepted = (inspect.signature(kind).parameters.keys()
                - inspect.signature(Core).parameters.keys())
    knobs = {spec.name for spec in fields(RunConfig)}
    for option in sorted(set(core_options) - accepted):
        if option in knobs:
            raise TypeError(f"{option!r} is an engine knob, not a core option: "
                            f"pass config=RunConfig({option}=...)")
        raise TypeError(f"the {model_name} core takes no option {option!r} "
                        f"(it accepts: {', '.join(sorted(accepted)) or 'none'})")


def _machine_backend_beta(
    model_name: str,
    scheduler: Scheduler | None,
    fenced: bool,
    atomic: bool,
) -> float:
    """Validate the vectorized machine's constraints; returns the launch β.

    The vectorized machine kernel covers the racy canonical workload on
    SC/TSO/PSO under the geometric-launch scheduler only (see
    :mod:`repro.kernels.machine`); everything else needs the scalar
    machine, so ask for it by name rather than silently falling back.
    """
    from ..errors import SimulationError
    from ..kernels.machine import SUPPORTED_MACHINE_MODELS

    if model_name.upper() not in SUPPORTED_MACHINE_MODELS:
        known = ", ".join(SUPPORTED_MACHINE_MODELS)
        raise SimulationError(
            f"backend='vectorized' supports {known}; {model_name!r} needs "
            "backend='scalar'"
        )
    if fenced or atomic:
        raise SimulationError(
            "backend='vectorized' covers only the racy canonical variant; "
            "use backend='scalar' for fenced/atomic programs"
        )
    if scheduler is not None and not isinstance(scheduler, GeometricLaunchScheduler):
        raise SimulationError(
            "backend='vectorized' requires the geometric-launch scheduler "
            f"(got {type(scheduler).__name__}); use backend='scalar'"
        )
    return scheduler.beta if scheduler is not None else GeometricLaunchScheduler().beta


@dataclass(frozen=True)
class CanonicalBugResult:
    """Outcome statistics of the canonical-bug machine experiment."""

    model: str
    threads: int
    trials: int
    final_values: dict[int, int]
    confidence: float

    @property
    def manifestations(self) -> int:
        """Trials whose final counter fell short of the thread count."""
        return sum(count for value, count in self.final_values.items() if value < self.threads)

    @property
    def manifestation(self) -> Proportion:
        """Manifestation probability with confidence interval."""
        return wilson_interval(self.manifestations, self.trials, self.confidence)

    @property
    def survival(self) -> Proportion:
        """Non-manifestation (the machine analogue of the paper's Pr[A])."""
        return wilson_interval(
            self.trials - self.manifestations, self.trials, self.confidence
        )

    def __str__(self) -> str:
        return (
            f"{self.model} n={self.threads}: bug manifests {self.manifestation} "
            f"(final values {dict(sorted(self.final_values.items()))})"
        )


def _canonical_bug_shard(
    source: RandomSource,
    shard_trials: int,
    model_name: str,
    threads: int,
    body_length: int,
    scheduler: Scheduler | None,
    builder: Callable[..., ThreadProgram],
    confidence: float,
    core_options: dict[str, object],
) -> CategoricalResult:
    """Run one shard of canonical-bug trials; returns the outcome PMF.

    The scheduler is constructed once per shard (``Machine.run`` re-prepares
    it per trial) and each trial's two streams — body sampling and machine
    execution — come from one pre-spawned block of children, rather than
    paying two ``SeedSequence`` spawn calls inside the hot loop.
    """
    if scheduler is None:
        scheduler = GeometricLaunchScheduler()
    outcomes: Counter[int] = Counter()
    for batch in iter_batches(shard_trials, TRIAL_SPAWN_BATCH):
        streams = source.spawn(2 * batch)
        for index in range(batch):
            body_types = sample_body_types(body_length, streams[2 * index])
            programs = [builder(thread, body_types) for thread in range(threads)]
            machine = Machine(model_name, programs, scheduler=scheduler, **core_options)
            result = machine.run(streams[2 * index + 1])
            outcomes[result.location(SHARED_COUNTER)] += 1
    return CategoricalResult(dict(outcomes), shard_trials, confidence, None)


def _canonical_bug_vectorized_shard(
    source: RandomSource,
    shard_trials: int,
    model_name: str,
    threads: int,
    body_length: int,
    beta: float,
    confidence: float,
    core_options: dict[str, object],
) -> CategoricalResult:
    """One shard of canonical-bug trials on the whole-array kernel.

    Each batch consumes one child stream (mirroring the engine's event
    kernels), so results are bit-reproducible for fixed
    ``(seed, shards, backend)`` at any worker count.  Imported lazily:
    :mod:`repro.kernels` imports this package during initialisation.
    """
    from ..kernels.machine import canonical_bug_batch

    outcomes: Counter[int] = Counter()
    for batch in iter_batches(shard_trials, VECTORIZED_TRIAL_BATCH):
        outcomes.update(canonical_bug_batch(
            source.child(), batch, model_name, threads=threads,
            body_length=body_length, beta=beta, **core_options,
        ))
    return CategoricalResult(dict(outcomes), shard_trials, confidence, None)


def _race_kernel(
    model_name: str,
    threads: int,
    trials: int,
    body_length: int,
    scheduler: Scheduler | None,
    fenced: bool,
    atomic: bool,
    confidence: float,
    backend: str,
    core_options: dict[str, object],
) -> partial:
    """Check every argument of :func:`run_canonical_bug`; bind its kernel.

    Raises before any shard runs (the service runs it at submit too):
    ``ValueError`` for a count, variant, confidence or backend out of
    range, ``TypeError``/``SimulationError`` for a core option or model
    the machine cannot run, ``ProgramError`` for the body length.
    """
    if threads < 2:
        raise ValueError(f"the race needs at least 2 threads, got {threads}")
    _check_trials(trials)
    if fenced and atomic:
        raise ValueError("fenced and atomic variants are mutually exclusive")
    _check_confidence(confidence)
    _check_core_options(model_name, core_options)
    _check_program_parameters(body_length)
    if backend == "vectorized":
        beta = _machine_backend_beta(model_name, scheduler, fenced, atomic)
        return partial(
            _canonical_bug_vectorized_shard,
            model_name=model_name,
            threads=threads,
            body_length=body_length,
            beta=beta,
            confidence=confidence,
            core_options=core_options,
        )
    if backend != "scalar":
        raise ValueError(f"unknown backend {backend!r}; run_canonical_bug "
                         "runs 'scalar' or 'vectorized'")
    if atomic:
        builder = canonical_increment_atomic
    elif fenced:
        builder = canonical_increment_fenced
    else:
        builder = canonical_increment
    return partial(
        _canonical_bug_shard,
        model_name=model_name,
        threads=threads,
        body_length=body_length,
        scheduler=scheduler,
        builder=builder,
        confidence=confidence,
        core_options=core_options,
    )


def run_canonical_bug(
    model_name: str,
    threads: int,
    trials: int,
    seed: int | None = 0,
    body_length: int = 8,
    scheduler: Scheduler | None = None,
    fenced: bool = False,
    atomic: bool = False,
    confidence: float = 0.99,
    *,
    backend: str = "scalar",
    config: RunConfig | None = None,
    **core_options,
) -> CanonicalBugResult:
    """Run the canonical increment race ``trials`` times on the machine.

    Parameters
    ----------
    model_name:
        Core model (``"SC"``, ``"TSO"``, ``"PSO"``, ``"WO"``).
    threads:
        Number of racing incrementers.
    body_length:
        Private-body padding per thread (per-trial random types, mirroring
        §3.1.1's program generation).
    scheduler:
        Interleaving policy; defaults to the geometric-launch scheduler,
        the machine analogue of the shift process.
    fenced:
        Bracket each critical section with fences (§7 extension).
    atomic:
        Replace the racy load/increment/store with one atomic fetch-and-add
        (the bug's fix; mutually exclusive with ``fenced``).
    backend:
        The machine that runs the trials.  ``"scalar"`` (the default,
        behind E10 and every published number) runs the cycle-accurate
        object machine, and is the only one that runs WO, fences,
        atomics and custom schedulers.  ``"vectorized"`` runs the
        whole-array kernel of :mod:`repro.kernels.machine` —
        statistically equivalent and much faster, but restricted to the
        racy variant on SC/TSO/PSO under the geometric-launch scheduler
        (anything else raises ``SimulationError``).  The two machines
        have different kernel fingerprints, so their run keys differ.
        See ``docs/KERNELS.md``.
    config:
        A :class:`repro.runconfig.RunConfig` carrying every execution
        knob:

        * ``workers``/``shards`` fan the trial budget out over
          seed-disciplined shards on a process pool
          (:mod:`repro.stats.parallel`); fixed ``(seed, shards)`` is
          bit-reproducible at any worker count.  ``shards=None``
          defaults to the fixed
          :data:`~repro.stats.parallel.DEFAULT_SHARDS` whenever
          parallelism is requested (never the worker count), and to the
          one-shard form on ``RandomSource(seed)`` itself for the serial
          ``workers=1`` case.
        * ``retries``/``timeout``/``checkpoint`` are the fault-tolerance
          options (see :func:`repro.stats.parallel.run_sharded`).  The
          checkpoint key is salted with the model/threads/variant, so
          one checkpoint directory can hold several machine experiments.
        * ``cache`` enables the content-addressed shard result cache
          (see ``docs/CACHING.md``).
        * ``manifest``/``trace``/``progress`` are the observability
          knobs, read-only with respect to the result (see
          ``docs/OBSERVABILITY.md``).
        * ``transport`` selects the shard result channel.
    core_options:
        Forwarded to the core constructor (e.g. ``drain_probability``).
        An option the model's core does not accept raises
        ``TypeError`` before any shard runs, as a negative
        ``body_length`` raises ``ProgramError``.
    """
    kernel = _race_kernel(model_name, threads, trials, body_length, scheduler,
                          fenced, atomic, confidence, backend, core_options)
    variant = "atomic" if atomic else ("fenced" if fenced else "racy")
    label = (f"canonical:{model_name}:n={threads}:body={body_length}"
             f":variant={variant}")

    def build(parts: list[CategoricalResult], plan) -> CanonicalBugResult:
        merged = merge_categorical(parts)
        return CanonicalBugResult(
            model=model_name,
            threads=threads,
            trials=trials,
            final_values=dict(merged.counts),
            confidence=confidence,
        )

    return _estimate(kernel, trials, seed, label, CategoricalLayout(confidence),
                     build, (config or RunConfig()).resolve())
