"""The run observer: one object that ties metrics, trace, progress, manifest.

A :class:`~repro.runconfig.RunConfig` carries three orthogonal
observability knobs — ``manifest``, ``trace``, ``progress`` — and
:class:`RunObserver` is the plumbing behind all of them: the engine
(:func:`repro.stats.parallel.run_sharded` / ``parallel_map``) reports
run-start, per-shard completion, failures, and pool recycles to it; the
observer aggregates metrics, drives the progress line, records the
retry ledger, and on ``finish`` writes the run manifest and closes the
trace.

Observation is strictly read-only with respect to the statistics: the
observer sees shard *events*, never shard randomness, so enabling any
combination of knobs cannot change a single merged number (asserted by
the tests and tracked by ``benchmarks/bench_obs_overhead.py``).
``RunObserver.from_options`` returns ``None`` when every knob is off,
and every engine hook is behind an ``if observer is not None`` — the
un-observed hot path stays exactly as fast as before this layer
existed.

:func:`observed_run` is the one observer lifecycle every driver uses:
derive the observer from the config, run the work inside the canonical
``run`` > ``shards`` / ``merge`` span tree, and finish with the merged
result.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterator, TypeVar

from .manifest import build_run_record, summarise_result, write_manifest
from .metrics import MetricsRegistry, ShardEvent
from .progress import ProgressPrinter, ProgressSnapshot, estimate_eta
from .trace import Tracer

if TYPE_CHECKING:
    from ..runconfig import RunConfig

__all__ = ["RunObserver", "observed_run"]

T = TypeVar("T")


@contextmanager
def _null_span() -> Iterator[None]:
    yield


class RunObserver:
    """Telemetry collector for one sharded (or legacy-serial) run.

    Lifecycle: the engine calls :meth:`run_started` once, then any mix
    of :meth:`shard_resumed` / :meth:`shard_finished` /
    :meth:`task_failed` / :meth:`pool_recycled` in completion order; the
    owning estimator calls :meth:`finish` with the merged result.  Final
    metrics and the manifest are assembled *in shard order* from the
    collected events, so two runs that executed the same shards produce
    the same snapshot shape regardless of scheduling.
    """

    def __init__(
        self,
        manifest: str | Path | None = None,
        trace: str | Path | Tracer | None = None,
        progress: bool | Callable[[ProgressSnapshot], None] = False,
        label: str = "",
    ):
        self.manifest_path = Path(manifest) if manifest is not None else None
        if isinstance(trace, Tracer):
            self.tracer: Tracer | None = trace
        elif trace is not None:
            self.tracer = Tracer(trace)
        else:
            self.tracer = None
        self._progress: Callable[[ProgressSnapshot], None] | None
        self._printer: ProgressPrinter | None = None
        if callable(progress):
            self._progress = progress
        elif progress:
            self._printer = ProgressPrinter()
            self._progress = self._printer
        else:
            self._progress = None
        self.label = label
        self.events: dict[int, ShardEvent] = {}
        self.retry_ledger: list[dict[str, object]] = []
        self._timeouts: dict[int, int] = {}
        self._recycles = 0
        self._cache = {"hits": 0, "misses": 0, "stored": 0, "evictions": 0}
        self._annotations: dict[str, tuple[float, str]] = {}
        self._journal_skipped = 0
        self._run: dict[str, object] | None = None
        self._started = time.perf_counter()
        self._active_shards = 0
        self._done_trials = 0
        self._executed_trials = 0
        self._executed_seconds: list[float] = []
        self._workers = 1

    @classmethod
    def from_options(
        cls,
        manifest: str | Path | None = None,
        trace: str | Path | Tracer | None = None,
        progress: bool | Callable[[ProgressSnapshot], None] = False,
        label: str = "",
    ) -> "RunObserver | None":
        """An observer if any knob is on, else ``None`` (the fast path)."""
        if manifest is None and trace is None and not progress:
            return None
        return cls(manifest=manifest, trace=trace, progress=progress, label=label)

    # ------------------------------------------------------------------
    # Engine-facing hooks
    # ------------------------------------------------------------------

    def run_started(
        self,
        *,
        trials: int,
        shards: int,
        seed: int | None,
        workers: int,
        active_shards: int | None = None,
        label: str | None = None,
        key: str | None = None,
        retries: int = 0,
        timeout: float | None = None,
        checkpoint: str | None = None,
        mode: str = "sharded",
    ) -> None:
        """Record the identity and configuration of the run."""
        if label:
            self.label = label
        self._run = {
            "trials": trials,
            "shards": shards,
            "seed": seed,
            "key": key,
            "workers": workers,
            "retries": retries,
            "timeout": timeout,
            "checkpoint": checkpoint,
            "mode": mode,
        }
        self._active_shards = shards if active_shards is None else active_shards
        self._workers = max(1, workers)
        self._started = time.perf_counter()

    def shard_resumed(self, shard: int, trials: int) -> None:
        """A shard satisfied from the checkpoint journal (not executed)."""
        self._record(ShardEvent(shard=shard, trials=trials, seconds=0.0,
                                attempts=0, resumed=True))

    def shard_cached(self, shard: int, trials: int) -> None:
        """A shard fetched from the content-addressed result cache."""
        self._record(ShardEvent(shard=shard, trials=trials, seconds=0.0,
                                attempts=0, resumed=True, cached=True))

    def cache_summary(self, *, hits: int, misses: int, stored: int,
                      evictions: int) -> None:
        """The engine's per-run cache tallies (reported once, post-run)."""
        self._cache["hits"] += hits
        self._cache["misses"] += misses
        self._cache["stored"] += stored
        self._cache["evictions"] += evictions

    def annotate(self, name: str, value: float, unit: str = "") -> None:
        """Record a caller-supplied gauge folded into :meth:`final_metrics`.

        Workload drivers that are not plain trial runs (e.g. litmus
        exploration over a test×model grid) use this to publish their
        own dimensions; the name should be registered in
        :data:`~repro.obs.metrics.METRICS_CATALOGUE` and documented in
        ``docs/OBSERVABILITY.md`` like any engine metric.
        """
        self._annotations[name] = (float(value), unit)

    def journal_skipped(self, lines: int) -> None:
        """Torn/undecodable journal lines dropped while loading a checkpoint."""
        self._journal_skipped += lines

    def shard_finished(self, event: ShardEvent) -> None:
        """A shard executed to completion (reported with worker telemetry)."""
        if event.shard in self._timeouts:
            event = replace(event, timeouts=self._timeouts[event.shard])
        self._record(event)

    def _record(self, event: ShardEvent) -> None:
        self.events[event.shard] = event
        self._done_trials += event.trials
        if not event.resumed:
            self._executed_trials += event.trials
            self._executed_seconds.append(event.seconds)
        if self._progress is not None:
            self._progress(self._snapshot())

    def task_failed(self, shard: int, attempt: int, kind: str, error: str) -> None:
        """A shard attempt failed (and will be retried — exhaustion raises)."""
        self.retry_ledger.append(
            {"shard": shard, "attempt": attempt, "kind": kind, "error": error}
        )
        if kind == "timeout":
            self._timeouts[shard] = self._timeouts.get(shard, 0) + 1

    def pool_recycled(self) -> None:
        """The process pool was torn down and rebuilt (timeout/broken pool)."""
        self._recycles += 1

    # ------------------------------------------------------------------
    # Caller-facing surface
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: object) -> ContextManager[None]:
        """A trace span when tracing is on; a no-op context otherwise."""
        if self.tracer is None:
            return _null_span()
        return self.tracer.span(name, **attributes)

    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._started

    def _snapshot(self) -> ProgressSnapshot:
        elapsed = self.elapsed_seconds()
        throughput = None
        if self._executed_trials and elapsed > 0.0:
            throughput = self._executed_trials / elapsed
        remaining = max(0, self._active_shards - len(self.events))
        return ProgressSnapshot(
            done_shards=len(self.events),
            total_shards=self._active_shards,
            done_trials=self._done_trials,
            total_trials=int(self._run["trials"]) if self._run else self._done_trials,
            elapsed_seconds=elapsed,
            trials_per_second=throughput,
            eta_seconds=estimate_eta(self._executed_seconds, remaining, self._workers),
        )

    def final_metrics(self) -> MetricsRegistry:
        """The run's metrics, aggregated deterministically in shard order."""
        registry = MetricsRegistry()
        run = self._run or {}
        elapsed = self.elapsed_seconds()
        executed = [event for _, event in sorted(self.events.items())
                    if not event.resumed]
        resumed = len(self.events) - len(executed)
        registry.gauge("run.trials_total", "trials").set(
            run.get("trials", self._done_trials)
        )
        registry.gauge("run.shards_total", "shards").set(len(self.events))
        registry.counter("run.shards_completed", "shards").inc(len(executed))
        registry.counter("run.shards_resumed", "shards").inc(resumed)
        registry.counter("run.shard_retries", "attempts").inc(len(self.retry_ledger))
        registry.counter("run.shard_timeouts", "events").inc(
            sum(1 for entry in self.retry_ledger if entry["kind"] == "timeout")
        )
        registry.counter("run.pool_recycles", "events").inc(self._recycles)
        registry.counter("run.cache_hits", "shards").inc(self._cache["hits"])
        registry.counter("run.cache_misses", "shards").inc(self._cache["misses"])
        registry.counter("run.cache_stored", "shards").inc(self._cache["stored"])
        registry.counter("run.cache_evictions", "entries").inc(
            self._cache["evictions"]
        )
        registry.counter("run.journal_skipped", "lines").inc(self._journal_skipped)
        seconds = registry.histogram("run.shard_seconds", "seconds")
        for event in executed:
            seconds.observe(event.seconds)
        registry.gauge("run.elapsed_seconds", "seconds").set(elapsed)
        if self._executed_trials and elapsed > 0.0:
            registry.gauge("run.trials_per_second", "trials/s").set(
                self._executed_trials / elapsed
            )
        else:
            registry.gauge("run.trials_per_second", "trials/s")
        for name, (value, unit) in sorted(self._annotations.items()):
            registry.gauge(name, unit).set(value)
        return registry

    def finish(self, result: object = None) -> dict[str, object] | None:
        """Close progress/trace and (if configured) write the manifest.

        Returns the run record appended to the manifest, or ``None``
        when no manifest was requested or no run was ever started.
        """
        if self._printer is not None:
            self._printer.close()
        if self.tracer is not None:
            self.tracer.close()
        if self._run is None:
            return None
        record = self.run_record(result)
        if self.manifest_path is not None:
            write_manifest(self.manifest_path, record)
        return record

    def run_record(self, result: object = None) -> dict[str, object]:
        """The manifest run record for the collected telemetry."""
        if self._run is None:
            raise RuntimeError("run_record before run_started")
        run = self._run
        ordered = [event for _, event in sorted(self.events.items())]
        executed = sum(1 for event in ordered if not event.resumed)
        resumed = len(ordered) - executed
        checkpoint = None
        if run["checkpoint"] is not None:
            checkpoint = {"path": str(run["checkpoint"]), "key": run["key"]}
        return build_run_record(
            label=self.label,
            mode=str(run["mode"]),
            plan={"trials": run["trials"], "shards": run["shards"],
                  "seed": run["seed"], "key": run["key"]},
            execution={
                "workers": int(run["workers"]),
                "retries": int(run["retries"]),
                "timeout": run["timeout"],
                "executed_shards": executed,
                "resumed_shards": resumed,
                "pool_recycles": self._recycles,
                "elapsed_seconds": self.elapsed_seconds(),
            },
            shards=[event.as_dict() for event in ordered],
            retry_ledger=sorted(self.retry_ledger,
                                key=lambda entry: (entry["shard"], entry["attempt"])),
            metrics=self.final_metrics().snapshot(),
            result=summarise_result(result),
            checkpoint=checkpoint,
        )


def observed_run(
    config: "RunConfig",
    label: str,
    execute: Callable[["RunObserver | None"], Any],
    merge: Callable[[Any], T] | None = None,
) -> T:
    """Run ``merge(execute(observer))`` under the observer ``config`` implies.

    ``execute(observer)`` does the work — a driver calls
    :func:`~repro.stats.parallel.run_sharded` or
    :func:`~repro.stats.parallel.parallel_map` in it, forwarding the
    observer — and ``merge`` pools what it returns.  With an observer
    the two run inside the canonical span tree (``run`` > ``shards`` /
    ``merge``) and :meth:`RunObserver.finish` seals progress, trace and
    manifest with the merged result.  ``merge=None`` returns the parts
    unmerged and records no result (bare engine calls and sweeps).  With
    no observability knob set this is just ``merge(execute(None))``.
    """
    observer = config.observer(label)
    if observer is None:
        parts = execute(None)
        return parts if merge is None else merge(parts)
    with observer.span("run"):
        with observer.span("shards"):
            parts = execute(observer)
        with observer.span("merge"):
            merged = parts if merge is None else merge(parts)
    observer.finish(None if merge is None else merged)
    return merged
