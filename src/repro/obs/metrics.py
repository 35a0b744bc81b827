"""Counters, gauges, histograms, and the per-shard event channel.

The sharded engine (:mod:`repro.stats.parallel`) is deliberately silent:
workers compute, the parent merges, and a million-trial run prints
nothing until it returns.  This module gives every run a measurable
pulse without touching its numbers:

* **Metric primitives** — :class:`Counter` (monotone totals),
  :class:`Gauge` (last-known values) and :class:`Histogram` (per-shard
  timing distributions), collected in a :class:`MetricsRegistry` whose
  snapshots are plain JSON-ready dicts.
* **The shard-event channel** — each worker's in-shard wall time and pid
  travel back to the parent *with the shard result* (piggybacked on the
  process pool's own result transport, so the channel is process-safe by
  construction and adds no queues, locks, or shared memory).  The parent
  folds them into :class:`ShardEvent` records: one per shard, carrying
  trials, seconds, attempt count, timeout count, and whether the shard
  was resumed from a checkpoint instead of executed.
* **Deterministic aggregation** — the run observer folds a fixed event
  set into a registry in shard order, so the snapshot is the same no
  matter in which order the shards *completed* (asserted by the tests).

The canonical metric names the engine emits are listed in
:data:`METRICS_CATALOGUE` and documented, with units, in
``docs/OBSERVABILITY.md``.  Nothing in this package imports the rest of
the library: observability sits below the stats layer and can never
perturb the seeding discipline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ShardEvent",
    "METRICS_CATALOGUE",
    "trimmed_mean",
]


#: Canonical metric names -> (kind, unit, description).  The ``run.*``
#: names are emitted by the sharded engine, the ``service.*`` names by
#: the job server (:mod:`repro.service`); docs/OBSERVABILITY.md is the
#: narrative catalogue and the docs-consistency check keeps the two in
#: sync.
METRICS_CATALOGUE: dict[str, tuple[str, str, str]] = {
    "run.trials_total": ("gauge", "trials", "trial budget of the run (merged total)"),
    "run.shards_total": ("gauge", "shards", "non-empty shards in the plan"),
    "run.shards_completed": ("counter", "shards", "shards executed in this process"),
    "run.shards_resumed": ("counter", "shards", "shards loaded from the checkpoint or the cache, not executed"),
    "run.shard_retries": ("counter", "attempts", "failed shard attempts that were retried"),
    "run.shard_timeouts": ("counter", "events", "pooled shard attempts that timed out"),
    "run.pool_recycles": ("counter", "events", "process-pool rebuilds (timeout or broken pool)"),
    "run.shard_seconds": ("histogram", "seconds", "in-worker wall time per executed shard"),
    "run.trials_per_second": ("gauge", "trials/s", "executed trials over parent wall time"),
    "run.elapsed_seconds": ("gauge", "seconds", "parent wall time of the whole run"),
    "run.cache_hits": ("counter", "shards", "shards fetched from the result cache"),
    "run.cache_misses": ("counter", "shards", "cache probes that found no entry"),
    "run.cache_stored": ("counter", "shards", "executed shards written to the result cache"),
    "run.cache_evictions": ("counter", "entries", "cache entries evicted by this run's writes"),
    "explore.grid_points": ("gauge", "points", "litmus test x model grid points in an exhaustive exploration"),
    "explore.outcomes_total": ("gauge", "outcomes", "enumerated outcomes summed over the explored grid"),
    "service.jobs_submitted": ("counter", "jobs", "jobs accepted and enqueued by the job server"),
    "service.jobs_deduped": ("counter", "jobs", "submissions collapsed onto an existing identical job"),
    "service.jobs_completed": ("counter", "jobs", "jobs that finished with a result"),
    "service.jobs_failed": ("counter", "jobs", "jobs that raised instead of finishing"),
    "service.jobs_resumed": ("counter", "jobs", "unfinished jobs re-enqueued after a server restart"),
    "service.jobs_rejected": ("counter", "jobs", "submissions refused by the max-queued-jobs rate control"),
    "service.queue_depth": ("gauge", "jobs", "jobs queued and not yet running (current)"),
}


@dataclass
class Counter:
    """A monotonically increasing total (retries, timeouts, shards done)."""

    name: str
    unit: str = ""
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def as_dict(self) -> dict[str, object]:
        return {"type": "counter", "unit": self.unit, "value": self.value}


@dataclass
class Gauge:
    """A last-known value (throughput, elapsed seconds)."""

    name: str
    unit: str = ""
    value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, object]:
        return {"type": "gauge", "unit": self.unit, "value": self.value}


@dataclass
class Histogram:
    """A distribution of observations (per-shard wall times).

    Keeps the raw observations — shard counts are small (tens, not
    millions) — so merges are exact concatenations and summaries can
    quote true percentiles rather than bucket approximations.
    """

    name: str
    unit: str = ""
    observations: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.observations.append(float(value))

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return float(sum(self.observations))

    def mean(self) -> float | None:
        return self.total / self.count if self.observations else None

    def percentile(self, q: float) -> float | None:
        """The ``q``-quantile (0 <= q <= 1) by nearest-rank on sorted data."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if not self.observations:
            return None
        ordered = sorted(self.observations)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def as_dict(self) -> dict[str, object]:
        data = sorted(self.observations)
        return {
            "type": "histogram",
            "unit": self.unit,
            "count": self.count,
            "sum": self.total,
            "min": data[0] if data else None,
            "max": data[-1] if data else None,
            "mean": self.mean(),
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
        }


class MetricsRegistry:
    """A named collection of metrics with deterministic snapshots.

    ``counter``/``gauge``/``histogram`` are get-or-create (re-requesting
    a name returns the same instance; requesting it as a different kind
    raises).  ``snapshot`` serialises every metric, sorted by name, to a
    JSON-ready dict — the form embedded in run manifests.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind: type, unit: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = kind(name, unit)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: str = "") -> Counter:
        return self._get_or_create(name, Counter, unit)

    def gauge(self, name: str, unit: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, unit)

    def histogram(self, name: str, unit: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, unit)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Counter | Gauge | Histogram:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Every metric as a plain dict, sorted by name (JSON-ready)."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

@dataclass(frozen=True)
class ShardEvent:
    """One shard's telemetry, reported back to the parent process.

    ``seconds`` is the *in-worker* wall time of the successful attempt
    (it travels back with the shard result, so queueing and transport
    are excluded); ``attempts`` counts every attempt including the
    successful one; ``resumed`` shards were loaded from a checkpoint
    or the result cache and never executed (their ``seconds`` is 0.0,
    ``attempts`` 0, ``worker`` ``None``); ``cached`` marks the resumed
    shards that came from the content-addressed result cache rather
    than the checkpoint.
    """

    shard: int
    trials: int
    seconds: float
    attempts: int
    timeouts: int = 0
    resumed: bool = False
    cached: bool = False
    worker: int | None = None

    def throughput(self) -> float | None:
        """Trials per second inside the worker, if measurable."""
        if self.resumed or self.seconds <= 0.0 or self.trials <= 0:
            return None
        return self.trials / self.seconds

    def as_dict(self) -> dict[str, object]:
        return {
            "shard": self.shard,
            "trials": self.trials,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "resumed": self.resumed,
            "cached": self.cached,
            "worker": self.worker,
        }


def trimmed_mean(values: Sequence[float], trim: float = 0.2) -> float:
    """Mean after dropping a ``trim`` fraction from each sorted end.

    The robust location estimate behind the progress line's ETA (see
    ``docs/MATH.md`` §11): shard durations are near-iid because
    ``plan_shards`` balances trial counts to within one trial, but a
    straggler (page cache miss, CPU contention) can inflate a plain mean
    — trimming bounds its influence.  With fewer than three completed
    shards nothing is dropped.
    """
    if not values:
        raise ValueError("trimmed_mean of no values")
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim fraction must lie in [0, 0.5), got {trim}")
    ordered = sorted(values)
    drop = int(len(ordered) * trim)
    kept = ordered[drop: len(ordered) - drop] if drop else ordered
    return sum(kept) / len(kept)
