"""``repro.obs`` — observability for the sharded Monte-Carlo engine.

A long sharded run should be a glass box: while it runs you can watch a
live progress line (shards done, trials/sec, ETA); when it finishes you
hold a validated **run manifest** recording the plan identity, per-shard
wall times, the retry/timeout ledger, checkpoint lineage, and the merged
result; and if you asked for it, a JSONL **trace** of the run's internal
spans.  None of it can change a number — observation is carried on the
shard-result channel and aggregated in the parent, outside the seeding
discipline entirely.

Three modules, one plumbing object:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram`` in
  a ``MetricsRegistry``; ``ShardEvent``, the per-shard telemetry record;
  the canonical ``METRICS_CATALOGUE``.
* :mod:`repro.obs.trace` — ``Tracer`` with nestable ``span`` contexts
  and an opt-in JSONL writer.
* :mod:`repro.obs.manifest` — the run-manifest schema:
  ``write_manifest`` / ``load_manifest`` / ``validate_manifest``.
* :mod:`repro.obs.progress` — the ``--progress`` line and its
  trimmed-mean ETA estimator.
* :class:`repro.obs.RunObserver` — derived from a ``RunConfig``'s
  ``manifest`` / ``trace`` / ``progress`` knobs and fed by the engine;
  :func:`repro.obs.observed_run` is the one lifecycle around it.

The full operational story — metric catalogue, span reference, manifest
schema with an annotated example, and a debugging walkthrough — lives in
``docs/OBSERVABILITY.md``.
"""

from .manifest import (
    MANIFEST_FORMAT,
    MANIFEST_KIND,
    ManifestError,
    build_run_record,
    load_manifest,
    summarise_result,
    validate_manifest,
    write_manifest,
)
from .metrics import (
    METRICS_CATALOGUE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ShardEvent,
    trimmed_mean,
)
from .observer import RunObserver, observed_run
from .progress import ProgressPrinter, ProgressSnapshot, estimate_eta, format_progress
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_FORMAT",
    "MANIFEST_KIND",
    "METRICS_CATALOGUE",
    "ManifestError",
    "MetricsRegistry",
    "ProgressPrinter",
    "ProgressSnapshot",
    "RunObserver",
    "ShardEvent",
    "Span",
    "Tracer",
    "build_run_record",
    "estimate_eta",
    "format_progress",
    "load_manifest",
    "observed_run",
    "summarise_result",
    "trimmed_mean",
    "validate_manifest",
    "write_manifest",
]
