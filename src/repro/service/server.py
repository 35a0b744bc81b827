"""The estimation service and its stdlib HTTP/JSON front end.

:class:`EstimationService` is the headless core — submit, dedup,
execute, persist, resume — and :class:`ServiceHTTPServer` (a
``ThreadingHTTPServer``) is the thin JSON skin ``repro serve`` runs.
Keeping them separate means the whole job lifecycle is unit-testable
in-process, and the HTTP layer only translates: JSON in,
:class:`~repro.service.schemas.ServiceError` to status codes out.

The state directory layout (everything the service persists)::

    <state-dir>/
      jobs.json            the job registry snapshot (atomic replace)
      journals/<job>.jsonl per-job shard checkpoint journals
      manifests/<job>.json per-job validated run manifests
      cache/               the shared content-addressed shard cache

The shared ``cache/`` is what makes cross-request dedup cheap even when
it misses: a ``dedup=false`` resubmission of a finished job creates a
fresh job whose every shard is a cache hit.  :data:`ROUTES` is the
canonical route table — ``docs/SERVICE.md`` documents exactly these
routes and the docs-consistency suite fails on drift in either
direction.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from ..obs import MetricsRegistry, load_manifest, summarise_result
from ..runconfig import RunConfig
from .estimators import ESTIMATORS, job_key, run_estimator, validate_params
from .jobs import JobRegistry
from .queue import DEFAULT_MAX_QUEUED, JobQueue
from .schemas import SCHEMA_VERSION, MANAGED_KNOBS, ServiceError, parse_submit

__all__ = ["ROUTES", "EstimationService", "ServiceHTTPServer", "serve"]

#: The canonical route table: (method, path template, summary).  The
#: ``{id}`` placeholder matches one job id segment.  ``docs/SERVICE.md``
#: must document exactly these — the docs-consistency suite compares
#: both directions.
ROUTES: tuple[tuple[str, str, str], ...] = (
    ("GET", "/v1/health", "liveness, schema version, queue depth"),
    ("GET", "/v1/estimators", "the served estimator catalogue with schemas"),
    ("GET", "/v1/metrics", "service metrics snapshot (service.* names)"),
    ("GET", "/v1/jobs", "every job, oldest first (summary form)"),
    ("POST", "/v1/jobs", "submit a job (estimator + params + config)"),
    ("GET", "/v1/jobs/{id}", "one job's state, progress, and timings"),
    ("GET", "/v1/jobs/{id}/result", "validated run manifest + merged numbers"),
    ("POST", "/v1/shutdown", "graceful shutdown: drain, demote, persist"),
)

_DRAIN_SECONDS = 30.0


class EstimationService:
    """Submit, dedup, execute, and persist estimation jobs.

    All registry/metrics mutations happen under one re-entrant lock;
    job *execution* (the expensive part) runs outside it on the queue's
    worker threads.  Construction loads the registry snapshot from the
    state directory and re-enqueues every unfinished job before the
    worker pool starts, which is the whole resume-on-restart contract —
    the per-job shard journals do the actual work of not recomputing.
    """

    def __init__(self, state_dir: str | Path, *,
                 default_config: RunConfig | None = None,
                 job_workers: int = 1,
                 max_queued: int = DEFAULT_MAX_QUEUED,
                 start: bool = True) -> None:
        self.state_dir = Path(state_dir)
        for sub in ("journals", "manifests", "cache"):
            (self.state_dir / sub).mkdir(parents=True, exist_ok=True)
        config = default_config if default_config is not None else RunConfig()
        for knob in MANAGED_KNOBS:
            if getattr(config, knob) not in (None, False):
                raise ValueError(
                    f"the server default config must not set {knob!r}; the "
                    "service derives it per job from the state directory")
        self.default_config = config.resolve()
        self.metrics = MetricsRegistry()
        self._lock = threading.RLock()
        self._closed = False
        self.registry = JobRegistry.load(self.state_dir / "jobs.json")
        self.queue = JobQueue(self._execute, workers=job_workers,
                              max_queued=max_queued)
        resumed = self.registry.unfinished()
        for job in resumed:
            job.state = "queued"
            job.progress = None
            self.queue.submit(job.id, job.priority, force=True)
        if resumed:
            self.metrics.counter("service.jobs_resumed", "jobs").inc(
                len(resumed))
            self.registry.save()
        self._update_depth()
        if start:
            self.queue.start()

    # -- submission ----------------------------------------------------

    def submit(self, payload: Any) -> tuple[dict[str, Any], int]:
        """Handle a ``POST /v1/jobs`` body; returns (response, status).

        Validates, computes the dedup key, and either collapses onto an
        existing live job (status 200, ``deduped: true``) or creates and
        enqueues a fresh one (status 201).  Raises
        :class:`ServiceError`: 400/404 for bad requests, 429 when the
        queue is full, 503 while shutting down.
        """
        request = parse_submit(payload)
        params = validate_params(request.estimator, request.params)
        try:
            config = RunConfig.from_json_dict(request.config_overrides,
                                              base=self.default_config)
        except (TypeError, ValueError) as error:
            raise ServiceError(400, "bad-config", str(error)) from error
        key = job_key(request.estimator, params, config)
        with self._lock:
            if self._closed:
                raise ServiceError(503, "shutting-down",
                                   "the service is shutting down; "
                                   "resubmit after restart")
            if request.dedup:
                target = self.registry.find_dedup_target(key)
                if target is not None:
                    target.dedup_hits += 1
                    self.metrics.counter("service.jobs_deduped", "jobs").inc()
                    self.registry.save([target])
                    return {"job": target.to_wire(), "deduped": True}, 200
            if self.queue.is_full():
                self.metrics.counter("service.jobs_rejected", "jobs").inc()
                raise ServiceError(
                    429, "queue-full",
                    f"job queue is full ({self.queue._max_queued} queued); "
                    "retry later")
            job = self.registry.create(
                key=key, estimator=request.estimator, params=params,
                config_wire=config.to_json_dict(), priority=request.priority)
            self.queue.submit(job.id, request.priority)
            self.metrics.counter("service.jobs_submitted", "jobs").inc()
            self._update_depth()
            self.registry.save([job])
            return {"job": job.to_wire(), "deduped": False}, 201

    # -- execution (worker threads) ------------------------------------

    def _job_config(self, job_estimator_config: RunConfig,
                    job_id: str) -> RunConfig:
        """Fold the service-managed knobs into a job's config.

        Journals and manifests are per job id (a ``dedup=false`` twin
        must not append to its sibling's manifest); the shard cache is
        shared service-wide — it is the cross-request warm path.
        """
        return replace(
            job_estimator_config,
            checkpoint=str(self.state_dir / "journals" / f"{job_id}.jsonl"),
            cache=str(self.state_dir / "cache"),
            manifest=str(self.state_dir / "manifests" / f"{job_id}.json"),
            trace=None,
            progress=self._progress_sink(job_id),
        )

    def _progress_sink(self, job_id: str):
        def on_progress(snapshot: Any) -> None:
            job = self.registry.get(job_id)
            if job is None:
                return
            job.progress = {
                "done_shards": snapshot.done_shards,
                "total_shards": snapshot.total_shards,
                "done_trials": snapshot.done_trials,
                "total_trials": snapshot.total_trials,
                "elapsed_seconds": snapshot.elapsed_seconds,
                "trials_per_second": snapshot.trials_per_second,
                "eta_seconds": snapshot.eta_seconds,
            }
        return on_progress

    def _execute(self, job_id: str) -> None:
        """Run one job end to end (called by queue workers; never raises)."""
        with self._lock:
            job = self.registry.get(job_id)
            if job is None or job.state != "queued":
                return
            job.mark_running()
            self._update_depth()
            self.registry.save([job])
        try:
            config = RunConfig.from_json_dict(job.config_wire)
            result = run_estimator(job.estimator, job.params,
                                   self._job_config(config, job.id))
            summary = summarise_result(result)
            with self._lock:
                job.mark_done(summary if summary is not None else {})
                self.metrics.counter("service.jobs_completed", "jobs").inc()
                self.registry.save([job])
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            with self._lock:
                job.mark_failed(f"{type(error).__name__}: {error}")
                self.metrics.counter("service.jobs_failed", "jobs").inc()
                self.registry.save([job])

    # -- queries -------------------------------------------------------

    def job(self, job_id: str) -> dict[str, Any]:
        job = self.registry.get(job_id)
        if job is None:
            raise ServiceError(404, "unknown-job",
                               f"no job with id {job_id!r}")
        with self._lock:
            return job.to_wire()

    def result(self, job_id: str) -> dict[str, Any]:
        """A finished job's summary + its validated run manifest."""
        job = self.registry.get(job_id)
        if job is None:
            raise ServiceError(404, "unknown-job",
                               f"no job with id {job_id!r}")
        if job.state == "failed":
            raise ServiceError(409, "job-failed",
                               f"job {job_id} failed: {job.error}")
        if job.state != "done":
            raise ServiceError(409, "not-finished",
                               f"job {job_id} is {job.state}; poll "
                               f"GET /v1/jobs/{job_id} until done")
        manifest = load_manifest(
            self.state_dir / "manifests" / f"{job_id}.json")
        with self._lock:
            return {"job": job.to_wire(), "result": job.result,
                    "manifest": manifest}

    def jobs_summary(self) -> dict[str, Any]:
        with self._lock:
            return {"jobs": [
                {"id": job.id, "key": job.key, "estimator": job.estimator,
                 "state": job.state, "priority": job.priority,
                 "dedup_hits": job.dedup_hits}
                for job in self.registry.jobs()
            ]}

    def health(self) -> dict[str, Any]:
        return {"status": "shutting-down" if self._closed else "ok",
                "schema_version": SCHEMA_VERSION,
                "jobs": len(self.registry),
                "queue_depth": self.queue.depth(),
                "running": self.queue.running()}

    def metrics_snapshot(self) -> dict[str, Any]:
        with self._lock:
            self._update_depth()
            return {"metrics": self.metrics.snapshot()}

    def _update_depth(self) -> None:
        self.metrics.gauge("service.queue_depth", "jobs").set(
            self.queue.depth())

    # -- shutdown ------------------------------------------------------

    def shutdown(self, drain_seconds: float = _DRAIN_SECONDS) -> dict[str, Any]:
        """Graceful shutdown: close submissions, drain, demote, persist.

        Submissions get 503 immediately; running jobs get up to
        ``drain_seconds`` to finish; whatever is still queued or running
        afterwards is demoted to ``queued`` and persisted, so the next
        start re-enqueues it and its shard journal resumes the work.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return {"status": "shutting-down", "demoted": 0}
            self._closed = True
        self.queue.shutdown(drain_seconds)
        with self._lock:
            demoted = 0
            for job in self.registry.jobs():
                if not job.finished:
                    job.state = "queued"
                    job.progress = None
                    demoted += 1
            self._update_depth()
            self.registry.save()
            return {"status": "shutting-down", "demoted": demoted}


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------

def _compile_routes() -> list[tuple[str, re.Pattern[str], str]]:
    compiled = []
    for method, template, _ in ROUTES:
        pattern = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[A-Za-z0-9_-]+)",
                         template) + "$")
        compiled.append((method, pattern, template))
    return compiled


_ROUTE_TABLE = _compile_routes()
_MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Translates HTTP requests onto the service; knows no job logic."""

    server_version = f"repro-serve/{SCHEMA_VERSION}"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        service: EstimationService = self.server.service
        path = urlsplit(self.path).path
        try:
            template = self._match(method, path)
            handler = {
                ("GET", "/v1/health"): lambda m: (service.health(), 200),
                ("GET", "/v1/estimators"): lambda m: (
                    {"estimators": [spec.describe() for _, spec in
                                    sorted(ESTIMATORS.items())]}, 200),
                ("GET", "/v1/metrics"): lambda m: (
                    service.metrics_snapshot(), 200),
                ("GET", "/v1/jobs"): lambda m: (service.jobs_summary(), 200),
                ("POST", "/v1/jobs"): lambda m: service.submit(self._body()),
                ("GET", "/v1/jobs/{id}"): lambda m: (
                    {"job": service.job(m["id"])}, 200),
                ("GET", "/v1/jobs/{id}/result"): lambda m: (
                    service.result(m["id"]), 200),
                ("POST", "/v1/shutdown"): lambda m: self._shutdown(service),
            }[(method, template)]
            match = next(p.match(path) for _, p, t in _ROUTE_TABLE
                         if t == template and p.match(path))
            payload, status = handler(match.groupdict())
            self._send(status, payload)
        except ServiceError as error:
            self._send(error.status, error.to_wire())
        except Exception as error:  # noqa: BLE001 - HTTP isolation boundary
            self._send(500, {"error": {"code": "internal",
                                       "message": f"{type(error).__name__}: "
                                                  f"{error}",
                                       "status": 500}})

    def _match(self, method: str, path: str) -> str:
        allowed = [m for m, pattern, _ in _ROUTE_TABLE if pattern.match(path)]
        if not allowed:
            raise ServiceError(404, "unknown-route",
                               f"no route matches {path!r}; see "
                               "docs/SERVICE.md for the API")
        if method not in allowed:
            raise ServiceError(405, "method-not-allowed",
                               f"{path!r} accepts {sorted(set(allowed))}, "
                               f"not {method}")
        return next(t for m, pattern, t in _ROUTE_TABLE
                    if m == method and pattern.match(path))

    def _body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        # Both rejections leave the body unread, and unread bytes would
        # parse as the next request: answer, then drop the connection.
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True
            raise ServiceError(400, "bad-length",
                               f"Content-Length must be a non-negative "
                               f"decimal integer, got {header!r}")
        length = int(header)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(400, "body-too-large",
                               f"request body exceeds {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError(400, "bad-body", "request body must be JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServiceError(400, "bad-json",
                               f"request body is not valid JSON: "
                               f"{error}") from error

    def _shutdown(self, service: EstimationService) -> tuple[dict, int]:
        payload = service.shutdown(getattr(self.server, "drain_seconds",
                                           _DRAIN_SECONDS))
        # serve_forever must be stopped from another thread.
        threading.Thread(target=self.server.shutdown, daemon=True).start()
        return payload, 200

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`EstimationService`.

    ``daemon_threads`` so a hung client connection can never block
    process exit; the service's own durability (journals + registry
    snapshots) is what guarantees nothing is lost.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: EstimationService, *,
                 drain_seconds: float = _DRAIN_SECONDS,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.drain_seconds = drain_seconds
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(host: str, port: int, state_dir: str | Path, *,
          default_config: RunConfig | None = None, job_workers: int = 1,
          max_queued: int = DEFAULT_MAX_QUEUED,
          drain_seconds: float = _DRAIN_SECONDS,
          verbose: bool = False) -> ServiceHTTPServer:
    """Build the service + HTTP server, bound and ready (not serving yet).

    ``port=0`` binds an ephemeral port — read it back from
    ``server.url`` (the CLI prints it; tests and the bench rely on it).
    The caller runs ``server.serve_forever()``; ``POST /v1/shutdown``
    stops it gracefully.
    """
    service = EstimationService(state_dir, default_config=default_config,
                                job_workers=job_workers,
                                max_queued=max_queued)
    return ServiceHTTPServer((host, port), service,
                             drain_seconds=drain_seconds, verbose=verbose)
