"""The service wire format: strict JSON schemas for submissions and errors.

Every byte that crosses the HTTP boundary is validated here, under one
rule inherited from :class:`~repro.runconfig.RunConfig`: **nothing is
silently dropped**.  An unknown top-level key, an unknown config field,
a wrongly-typed value, or an attempt to set a service-managed knob all
raise :class:`ServiceError` with a 4xx status and a stable machine
code — the client bug surfaces immediately instead of producing a
subtly different estimate.

The config a client submits is a *partial* wire dict (any subset of the
``RunConfig`` fields); the server folds it over its own default config
via :meth:`RunConfig.from_json_dict`, so an omitted knob means "the
server's default".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..runconfig import RunConfig

__all__ = ["SCHEMA_VERSION", "MANAGED_KNOBS", "ServiceError",
           "SubmitRequest", "parse_submit"]

#: Version tag of the HTTP wire format (bumped on breaking changes).
SCHEMA_VERSION = 1

#: RunConfig knobs the service owns per job and therefore refuses from
#: clients: the shard journal, shard cache, and run manifest live under
#: the service state directory (keyed by job identity), and progress is
#: an in-process callback feeding ``GET /v1/jobs/{id}`` — a client-
#: supplied path would let a request write arbitrary files on the
#: server, and a client-supplied callable is not expressible in JSON.
MANAGED_KNOBS = ("checkpoint", "cache", "manifest", "trace", "progress")

#: Priorities are clamped to a small symmetric band; a wider range buys
#: nothing (ordering is total either way) and invites magic numbers.
PRIORITY_BAND = 100

_SUBMIT_KEYS = frozenset({"estimator", "params", "config", "priority", "dedup"})


class ServiceError(Exception):
    """A request the service refuses, with an HTTP status and stable code.

    ``status`` is the HTTP response status (4xx for client errors, 503
    while shutting down); ``code`` a short machine-readable slug
    (``"unknown-field"``, ``"queue-full"``, ...) that clients can branch
    on without parsing prose; ``message`` the human explanation.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message

    def to_wire(self) -> dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message,
                          "status": self.status}}


@dataclass(frozen=True)
class SubmitRequest:
    """A validated ``POST /v1/jobs`` body.

    ``config_overrides`` holds exactly the RunConfig fields the client
    named (already type-checked); the service folds them over its
    default config.  ``priority`` orders the queue (higher runs first,
    FIFO within a priority); ``dedup=False`` opts one submission out of
    request dedup — it always creates a fresh job (whose shards still
    hit the content-addressed cache, so re-running an identical job is
    warm regardless).
    """

    estimator: str
    params: dict[str, Any] = field(default_factory=dict)
    config_overrides: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    dedup: bool = True


def _require(condition: bool, code: str, message: str,
             status: int = 400) -> None:
    if not condition:
        raise ServiceError(status, code, message)


def parse_submit(payload: Any) -> SubmitRequest:
    """Validate a ``POST /v1/jobs`` JSON body into a :class:`SubmitRequest`.

    Checks structure only — estimator existence and param values are the
    estimator catalogue's job (:func:`repro.service.estimators
    .validate_params`), and config *values* are validated by
    :meth:`RunConfig.from_json_dict` at submit time.  What is enforced
    here: the body is an object with no unknown keys, ``estimator`` is a
    string, ``params``/``config`` are objects, the config names only
    real RunConfig fields and none of the service-managed
    :data:`MANAGED_KNOBS`, ``priority`` is an integer within the
    :data:`PRIORITY_BAND`, and ``dedup`` is a boolean.
    """
    _require(isinstance(payload, dict), "bad-body",
             f"request body must be a JSON object, got "
             f"{type(payload).__name__}")
    unknown = sorted(set(payload) - _SUBMIT_KEYS)
    _require(not unknown, "unknown-field",
             f"unknown submission field(s): {unknown}; "
             f"known: {sorted(_SUBMIT_KEYS)}")

    estimator = payload.get("estimator")
    _require(isinstance(estimator, str) and estimator != "", "bad-estimator",
             "'estimator' must be a non-empty string")

    params = payload.get("params", {})
    _require(isinstance(params, dict), "bad-params",
             "'params' must be a JSON object")

    config = payload.get("config", {})
    _require(isinstance(config, dict), "bad-config",
             "'config' must be a JSON object of RunConfig fields")
    managed = sorted(set(config) & set(MANAGED_KNOBS))
    _require(not managed, "managed-knob",
             f"config field(s) {managed} are managed by the service "
             "(journals, cache, manifests and progress live under the "
             "server state directory) and cannot be set per request")
    try:
        # Validate field names and types against the defaults; the
        # server re-folds over its own default config at submit time.
        RunConfig.from_json_dict(config)
    except (TypeError, ValueError) as error:
        raise ServiceError(400, "bad-config", str(error)) from error

    priority = payload.get("priority", 0)
    _require(isinstance(priority, int) and not isinstance(priority, bool),
             "bad-priority", "'priority' must be an integer")
    _require(-PRIORITY_BAND <= priority <= PRIORITY_BAND, "bad-priority",
             f"'priority' must lie in [-{PRIORITY_BAND}, {PRIORITY_BAND}], "
             f"got {priority}")

    dedup = payload.get("dedup", True)
    _require(isinstance(dedup, bool), "bad-dedup",
             "'dedup' must be a boolean")

    return SubmitRequest(estimator=estimator, params=dict(params),
                         config_overrides=dict(config),
                         priority=priority, dedup=dedup)
