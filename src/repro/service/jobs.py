"""Job records and the persistent registry behind the estimation service.

A :class:`Job` is everything the service knows about one submission:
the dedup identity (:func:`~repro.service.estimators.job_key`), the
fully-defaulted params, the merged config in wire form, lifecycle state,
live progress, and — once finished — the result summary or error.  The
:class:`JobRegistry` owns every job, hands out sequential ids, and
persists itself as one JSON snapshot (written atomically: tmp file +
``os.replace``) so a restarted server can re-enqueue whatever had not
finished.  The registry keeps each job's encoded record and a save
re-encodes only the jobs its caller names, so the service's save at one
job's transition encodes that one job, and the file shows every job as
of its last transition.

Lifecycle is deliberately small::

    queued -> running -> done
                      -> failed

There is no separate "interrupted" state: graceful shutdown demotes
``running``/``queued`` jobs back to ``queued`` before persisting, and
the shared shard cache every job writes to means a resumed job
re-executes only the shards its previous life never finished.

The registry itself does no locking — the owning
:class:`~repro.service.server.EstimationService` serialises all
mutations under one lock (job execution happens *outside* that lock;
only state transitions take it).
"""

from __future__ import annotations

import copy
import json
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["JOB_STATES", "Job", "JobRegistry"]

#: The complete lifecycle vocabulary, in transition order.
JOB_STATES = ("queued", "running", "done", "failed")

_SNAPSHOT_KIND = "repro/service-jobs"
_SNAPSHOT_FORMAT = 1

#: ``RunConfig`` knobs removed since 3.x: name -> (the value every wire
#: config of the release before held unless a client set it, the release
#: that removed the knob).  A snapshot job holding exactly that value
#: loses the key on load (the new release computes the same numbers); an
#: unfinished job that set any other value cannot run and fails.
_REMOVED_KNOBS = {"rng_plan": ("spawn", "4.0"), "fingerprint": (None, "4.0"),
                  "backend": (None, "6.0")}


@dataclass
class Job:
    """One submission's full record (mutable; wire form via ``to_wire``).

    ``key`` is the dedup identity — several submissions may share it
    (``dedup_hits`` counts the collapsed ones); ``id`` is unique per
    job.  ``config_wire`` stores the *merged client-visible* config
    (request overrides folded over the server default) — the managed
    checkpoint/cache/manifest paths are derived from the state directory
    at execution time, so a snapshot moved to a new state directory
    still resumes correctly.
    """

    id: str
    key: str
    estimator: str
    params: dict[str, Any]
    config_wire: dict[str, Any]
    priority: int = 0
    state: str = "queued"
    dedup_hits: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    progress: dict[str, Any] | None = None
    result: dict[str, Any] | None = None
    error: str | None = None

    def to_wire(self) -> dict[str, Any]:
        """The job as a JSON-ready dict (also the persistence format).

        The nested dicts are copies, so the caller cannot change the job
        through them.
        """
        wire = dict(vars(self))
        wire["params"] = dict(self.params)
        wire["config_wire"] = dict(self.config_wire)
        if self.progress is not None:
            wire["progress"] = dict(self.progress)
        wire["result"] = copy.deepcopy(self.result)
        return wire

    @classmethod
    def from_wire(cls, payload: dict[str, Any]) -> "Job":
        known = {spec for spec in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown job field(s) in snapshot: {unknown}")
        job = cls(**payload)
        if job.state not in JOB_STATES:
            raise ValueError(f"unknown job state {job.state!r} in snapshot; "
                             f"known: {JOB_STATES}")
        return job

    def mark_running(self) -> None:
        self.state = "running"
        self.started_at = time.time()

    def mark_done(self, result: dict[str, Any]) -> None:
        self.state = "done"
        self.result = result
        self.error = None
        self.finished_at = time.time()

    def mark_failed(self, error: str) -> None:
        self.state = "failed"
        self.error = error
        self.finished_at = time.time()

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def drop_removed_knobs(self) -> None:
        """Upgrade an older ``config_wire`` (see :data:`_REMOVED_KNOBS`)."""
        for knob, (default, release) in _REMOVED_KNOBS.items():
            if knob not in self.config_wire:
                continue
            value = self.config_wire[knob]
            if value == default:
                del self.config_wire[knob]
            elif not self.finished:
                self.mark_failed(f"RunConfig knob {knob!r} was removed in "
                                 f"{release}; this job set {knob}={value!r}")


class JobRegistry:
    """Every job the service has accepted, persisted as one JSON snapshot.

    ``path=None`` keeps the registry purely in memory (unit tests).
    ``load`` + ``unfinished`` + the service's re-enqueue implement the
    resume-on-restart contract documented in ``docs/SERVICE.md``.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._seq = 0
        # Each job's JSON record as of the save that last encoded it.
        self._records: dict[str, str] = {}

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, oldest first (ids are sequential)."""
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def find_dedup_target(self, key: str) -> Job | None:
        """The live job an identical submission should collapse onto.

        The newest job with this ``key`` that did not fail — a failed
        job must not absorb new submissions (the retry would never
        happen), so after a failure the next identical submission starts
        fresh (and still finds the dead job's shards in the cache).
        """
        job_id = self._by_key.get(key)
        if job_id is None:
            return None
        job = self._jobs[job_id]
        return None if job.state == "failed" else job

    def unfinished(self) -> list[Job]:
        """Jobs a restarted server must re-enqueue (oldest first)."""
        return [job for job in self.jobs() if not job.finished]

    # -- mutation ------------------------------------------------------

    def create(self, *, key: str, estimator: str, params: dict[str, Any],
               config_wire: dict[str, Any], priority: int = 0) -> Job:
        """Mint a new ``queued`` job with the next sequential id."""
        self._seq += 1
        job = Job(id=f"job-{self._seq:05d}", key=key, estimator=estimator,
                  params=dict(params), config_wire=dict(config_wire),
                  priority=priority)
        self._jobs[job.id] = job
        self._by_key[key] = job.id
        return job

    # -- persistence ---------------------------------------------------

    def save(self, jobs: Iterable[Job] | None = None) -> None:
        """Atomically snapshot every job to ``path`` (no-op when in-memory).

        The registry keeps each job's encoded record from the save that
        last encoded it, and re-encodes only ``jobs`` (every job when
        ``None``) plus any job never encoded yet.  So a caller names the
        jobs it changed since its last save: one transition costs one
        job's encoding at any registry size, and a job changed but not
        named is written as of its last save.  The file is one JSON
        object with one job record per line.
        """
        if self.path is None:
            return
        if jobs is None:
            self._records.clear()
        else:
            for job in jobs:
                self._records[job.id] = _encode(job)
        lines = []
        for job in self.jobs():
            record = self._records.get(job.id)
            if record is None:
                record = self._records[job.id] = _encode(job)
            lines.append(record)
        text = (f'{{"kind": "{_SNAPSHOT_KIND}", "format": {_SNAPSHOT_FORMAT}, '
                f'"seq": {self._seq}, "jobs": [\n' + ",\n".join(lines) + "\n]}\n")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, path: str | Path) -> "JobRegistry":
        """Rebuild a registry from a snapshot (fresh registry if absent).

        A malformed snapshot raises rather than silently starting empty:
        losing the job history would also orphan every manifest under
        the state directory.
        """
        registry = cls(path)
        snapshot_path = Path(path)
        if not snapshot_path.exists():
            return registry
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        if snapshot.get("kind") != _SNAPSHOT_KIND:
            raise ValueError(f"{snapshot_path} is not a {_SNAPSHOT_KIND} "
                             f"snapshot (kind={snapshot.get('kind')!r})")
        if snapshot.get("format") != _SNAPSHOT_FORMAT:
            raise ValueError(f"unsupported jobs snapshot format "
                             f"{snapshot.get('format')!r}")
        registry._seq = int(snapshot.get("seq", 0))
        for payload in snapshot.get("jobs", []):
            job = Job.from_wire(payload)
            job.drop_removed_knobs()
            registry._jobs[job.id] = job
            # Later jobs win the key slot, matching create() order.
            registry._by_key[job.key] = job.id
        return registry


def _encode(job: Job) -> str:
    """One job's record in the snapshot."""
    return json.dumps(job.to_wire(), sort_keys=True)
