"""The priority job queue and its shared worker pool.

A small, dependency-free scheduler: submissions enter a heap ordered by
``(-priority, seq)`` — higher priority runs first, FIFO within a
priority — and a fixed pool of daemon threads drains it, invoking the
service's execute callback one job at a time per worker.  Each job's
*shards* then fan out through :func:`repro.stats.parallel.run_sharded`
exactly as they do everywhere else in the library; the queue only
decides which job gets the engine next.

Two control surfaces:

* **Rate control** — :meth:`JobQueue.submit` raises :class:`QueueFull`
  once ``max_queued`` jobs are waiting (running jobs do not count);
  the HTTP layer maps it to ``429``.
* **Graceful shutdown** — :meth:`JobQueue.shutdown` closes the queue
  (workers take no new jobs), waits up to ``drain_seconds`` for running
  jobs to finish, and returns the job ids still waiting so the service
  can demote them to ``queued`` and persist them for resume.  Because
  every job writes each finished shard to the shared shard cache, even
  a job whose drain window expires loses at most its in-flight shard.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable

__all__ = ["DEFAULT_MAX_QUEUED", "JobQueue", "QueueFull"]

#: Default cap on jobs waiting in the queue (running jobs excluded).
DEFAULT_MAX_QUEUED = 64


class QueueFull(Exception):
    """Raised by :meth:`JobQueue.submit` when ``max_queued`` jobs wait."""

    def __init__(self, max_queued: int):
        super().__init__(
            f"job queue is full ({max_queued} jobs queued); retry later")
        self.max_queued = max_queued


class JobQueue:
    """A closed-world priority queue drained by ``workers`` threads.

    ``execute`` is called with one job id at a time per worker; it must
    not raise (the service's executor catches everything and marks the
    job failed).  Construction does not start the pool — the service
    first re-enqueues unfinished jobs from the registry, *then* calls
    :meth:`start`, so resumed jobs keep their original priorities
    relative to any new submissions.
    """

    def __init__(self, execute: Callable[[str], None], *, workers: int = 1,
                 max_queued: int = DEFAULT_MAX_QUEUED) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queued < 1:
            raise ValueError(f"max_queued must be positive, got {max_queued}")
        self._execute = execute
        self._workers = workers
        self._max_queued = max_queued
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        self._running = 0
        self._closed = False
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []

    # -- producer side -------------------------------------------------

    def submit(self, job_id: str, priority: int = 0, *,
               force: bool = False) -> None:
        """Enqueue ``job_id``; raises :class:`QueueFull` or ``RuntimeError``
        (closed queue — the HTTP layer answers 503 before this can hit).
        ``force=True`` bypasses the cap: restart resume must re-enqueue
        every unfinished job even when there are more than ``max_queued``
        of them (they were all legitimately accepted before)."""
        with self._wake:
            if self._closed:
                raise RuntimeError("queue is shut down")
            if not force and len(self._heap) >= self._max_queued:
                raise QueueFull(self._max_queued)
            self._seq += 1
            heapq.heappush(self._heap, (-priority, self._seq, job_id))
            self._wake.notify()

    def is_full(self) -> bool:
        with self._lock:
            return len(self._heap) >= self._max_queued

    def depth(self) -> int:
        """Jobs waiting (not running) — the ``service.queue_depth`` gauge."""
        with self._lock:
            return len(self._heap)

    def running(self) -> int:
        with self._lock:
            return self._running

    # -- worker side ---------------------------------------------------

    def start(self) -> None:
        """Spin up the worker pool (idempotent)."""
        if self._threads:
            return
        for index in range(self._workers):
            thread = threading.Thread(target=self._worker, daemon=True,
                                      name=f"repro-service-worker-{index}")
            thread.start()
            self._threads.append(thread)

    def _worker(self) -> None:
        while True:
            with self._wake:
                while not self._heap and not self._closed:
                    self._wake.wait()
                if self._closed:
                    return
                _, _, job_id = heapq.heappop(self._heap)
                self._running += 1
            try:
                self._execute(job_id)
            finally:
                with self._lock:
                    self._running -= 1
                    self._idle.notify_all()

    # -- shutdown ------------------------------------------------------

    def shutdown(self, drain_seconds: float = 30.0) -> list[str]:
        """Close the queue, drain running jobs, return the leftovers.

        Closes submissions, tells idle workers to exit, waits up to
        ``drain_seconds`` for jobs already running to finish, and
        returns the ids still waiting in the heap (priority order) —
        the service demotes them to ``queued`` in the registry so a
        restart re-enqueues them.  Workers are daemon threads, so a job
        that outlives the drain window cannot block process exit; the
        shard cache bounds the loss to one shard.
        """
        with self._wake:
            self._closed = True
            leftovers = [job_id for _, _, job_id in sorted(self._heap)]
            self._heap.clear()
            self._wake.notify_all()
            deadline = time.monotonic() + drain_seconds
            while self._running and time.monotonic() < deadline:
                self._idle.wait(timeout=min(0.1, drain_seconds))
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        return leftovers
