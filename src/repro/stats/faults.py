"""Fault-tolerant task execution for the sharded Monte-Carlo engine.

Long production-scale runs of the paper's estimators (Theorem 6.2/6.3
sweeps at large ``n``) fail for boring reasons — an OOM-killed worker, a
wedged process, a transient filesystem hiccup — and a failure thousands of
shards into a budget must not discard the completed work or, worse, change
the numbers.  This module supplies the recovery machinery, and it is safe
*only because of* the engine's seeding discipline: each shard is a pure
function of ``(seed, shards, i)``, so a retried shard is **bit-identical**
to the attempt it replaces, and a merged result is independent of how many
times any shard had to run.

Three mechanisms, composable and all off by default:

* **Bounded per-task retry** (:class:`RetryPolicy`) — a task that raises
  is re-executed up to ``retries`` extra attempts with exponential
  backoff; exhausting the budget raises :class:`ShardExecutionError`
  naming the task and chaining the last cause.
* **Per-task timeouts** — in pooled execution, a task that exceeds
  ``timeout`` seconds is charged a failed attempt and the pool is
  recycled (a running future cannot be cancelled, so the pool's workers
  are killed with it).  Timeouts are not enforceable on the in-process
  serial path and are ignored there.
* **``BrokenProcessPool`` recovery** — a worker dying (segfault,
  ``os._exit``, OOM kill) breaks the whole executor; the engine rebuilds
  the pool and re-executes *only the tasks whose results were lost*, each
  charged one failed attempt.  A pool found broken between two calls is
  rebuilt before any task is submitted, charging nothing.

**One pool per scope.**  :func:`pool_scope` lets the pooled calls of a
command share one ``ProcessPoolExecutor``: it is forked at the first
pooled call, reused while it has enough (but not more than ``workers``)
processes, replaced only on a recycle or a resize, and shut down when
the scope exits.  :func:`execute_tasks` enters a scope itself, so an
unscoped call is a scope of one call.  The scope is per thread and per
process: concurrent job threads never share a pool, and a forked worker
never uses its parent's.

Determinism of the recovery path is testable through the **fault
injection hook**: :func:`execute_tasks` accepts a picklable callable
``injector(index, attempt)`` that runs in the worker before the real
task; :class:`ScriptedFaults` kills chosen tasks on chosen attempts,
either by raising (:class:`InjectedFault`) or by hard-exiting the worker
process (provoking ``BrokenProcessPool``).

:func:`repro.stats.parallel.run_sharded` and
:func:`~repro.stats.parallel.parallel_map` route through
:func:`execute_tasks`; checkpointing of completed shards lives in
:mod:`repro.stats.checkpoint` and plugs in via the ``completed`` /
``on_result`` parameters.

Failures are **never silent**: the engine emits structured events
(``task_failed`` with an ``error``/``timeout``/``pool`` kind,
``task_finished`` with attempt count and in-worker wall time,
``pool_recycled``) through the ``on_event`` hook, which
:mod:`repro.obs` turns into metrics, the live progress line, and the
run manifest's retry ledger.  With ``timed=True`` each task's wall time
and worker pid piggyback on the pool's own result transport
(:class:`TaskTelemetry`) — a process-safe telemetry channel with no
extra queues or shared state.  Both hooks default off, leaving the
un-observed path byte-for-byte as before.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, TypeVar

__all__ = [
    "RetryPolicy",
    "InjectedFault",
    "ShardExecutionError",
    "ScriptedFaults",
    "TaskTelemetry",
    "execute_tasks",
    "pool_scope",
]

T = TypeVar("T")

#: Attempt-number ceiling guarding against pathological retry policies.
MAX_ATTEMPTS = 64


class InjectedFault(RuntimeError):
    """Deterministic failure raised by a test fault injector."""


class ShardExecutionError(RuntimeError):
    """A task failed on every attempt its :class:`RetryPolicy` allowed."""

    def __init__(self, index: int, attempts: int, cause: BaseException):
        self.index = index
        self.attempts = attempts
        super().__init__(
            f"task {index} failed after {attempts} attempt(s): {cause!r}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a shard dead.

    ``retries`` is the number of *extra* attempts after the first (the
    default 0 preserves fail-fast behaviour); ``timeout`` bounds one
    pooled attempt in seconds (``None`` = unbounded; otherwise positive
    and finite); the backoff before re-running a task that has failed
    ``k`` times is ``min(backoff * backoff_factor**(k - 1), max_backoff)``
    seconds.
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.retries + 1 > MAX_ATTEMPTS:
            raise ValueError(f"retries must be at most {MAX_ATTEMPTS - 1}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, got "
                             f"{self.timeout}")
        if self.backoff < 0 or self.backoff_factor < 1 or self.max_backoff < 0:
            raise ValueError("backoff parameters must be non-negative "
                             "with backoff_factor >= 1")

    def delay(self, failures: int) -> float:
        """Seconds to wait before re-running a task with ``failures`` failures."""
        if self.backoff <= 0 or failures < 1:
            return 0.0
        return min(self.backoff * self.backoff_factor ** (failures - 1),
                   self.max_backoff)


@dataclass(frozen=True)
class ScriptedFaults:
    """A deterministic, picklable fault injector for tests and benches.

    ``failures`` maps a task index to how many of its first attempts must
    die; attempts are numbered from 0, so ``{2: 1}`` kills task 2 exactly
    once and lets its retry through.  ``kind="raise"`` raises
    :class:`InjectedFault` inside the task (exercising the retry path);
    ``kind="exit"`` hard-exits the worker process (exercising
    ``BrokenProcessPool`` recovery — never use it on the serial path, it
    would kill the calling process).
    """

    failures: dict[int, int] = field(default_factory=dict)
    kind: str = "raise"

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "exit"):
            raise ValueError(f"kind must be 'raise' or 'exit', got {self.kind!r}")

    def __call__(self, index: int, attempt: int) -> None:
        if attempt < self.failures.get(index, 0):
            if self.kind == "exit":
                os._exit(13)
            raise InjectedFault(f"injected fault: task {index}, attempt {attempt}")


@dataclass(frozen=True)
class TaskTelemetry:
    """In-worker measurements that ride back with a task's result.

    ``seconds`` is the wall time of the successful attempt measured
    *inside* the worker (queueing and pickling excluded); ``worker`` is
    the executing process's pid.  Both are observability-only — they are
    stripped before results reach any merge.
    """

    seconds: float
    worker: int


def _run_task(
    function: Callable[..., T],
    arguments: tuple,
    index: int,
    attempt: int,
    injector: Callable[[int, int], None] | None,
    timed: bool = False,
) -> T | tuple[T, TaskTelemetry]:
    """One attempt of one task (module level: picklable for pool transport).

    With ``timed=True`` the return value is ``(result, TaskTelemetry)``
    — the telemetry channel of the observability layer.
    """
    if injector is not None:
        injector(index, attempt)
    if not timed:
        return function(*arguments)
    started = time.perf_counter()
    value = function(*arguments)
    return value, TaskTelemetry(time.perf_counter() - started, os.getpid())


class _Scope(threading.local):
    """The open :func:`pool_scope` of this thread, and the pool it holds.

    ``owner`` is the pid that opened the scope: a forked worker inherits
    its parent's thread state, and must not mistake it for its own.
    """

    owner: int | None = None
    pool: ProcessPoolExecutor | None = None
    size: int = 0
    tracker: int | None = None

    def acquire(self, size: int, workers: int) -> ProcessPoolExecutor:
        """The scope's pool for a call of ``size`` processes at most ``workers``.

        The pool is reused while it has at least ``size`` and at most
        ``workers`` processes and shares this process's resource tracker;
        otherwise a pool of ``size`` is forked.
        """
        if self.pool is not None and not (size <= self.size <= workers
                                          and self.tracker == _tracker()):
            self.retire()
        if self.pool is None:
            self.pool, self.size = ProcessPoolExecutor(max_workers=size), size
            self.tracker = _tracker()
        return self.pool

    def retire(self, kill: bool = False) -> None:
        """Shut the pool down; ``kill`` first when a worker may be wedged.

        A running future cannot be cancelled, and both ``shutdown`` and
        the interpreter's exit join every worker, so a wedged task would
        otherwise hold the process until it returns.
        """
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if kill:
            for process in list(pool._processes.values()):
                process.kill()
        pool.shutdown(wait=True, cancel_futures=True)


_SCOPE = _Scope()


def _tracker() -> int | None:
    """The pid of this process's resource tracker (``None``: not started).

    Workers inherit the tracker running when they are forked.  One forked
    before the parent's first shared-memory table starts its own on
    attaching, and that tracker unlinks the table when the worker exits.
    """
    return resource_tracker._resource_tracker._pid


def _broken(pool: ProcessPoolExecutor | None) -> bool:
    """Whether a held pool broke while idle: marked broken, or a worker died."""
    return pool is not None and (bool(pool._broken) or not all(
        process.is_alive() for process in pool._processes.values()))


@contextmanager
def pool_scope() -> Iterator[None]:
    """Share one process pool among the pooled engine calls in the block.

    The pool is forked lazily at the first pooled call, replaced only on
    a recycle (a timeout or a broken pool) or when a call needs another
    size, and shut down on exit.  A nested scope is a no-op.  Workers
    only place tasks, so a scope changes no result.
    """
    if _SCOPE.owner == os.getpid():
        yield
        return
    _SCOPE.owner, _SCOPE.pool = os.getpid(), None  # drop a parent's pool
    try:
        yield
    finally:
        _SCOPE.retire()
        _SCOPE.owner = None


def execute_tasks(
    function: Callable[..., T],
    argument_tuples: Sequence[tuple],
    workers: int = 1,
    policy: RetryPolicy | None = None,
    serial: bool | None = None,
    fault_injector: Callable[[int, int], None] | None = None,
    on_result: Callable[[int, T], None] | None = None,
    completed: dict[int, T] | None = None,
    on_event: Callable[[str, dict], None] | None = None,
) -> list[T]:
    """Run ``function(*argument_tuples[i])`` for every ``i``, fault-tolerantly.

    Returns results **in task order** regardless of completion order.
    ``completed`` pre-loads already-known results by index (checkpoint
    resume); those tasks are never executed.  ``on_result(index, result)``
    fires in the parent process as each task finishes — the hook that
    stores finished shards.  ``serial`` forces the in-process path (``None``
    auto-selects: serial when one worker or at most one outstanding task).

    ``on_event(name, payload)`` is the observability hook, fired in the
    parent:  ``("task_finished", {index, attempts, seconds, worker})``
    when a task completes (``seconds``/``worker`` measured in-worker via
    :class:`TaskTelemetry`), ``("task_failed", {index, attempt, kind,
    error})`` for each failed attempt that will be retried (``kind`` is
    ``"error"``, ``"timeout"`` or ``"pool"``), and ``("pool_recycled",
    {})`` when the pool is torn down and rebuilt.  Passing ``on_event``
    enables in-task timing; leaving it ``None`` keeps the execution path
    identical to the un-instrumented engine.

    Retry correctness is the caller's contract: tasks must be pure
    (deterministic in their arguments, no side effects that accumulate
    across attempts), which every seed-disciplined shard kernel satisfies.
    """
    policy = policy or RetryPolicy()
    tasks = list(argument_tuples)
    results: dict[int, Any] = dict(completed or {})
    unknown = [index for index in results if not 0 <= index < len(tasks)]
    if unknown:
        raise ValueError(f"completed indices out of range: {sorted(unknown)}")
    outstanding = [index for index in range(len(tasks)) if index not in results]
    if serial is None:
        serial = workers == 1 or len(outstanding) <= 1
    if outstanding:
        if serial:
            _execute_serial(function, tasks, outstanding, policy,
                            fault_injector, on_result, results, on_event)
        else:
            with pool_scope():
                _execute_pooled(function, tasks, outstanding, workers, policy,
                                fault_injector, on_result, results, on_event)
    return [results[index] for index in range(len(tasks))]


def _execute_serial(
    function: Callable[..., T],
    tasks: list[tuple],
    outstanding: Sequence[int],
    policy: RetryPolicy,
    fault_injector: Callable[[int, int], None] | None,
    on_result: Callable[[int, T], None] | None,
    results: dict[int, Any],
    on_event: Callable[[str, dict], None] | None = None,
) -> None:
    """In-process execution with retry (timeouts are not enforceable here)."""
    timed = on_event is not None
    for index in outstanding:
        failures = 0
        while True:
            try:
                outcome = _run_task(function, tasks[index], index, failures,
                                    fault_injector, timed)
            except Exception as error:
                failures += 1
                if on_event is not None:
                    on_event("task_failed", {"index": index,
                                             "attempt": failures - 1,
                                             "kind": "error",
                                             "error": repr(error)})
                if failures > policy.retries:
                    raise ShardExecutionError(index, failures, error) from error
                time.sleep(policy.delay(failures))
            else:
                if timed:
                    result, telemetry = outcome
                    on_event("task_finished", {"index": index,
                                               "attempts": failures + 1,
                                               "seconds": telemetry.seconds,
                                               "worker": telemetry.worker})
                else:
                    result = outcome
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
                break


def _failure_kind(error: BaseException) -> str:
    if isinstance(error, _FutureTimeout):
        return "timeout"
    if isinstance(error, BrokenExecutor):
        return "pool"
    return "error"


def _submit(pool: ProcessPoolExecutor, *arguments: Any) -> Future:
    """``pool.submit(_run_task, ...)``, with a pool that broke as a failed future."""
    try:
        return pool.submit(_run_task, *arguments)
    except BrokenExecutor as error:
        future: Future = Future()
        future.set_exception(error)
        return future


def _execute_pooled(
    function: Callable[..., T],
    tasks: list[tuple],
    outstanding: Sequence[int],
    workers: int,
    policy: RetryPolicy,
    fault_injector: Callable[[int, int], None] | None,
    on_result: Callable[[int, T], None] | None,
    results: dict[int, Any],
    on_event: Callable[[str, dict], None] | None = None,
) -> None:
    """Process-pool execution in waves: submit all pending, harvest, retry.

    Each wave takes the pool of the open :func:`pool_scope`, submits
    every pending task, then harvests each future with the policy
    timeout.  Tasks that raised are charged a failed attempt; a timeout
    or a broken executor additionally recycles the pool (the former
    because the stuck worker cannot be cancelled, the latter because the
    executor is unusable), after which only the tasks whose results were
    lost are resubmitted.  A call that raises retires the pool too.
    """
    timed = on_event is not None
    remaining: dict[int, int] = {index: 0 for index in outstanding}
    pool_size = min(workers, len(remaining))
    stuck = False  # a timed-out task may occupy a worker forever
    try:
        while remaining:
            if _broken(_SCOPE.pool):
                _SCOPE.retire()
                if on_event is not None:
                    on_event("pool_recycled", {})
            pool = _SCOPE.acquire(pool_size, workers)
            stuck = False
            futures = {
                index: _submit(pool, function, tasks[index], index,
                               remaining[index], fault_injector, timed)
                for index in sorted(remaining)
            }
            recycle = False
            failed: dict[int, BaseException] = {}
            for index, future in futures.items():
                try:
                    outcome = future.result(timeout=policy.timeout)
                except _FutureTimeout as error:
                    failed[index] = error
                    recycle = stuck = True
                except BrokenExecutor as error:
                    failed[index] = error
                    recycle = True
                except Exception as error:
                    failed[index] = error
                else:
                    if timed:
                        result, telemetry = outcome
                        on_event("task_finished",
                                 {"index": index,
                                  "attempts": remaining[index] + 1,
                                  "seconds": telemetry.seconds,
                                  "worker": telemetry.worker})
                    else:
                        result = outcome
                    results[index] = result
                    del remaining[index]
                    if on_result is not None:
                        on_result(index, result)
            for index, error in failed.items():
                if on_event is not None:
                    on_event("task_failed", {"index": index,
                                             "attempt": remaining[index],
                                             "kind": _failure_kind(error),
                                             "error": repr(error)})
                remaining[index] += 1
                if remaining[index] > policy.retries:
                    raise ShardExecutionError(index, remaining[index],
                                              error) from error
            if recycle:
                _SCOPE.retire(kill=stuck)
                if on_event is not None:
                    on_event("pool_recycled", {})
            if remaining and failed:
                time.sleep(policy.delay(max(remaining[index]
                                            for index in failed)))
    except BaseException:
        _SCOPE.retire(kill=stuck)
        raise
