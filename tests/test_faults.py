"""Tests for the fault-tolerance layer (repro.stats.faults).

The invariant under test everywhere: recovery never changes numbers.  A
shard is a pure function of ``(seed, shards, i)``, so a retried,
pool-recovered, or timed-out-and-rerun shard must be **bit-identical** to
the attempt it replaces, and the merged run must equal an undisturbed one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import RunConfig
from repro.litmus import FamilySpec, sweep_family
from repro.parallel import (
    InjectedFault,
    RetryPolicy,
    ScriptedFaults,
    ShardExecutionError,
    ShardPlan,
    execute_tasks,
    pool_scope,
    run_sharded,
)

ROOT = Path(__file__).resolve().parents[1]

#: Fast-backoff policy so retry tests do not sleep for real.
FAST = dict(backoff=0.0)


def _sum_kernel(source, shard_trials) -> int:
    return int(source.bernoulli_array(0.5, shard_trials).sum()) if shard_trials else 0


def _identity(value):
    return value


def _pid(_value) -> int:
    return os.getpid()


def _square(value: int) -> int:
    return value * value


def _sum_of_squares(n: int) -> int:
    """A pooled task that runs a pool of its own."""
    return sum(execute_tasks(_square, [(k,) for k in range(1, n + 1)],
                             workers=2))


def _children() -> set[int]:
    """Pids of this process's live pool workers (reaping the dead)."""
    return {child.pid for child in multiprocessing.active_children()}


def _run_script(script: str) -> tuple[subprocess.CompletedProcess, float]:
    """Run ``script`` in a fresh interpreter at the repository root."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    return done, time.monotonic() - started


@dataclass(frozen=True)
class _SleepOnFirstAttempt:
    """Picklable injector that wedges one task's first attempt."""

    index: int
    seconds: float

    def __call__(self, index: int, attempt: int) -> None:
        if index == self.index and attempt == 0:
            time.sleep(self.seconds)


class TestRetryPolicy:
    def test_defaults_fail_fast(self):
        policy = RetryPolicy()
        assert policy.retries == 0
        assert policy.timeout is None

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(retries=8, backoff=0.1, backoff_factor=2.0,
                             max_backoff=0.5)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(retries=1000)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout):
        # nan never elapses and inf overflows the pool's deadline: either
        # would fail every pooled shard instead of failing here.
        with pytest.raises(ValueError, match="finite"):
            RetryPolicy(timeout=timeout)


class TestScriptedFaults:
    def test_kills_scripted_attempts_only(self):
        faults = ScriptedFaults(failures={2: 2})
        faults(0, 0)  # untouched task: no-op
        with pytest.raises(InjectedFault):
            faults(2, 0)
        with pytest.raises(InjectedFault):
            faults(2, 1)
        faults(2, 2)  # third attempt survives

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ScriptedFaults(kind="segfault")


class TestExecuteTasksSerial:
    def test_plain_execution_in_order(self):
        results = execute_tasks(_identity, [(3,), (1,), (2,)])
        assert results == [3, 1, 2]

    def test_retry_heals_injected_faults(self):
        faults = ScriptedFaults(failures={0: 2, 2: 1})
        results = execute_tasks(
            _identity, [(10,), (20,), (30,)],
            policy=RetryPolicy(retries=2, **FAST), fault_injector=faults,
        )
        assert results == [10, 20, 30]

    def test_exhausted_retries_raise_with_task_identity(self):
        faults = ScriptedFaults(failures={1: 99})
        with pytest.raises(ShardExecutionError) as excinfo:
            execute_tasks(_identity, [(1,), (2,)],
                          policy=RetryPolicy(retries=2, **FAST),
                          fault_injector=faults)
        assert excinfo.value.index == 1
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_completed_tasks_are_not_reexecuted(self):
        faults = ScriptedFaults(failures={0: 99})  # would never succeed
        results = execute_tasks(_identity, [(7,), (8,)],
                                fault_injector=faults,
                                completed={0: 70})
        assert results == [70, 8]

    def test_completed_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            execute_tasks(_identity, [(1,)], completed={5: 0})

    def test_on_result_fires_per_fresh_result(self):
        seen = []
        execute_tasks(_identity, [(1,), (2,), (3,)],
                      on_result=lambda index, value: seen.append((index, value)),
                      completed={1: 20})
        assert seen == [(0, 1), (2, 3)]


class TestExecuteTasksPooled:
    def test_pool_matches_serial(self):
        tasks = [(value,) for value in range(6)]
        assert (execute_tasks(_identity, tasks, workers=2, serial=False)
                == execute_tasks(_identity, tasks))

    def test_retry_heals_raised_faults(self):
        plan = ShardPlan(trials=1200, shards=4, seed=5)
        clean = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        faults = ScriptedFaults(failures={1: 1, 3: 2})
        healed = run_sharded(_sum_kernel, plan,
                             config=RunConfig(workers=2, retries=2), fault_injector=faults)
        assert healed == clean

    def test_broken_pool_recovery_reexecutes_lost_shards(self):
        plan = ShardPlan(trials=1200, shards=4, seed=6)
        clean = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        # kind="exit" hard-kills the worker: the executor breaks and every
        # unfinished shard must be recovered on a fresh pool.
        faults = ScriptedFaults(failures={2: 1}, kind="exit")
        recovered = run_sharded(_sum_kernel, plan,
                                config=RunConfig(workers=2, retries=2), fault_injector=faults)
        assert recovered == clean

    def test_timeout_charges_attempt_and_recovers(self):
        plan = ShardPlan(trials=400, shards=3, seed=8)
        clean = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        slow = _SleepOnFirstAttempt(index=1, seconds=5.0)
        start = time.perf_counter()
        healed = run_sharded(_sum_kernel, plan,
                             config=RunConfig(workers=2, retries=1, timeout=0.5),
                                              fault_injector=slow)
        elapsed = time.perf_counter() - start
        assert healed == clean
        assert elapsed < 5.0  # did not wait out the wedged attempt

    def test_pooled_exhaustion_raises(self):
        plan = ShardPlan(trials=400, shards=2, seed=9)
        always_failing = ScriptedFaults(failures={0: 99})
        with pytest.raises(ShardExecutionError):
            run_sharded(_sum_kernel, plan,
                        config=RunConfig(workers=2, retries=1), fault_injector=always_failing)


class TestRunShardedFaultPlumbing:
    def test_serial_injector_heals_identically(self):
        plan = ShardPlan(trials=1000, shards=4, seed=12)
        clean = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        healed = run_sharded(_sum_kernel, plan,
                             config=RunConfig(workers=1, retries=3),
                                              fault_injector=ScriptedFaults(failures={0: 2}))
        assert healed == clean

    def test_unpicklable_injector_falls_back_to_serial(self):
        plan = ShardPlan(trials=1000, shards=4, seed=13)
        clean = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        failures = {1: 1}
        injector = lambda index, attempt: (  # noqa: E731 — deliberately unpicklable
            (_ for _ in ()).throw(InjectedFault("boom"))
            if attempt < failures.get(index, 0) else None)
        healed = run_sharded(_sum_kernel, plan,
                             config=RunConfig(workers=4, retries=1), fault_injector=injector)
        assert healed == clean


class TestPoolScope:
    """One pool per scope: reuse, sizing, recovery, nesting, threads."""

    TASKS = [(value,) for value in range(6)]

    def test_calls_share_the_pool_while_it_fits(self):
        with pool_scope():
            execute_tasks(_pid, self.TASKS, workers=2)
            pair = _children()
            assert len(pair) == 2
            # Two outstanding tasks at workers=4 fit the pool of 2.
            assert set(execute_tasks(_pid, self.TASKS[:2], workers=4)) <= pair
            # Six at workers=3 need a pool of 3 ...
            execute_tasks(_pid, self.TASKS, workers=3)
            trio = _children()
            assert len(trio) == 3 and trio.isdisjoint(pair)
            # ... which a workers=2 call must not exceed.
            assert set(execute_tasks(_pid, self.TASKS, workers=2)) <= _children()
            assert len(_children()) == 2 and _children().isdisjoint(trio)
        assert not _children()

    def test_worker_killed_while_idle_is_replaced(self):
        events: list[str] = []
        with pool_scope():
            victim = execute_tasks(_pid, self.TASKS, workers=2)[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while victim in _children():
                assert time.monotonic() < deadline, "killed worker lingers"
                time.sleep(0.01)
            healed = execute_tasks(
                _identity, self.TASKS, workers=2,
                on_event=lambda name, payload: events.append(name))
        assert healed == execute_tasks(_identity, self.TASKS)
        assert events.count("pool_recycled") == 1
        assert "task_failed" not in events

    def test_pooled_task_may_run_its_own_pool(self):
        # A forked worker inherits its parent's scope state; it must fork
        # a pool of its own rather than submit to the parent's.
        tasks = [(3,), (4,), (5,)]
        policy = RetryPolicy(timeout=60.0)
        unscoped = execute_tasks(_sum_of_squares, tasks, workers=2,
                                 policy=policy)
        with pool_scope():
            scoped = execute_tasks(_sum_of_squares, tasks, workers=2,
                                   policy=policy)
        assert scoped == unscoped == [14, 30, 55]

    def test_threads_hold_separate_pools(self):
        with pool_scope():
            mine = set(execute_tasks(_pid, self.TASKS, workers=2))
            theirs: list[int] = []
            thread = threading.Thread(target=lambda: theirs.extend(
                execute_tasks(_pid, self.TASKS, workers=2)))
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert theirs and mine.isdisjoint(theirs)

        def sweep(workers: int):
            return sweep_family(FamilySpec(ops_per_thread=3), ["TSO", "PSO"],
                                count=2, trials=400, seed=5,
                                config=RunConfig(workers=workers, shards=4))

        serial = sweep(1)
        reports = []
        threads = [threading.Thread(target=lambda: reports.append(sweep(2)))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert reports == [serial, serial]

    @pytest.mark.parametrize("injector", [
        ScriptedFaults(failures={0: 99}),
        _SleepOnFirstAttempt(index=0, seconds=30.0),
    ], ids=["raise", "timeout"])
    def test_scope_exit_leaves_no_workers(self, injector):
        with pool_scope():
            with pool_scope():  # nested: a no-op
                execute_tasks(_identity, self.TASKS, workers=2)
            assert len(_children()) == 2  # the outer scope's pool lives on
        assert not _children()
        started = time.monotonic()
        with pytest.raises(ShardExecutionError):
            with pool_scope():
                execute_tasks(_identity, self.TASKS, workers=2,
                              policy=RetryPolicy(timeout=0.5),
                              fault_injector=injector)
        assert not _children()
        assert time.monotonic() - started < 5.0

    def test_wedged_timed_out_shard_does_not_hold_the_process(self):
        done, elapsed = _run_script("""
            from repro.parallel import RetryPolicy, execute_tasks
            from tests.test_faults import _SleepOnFirstAttempt, _identity
            print(execute_tasks(
                _identity, [(0,), (1,), (2,)], workers=2,
                policy=RetryPolicy(retries=1, timeout=0.5),
                fault_injector=_SleepOnFirstAttempt(index=1, seconds=20.0)))
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0, 1, 2]"
        assert elapsed < 5.0

    def test_shared_memory_after_an_earlier_pool(self):
        # A pool forked before the first shared-memory table lacks the
        # parent's resource tracker; the scope must not hand it to shm.
        done, _ = _run_script("""
            from repro import RunConfig
            from repro.core import TSO, estimate_non_manifestation
            from repro.parallel import parallel_map, pool_scope
            from tests.test_faults import _square

            config = RunConfig(workers=2, shards=4, transport="shm")
            with pool_scope():
                print(parallel_map(_square, range(4), config=config))
                print(estimate_non_manifestation(TSO, 2, 4000, seed=1,
                                                 config=config).estimate)
            print(estimate_non_manifestation(
                TSO, 2, 4000, seed=1,
                config=RunConfig(workers=1, shards=4)).estimate)
        """)
        assert done.returncode == 0, done.stderr
        squares, scoped, serial = done.stdout.splitlines()
        assert squares == "[0, 1, 4, 9]" and scoped == serial
        assert "resource_tracker" not in done.stderr
