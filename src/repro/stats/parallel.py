"""Sharded parallel execution of Monte-Carlo trial budgets.

Every empirical estimate in the library is a sum over independent trials,
which makes the work embarrassingly parallel — *if* the randomness is
partitioned with care.  This module supplies that partitioning plus the
process fan-out, under one discipline:

* **Seed-disciplined sharding** — a trial budget is split into ``shards``
  near-equal shards, and shard ``i`` draws from the ``i``-th child stream
  of the experiment's root :class:`~repro.stats.rng.RandomSource` (one
  ``SeedSequence.spawn`` of the root, indexed by shard).  Each shard is
  therefore a deterministic function of ``(seed, shards)`` alone.
* **Worker-count independence** — workers only decide *where* shards run,
  never *what* they compute, and per-shard results are merged in shard
  order.  A run with fixed ``(seed, shards)`` is bit-identical for any
  number of workers and any scheduling of shards onto them.
* **Zero-overhead serial fallback** — ``workers=1`` short-circuits to a
  plain loop with no executor, no pickling, no queues; a trial function
  that cannot be pickled (a lambda, a closure) silently degrades to the
  same serial loop instead of crashing mid-experiment.
* **Worker-independent defaults** — when parallelism is requested but no
  shard count is given, the plan uses the fixed :data:`DEFAULT_SHARDS`,
  **never** the worker count or the host CPU count: default-sharded
  results are identical across ``workers ∈ {2, 4, None}`` and across
  machines (:func:`resolve_shards`).
* **Fault tolerance and resumability** — shard execution routes through
  :mod:`repro.stats.faults` (bounded retry, per-shard timeouts,
  ``BrokenProcessPool`` recovery) and can store completed shards in a
  checkpoint directory (:class:`repro.stats.checkpoint.ShardCheckpoint`);
  both are sound because each shard is a pure function of
  ``(seed, shards, i)``.
* **Read-only observability** — an optional
  :class:`repro.obs.RunObserver` receives per-shard wall times, retry
  and timeout events, and pool recycles over the existing result
  channel; enabling it cannot perturb the seeding discipline or any
  merged number (see ``docs/OBSERVABILITY.md``).

Both entry points take their knobs (workers, retries, timeout,
checkpoint, cache, transport, observability) as one keyword-only
``config=`` :class:`~repro.runconfig.RunConfig`.  The consuming layers
(:mod:`repro.stats.montecarlo`, :mod:`repro.sim.executor`,
:mod:`repro.sim.measurement`, :mod:`repro.analysis.sweeps`,
:mod:`repro.litmus.explore`) call :func:`run_sharded` and
:func:`parallel_map` inside :func:`repro.obs.observed_run`;
``repro.parallel`` is the user-facing facade.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import Any, TypeVar

from repro.obs import RunObserver, ShardEvent, observed_run

from ..runconfig import RunConfig
from .checkpoint import ShardCheckpoint, kernel_fingerprint, plan_key
from .faults import RetryPolicy, execute_tasks
from .rng import RandomSource
from .transport import Packed, ShardTable, ShardWriter

__all__ = [
    "DEFAULT_SHARDS",
    "ShardPlan",
    "plan_shards",
    "resolve_shards",
    "resolve_workers",
    "run_sharded",
    "parallel_map",
    "is_picklable",
]

#: Shard count used whenever parallelism is requested and ``shards`` is
#: unset.  A fixed constant — never the worker count, never the CPU count —
#: so default-sharded numbers are reproducible across worker counts and
#: machines.  Large enough to load-balance the worker counts in practical
#: use, small enough that per-shard overhead stays negligible.
DEFAULT_SHARDS = 16

T = TypeVar("T")
U = TypeVar("U")


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None`` means one per CPU."""
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return workers


def resolve_shards(workers: int | None, shards: int | None) -> int:
    """Default a ``shards`` argument without consulting the worker count.

    The shard count is the *statistical identity* of a run, so it must
    never be derived from anything machine- or schedule-dependent:
    ``shards=None`` maps to :data:`DEFAULT_SHARDS` whenever parallelism is
    requested (``workers=None`` or ``workers > 1`` — even on a single-CPU
    host) and to a single shard for the serial ``workers=1`` case.  Note
    ``workers`` is inspected *raw*: ``workers=None`` means "use every
    CPU", which must select the same shard count on every machine.
    """
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        return shards
    if workers == 1:
        return 1
    return DEFAULT_SHARDS


def plan_shards(trials: int, shards: int) -> tuple[int, ...]:
    """Split ``trials`` into ``shards`` near-equal positive-or-zero parts.

    The split is balanced (sizes differ by at most one, larger shards
    first) and exact: the parts always sum to ``trials``.  More shards
    than trials leaves trailing empty shards rather than failing, so a
    shard count chosen for one budget remains valid for smaller ones.

    >>> plan_shards(10, 4)
    (3, 3, 2, 2)
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    base, extra = divmod(trials, shards)
    return tuple(base + (1 if index < extra else 0) for index in range(shards))


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of one trial budget into seeded shards.

    The plan is the *statistical identity* of a sharded run: two runs with
    equal ``(trials, shards, seed)`` draw identical randomness shard by
    shard, no matter how many worker processes execute them.

    ``shards=None`` is the one-shard form of every estimator's default
    serial run: its one shard draws from ``RandomSource(seed)``
    itself, not from a spawned child, as before parallel execution
    existed.  Its run key hashes the ``None``, so it never shares a
    stored shard with ``shards=1``.
    """

    trials: int
    shards: int | None
    seed: int | None

    def __post_init__(self) -> None:
        self.shard_trials()  # validate eagerly

    def shard_trials(self) -> tuple[int, ...]:
        """Per-shard trial counts (balanced, summing to ``trials``)."""
        return plan_shards(self.trials, 1 if self.shards is None else self.shards)

    def shard_sources(self) -> list[RandomSource]:
        """One independent child stream per shard, in shard order.

        All shards spawn from the root in a single ``spawn`` call, so the
        stream of shard ``i`` depends only on ``(seed, shards, i)`` —
        never on which shards ran before it or on which process runs it.
        The one-shard form (``shards=None``) draws from the root itself.
        """
        if self.shards is None:
            return [RandomSource(self.seed)]
        return RandomSource(self.seed).spawn(self.shards)


def is_picklable(value: Any) -> bool:
    """Whether ``value`` survives :mod:`pickle` (process-pool transport)."""
    try:
        pickle.dumps(value)
    except Exception:  # pickle raises a zoo: PicklingError, TypeError, ...
        return False
    return True


#: Fingerprint-keyed memo of :func:`is_picklable` verdicts.  A sweep calls
#: ``run_sharded`` once per grid point with a freshly-bound partial of the
#: same kernel; the fingerprint, always derived from the kernel itself,
#: captures exactly the bound computation, so equal fingerprints pickle
#: identically and the ``pickle.dumps`` probe runs once per distinct
#: kernel instead of once per call.
_PICKLABLE_MEMO: dict[str, bool] = {}


def _kernel_picklable(kernel: Any, fingerprint: str) -> bool:
    """Memoized picklability probe."""
    verdict = _PICKLABLE_MEMO.get(fingerprint)
    if verdict is None:
        verdict = _PICKLABLE_MEMO[fingerprint] = is_picklable(kernel)
    return verdict


def run_sharded(
    kernel: Callable[[RandomSource, int], T],
    plan: ShardPlan,
    *,
    checkpoint_label: str = "",
    fault_injector: Callable[[int, int], None] | None = None,
    observer: RunObserver | None = None,
    layout: Any = None,
    config: RunConfig | None = None,
) -> list[T]:
    """Run ``kernel(shard_source, shard_trials)`` once per non-empty shard.

    Returns the per-shard results **in shard order** regardless of
    completion order, so any merge of the returned list is deterministic.
    Shards the plan left empty (``shards > trials``) are skipped outright
    — no kernel call, no pool transport — so the returned list holds one
    result per *non-empty* shard.

    ``config`` (a :class:`repro.runconfig.RunConfig`, default: all
    defaults) carries every execution knob below.  The plan — not the
    config — is the run's statistical identity, so ``config.shards`` is
    ignored here (it matters to the callers that *build* the plan).

    A run has one key, ``plan_key(trials, shards, seed,
    checkpoint_label, kernel_fingerprint(kernel))``
    (:func:`~repro.stats.checkpoint.plan_key`), derived here and nowhere
    else: the checkpoint and cache entries and the manifest all use it,
    so two different kernels or labels can never reuse each other's
    stored shards.

    ``workers=1`` (the default), at most one outstanding shard, and
    kernels that cannot be pickled all take the serial path — same
    results, no pool.  ``workers=None`` uses one worker per CPU.

    Fault tolerance (:mod:`repro.stats.faults`): ``retries`` extra
    attempts per shard with exponential backoff, ``timeout`` seconds per
    pooled shard attempt, and automatic ``BrokenProcessPool`` recovery
    re-executing only the lost shards.  ``checkpoint`` (a directory)
    opens a :class:`repro.cache.ShardStore` that never evicts and stores
    each completed shard under the run key; a resumed run loads the
    finished shards and executes only the remainder — bit-identical to
    an uninterrupted run.  The ``checkpoint_label`` argument salts the
    run key (callers encode their experiment parameters) and doubles as
    the manifest run label.
    ``fault_injector`` is the deterministic kill hook used by tests
    (see :class:`~repro.stats.faults.ScriptedFaults`).

    ``cache`` (``"auto"``, a directory, or a
    :class:`repro.cache.ShardStore`; see ``docs/CACHING.md``) consults
    the content-addressed shard store before executing: shards whose
    entry key — the run key plus the shard index and trial count —
    is already stored are fetched instead of recomputed, and newly
    executed shards are stored for future runs.  Because the entry key
    encodes the full computational identity, cached merges are
    bit-identical to uncached ones.  With both set, the checkpoint is
    probed first, a cache hit is copied into the checkpoint, and each
    executed shard is written to both.

    ``observer`` (a :class:`repro.obs.RunObserver`) receives the run's
    telemetry: a ``run_started`` description of the plan, one
    ``shard_resumed``/``shard_finished`` per shard (with in-worker wall
    time and pid), every failed attempt, and every pool recycle.
    Observation rides the existing result channel and cannot change any
    number.  With ``observer=None`` (the default) and observability
    knobs in the config, the call runs under :func:`repro.obs.observed_run`
    as a run of its own; with neither, the hot path is untouched.

    ``transport``/``layout`` select the shard result channel (see
    :mod:`repro.stats.transport`).  With a ``layout`` describing the
    result's fixed row shape, ``transport="shm"`` (or ``"auto"``, the
    default, whenever a pool is actually in play) has workers write
    packed results into a preallocated shared-memory table — one row per
    shard, zero pickling of result objects — and the parent unpack rows
    in shard order; results that overflow their row fall back to pickle
    per shard automatically.  ``transport="pickle"`` forces the
    historical channel.  The transport is a scheduling concern like
    ``workers``: it is absent from every checkpoint/cache key and the
    merged numbers are bit-identical across transports.
    """
    cfg = (config or RunConfig()).resolve()
    execute = partial(_execute_shards, kernel, plan, cfg, checkpoint_label,
                      fault_injector, layout)
    if observer is None:
        return observed_run(cfg, checkpoint_label, execute)
    return execute(observer)


def _execute_shards(
    kernel: Callable[[RandomSource, int], T],
    plan: ShardPlan,
    cfg: RunConfig,
    checkpoint_label: str,
    fault_injector: Callable[[int, int], None] | None,
    layout: Any,
    observer: RunObserver | None,
) -> list[T]:
    """The body of :func:`run_sharded` for one resolved config."""
    retries, timeout, transport = cfg.retries, cfg.timeout, cfg.transport
    checkpoint, cache = cfg.checkpoint, cfg.cache
    workers = resolve_workers(cfg.workers)
    if transport == "shm" and layout is None:
        raise ValueError("transport='shm' requires a result layout")
    counts = plan.shard_trials()
    sources = plan.shard_sources()
    active = [index for index, count in enumerate(counts) if count > 0]

    checkpoint_store = store = None
    stores = []
    if checkpoint is not None or (cache is not None and cache is not False):
        from repro.cache import ShardStore, resolve_cache
        if checkpoint is not None:
            checkpoint_store = ShardStore(checkpoint, max_bytes=None,
                                          memo_entries=0)
            stores.append(checkpoint_store)
        store = resolve_cache(cache)
        if store is not None:
            stores.append(store)

    # The run key: the one identity of every stored shard and of the
    # manifest.  The fingerprint also keys the picklability memo, so
    # both are derived whenever a pool is plausible too (workers and
    # more than one shard requested); the plain serial path skips them.
    fingerprint = run_key = None
    if stores or observer is not None or (workers > 1 and len(active) > 1):
        fingerprint = kernel_fingerprint(kernel)
        run_key = plan_key(plan.trials, plan.shards, plan.seed,
                           checkpoint_label, fingerprint)

    completed: dict[int, T] = {}
    cached_locals: set[int] = set()
    on_result = None
    evicted = 0
    if stores:
        view = ShardCheckpoint(run_key, {shard: counts[shard] for shard in active},
                               stores)
        found = view.load()
        for local, shard in enumerate(active):
            if shard in found:
                completed[local], holder = found[shard]
                if holder is store:
                    cached_locals.add(local)

        def on_result(local: int, result: T) -> None:
            nonlocal evicted
            evicted += view.record(active[local], result)

    outstanding = len(active) - len(completed)
    serial = (
        workers == 1
        or outstanding <= 1
        or not _kernel_picklable(kernel, fingerprint)
        or (fault_injector is not None and not is_picklable(fault_injector))
    )

    # Shared-memory transport: one preallocated int64 row per active
    # shard; workers pack results in place and return a tiny marker.
    # "auto" engages it only when a layout exists and a pool will
    # actually carry results; forcing "shm" exercises the same packing
    # on the serial path (the parent attaches to its own table).
    use_shm = transport == "shm" or (transport == "auto"
                                     and layout is not None and not serial)
    table: ShardTable | None = None
    runner: Callable[..., Any] = kernel
    tasks: list[tuple] = [(sources[index], counts[index]) for index in active]
    if use_shm:
        width = layout.row_width(max(counts[index] for index in active))
        table = ShardTable(len(active), width)
        runner = ShardWriter(kernel, layout, table.name, width)
        tasks = [(sources[index], counts[index], local)
                 for local, index in enumerate(active)]
        if on_result is not None:
            record = on_result

            def on_result(local: int, result: Any, _inner=record) -> None:
                # Stores must see real result objects, not transport
                # markers; rows are fully written before the marker
                # exists, so unpacking here is race-free.
                if isinstance(result, Packed):
                    result = layout.unpack(table.row(result.row))
                _inner(local, result)

    on_event = None
    if observer is not None:
        observer.run_started(
            trials=plan.trials,
            shards=len(counts),
            seed=plan.seed,
            workers=workers,
            active_shards=len(active),
            label=checkpoint_label or None,
            key=run_key,
            retries=retries,
            timeout=timeout,
            checkpoint=None if checkpoint_store is None
            else str(checkpoint_store.root),
            mode="serial-legacy" if plan.shards is None else "sharded",
        )
        for local in completed:
            if local in cached_locals:
                observer.shard_cached(active[local], counts[active[local]])
            else:
                observer.shard_resumed(active[local], counts[active[local]])

        def on_event(name: str, payload: dict,
                     _observer: RunObserver = observer) -> None:
            # execute_tasks speaks local task indices; translate to the
            # global shard numbering of the plan.
            if name == "task_finished":
                _observer.shard_finished(ShardEvent(
                    shard=active[payload["index"]],
                    trials=counts[active[payload["index"]]],
                    seconds=payload["seconds"],
                    attempts=payload["attempts"],
                    worker=payload["worker"],
                ))
            elif name == "task_failed":
                _observer.task_failed(active[payload["index"]],
                                      payload["attempt"], payload["kind"],
                                      payload["error"])
            elif name == "pool_recycled":
                _observer.pool_recycled()

    try:
        results = execute_tasks(
            runner,
            tasks,
            workers=workers,
            policy=RetryPolicy(retries=retries, timeout=timeout),
            serial=serial,
            fault_injector=fault_injector,
            on_result=on_result,
            completed=completed,
            on_event=on_event,
        )
        if use_shm:
            results = [layout.unpack(table.row(result.row))
                       if isinstance(result, Packed) else result
                       for result in results]
    finally:
        if table is not None:
            table.close()
    if observer is not None and store is not None:
        executed = len(active) - len(completed)
        observer.cache_summary(hits=len(cached_locals), misses=executed,
                               stored=executed, evictions=evicted)
    return results


def parallel_map(
    function: Callable[[U], T],
    items: Iterable[U] | Sequence[U],
    *,
    observer: RunObserver | None = None,
    config: RunConfig | None = None,
) -> list[T]:
    """Map ``function`` over ``items``, preserving input order.

    The grid-point analogue of :func:`run_sharded`: parameter sweeps fan
    their (independent, deterministic) point evaluations onto the same
    process pool, with the same per-task retry/timeout machinery
    (``config.retries`` extra attempts, ``config.timeout`` seconds per
    pooled attempt, ``BrokenProcessPool`` recovery).  Serial fallback
    rules match ``run_sharded`` — one worker, one item, or an
    unpicklable function/item runs inline.  ``observer`` receives
    per-item telemetry exactly as :func:`run_sharded` does per shard
    (each item counts as one "trial" of the observed run); with no
    ``observer`` and observability knobs in the config, the call runs
    under :func:`repro.obs.observed_run`, as in :func:`run_sharded`.
    """
    cfg = (config or RunConfig()).resolve()
    execute = partial(_map_items, function, list(items), cfg)
    if observer is None:
        return observed_run(cfg, "", execute)
    return execute(observer)


def _map_items(
    function: Callable[[U], T],
    items: list[U],
    cfg: RunConfig,
    observer: RunObserver | None,
) -> list[T]:
    """The body of :func:`parallel_map` for one resolved config."""
    retries, timeout = cfg.retries, cfg.timeout
    workers = resolve_workers(cfg.workers)
    serial = (
        workers == 1
        or len(items) <= 1
        or not is_picklable(function)
        or not all(is_picklable(item) for item in items)
    )

    on_event = None
    if observer is not None and items:
        observer.run_started(trials=len(items), shards=len(items), seed=None,
                             workers=workers, retries=retries, timeout=timeout)

        def on_event(name: str, payload: dict,
                     _observer: RunObserver = observer) -> None:
            if name == "task_finished":
                _observer.shard_finished(ShardEvent(
                    shard=payload["index"],
                    trials=1,
                    seconds=payload["seconds"],
                    attempts=payload["attempts"],
                    worker=payload["worker"],
                ))
            elif name == "task_failed":
                _observer.task_failed(payload["index"], payload["attempt"],
                                      payload["kind"], payload["error"])
            elif name == "pool_recycled":
                _observer.pool_recycled()

    return execute_tasks(
        function,
        [(item,) for item in items],
        workers=workers,
        policy=RetryPolicy(retries=retries, timeout=timeout),
        serial=serial,
        on_event=on_event,
    )
