"""``repro.parallel`` — facade over the sharded parallel trial engine.

One import surface for everything a caller needs to scale a trial budget
across processes:

>>> from repro.parallel import ShardPlan, run_sharded
>>> plan = ShardPlan(trials=10_000, shards=8, seed=42)
>>> # results = run_sharded(kernel, plan,
>>> #                         config=RunConfig(workers=4, retries=2))

The engine lives in :mod:`repro.stats.parallel`; the fault-tolerance
layer (bounded retry, per-shard timeouts, ``BrokenProcessPool``
recovery) in :mod:`repro.stats.faults`; the run-manifest/checkpoint
journal in :mod:`repro.stats.checkpoint`; the mergers in
:mod:`repro.stats.montecarlo`.  Every high-level estimator
(:func:`repro.stats.run_bernoulli_trials`,
:func:`repro.estimate_non_manifestation`,
:func:`repro.sim.run_canonical_bug`, the :mod:`repro.analysis.sweeps`
grids, and the ``--workers`` CLI flag) routes through these primitives,
under one seeding discipline: one child stream per shard, spawned in a
single batch from the experiment seed, merged in shard order — so a run
with fixed ``(seed, shards)`` is bit-identical for any worker count,
and a retried or checkpoint-resumed shard is bit-identical to the
attempt it replaces.  When parallelism is requested and ``shards`` is
unset, the fixed :data:`~repro.stats.parallel.DEFAULT_SHARDS` applies —
never the worker or CPU count.  The :mod:`repro.stats.transport`
layouts route shard results home through shared memory instead of
pickle, bit-identically.

All of the execution knobs above travel together as one validated
:class:`repro.runconfig.RunConfig` (re-exported here): build it once and
pass it as ``config=`` — the only way to pass an engine knob — to any
estimator or to :func:`run_sharded` / :func:`parallel_map` (see
``docs/API.md``, "RunConfig").

Observability: the config's ``manifest`` / ``trace`` / ``progress``
knobs — or a :class:`repro.obs.RunObserver` (re-exported here) passed
as ``observer=`` to :func:`run_sharded` / :func:`parallel_map` —
collect per-shard wall times, the retry/timeout ledger, a span trace,
and a validated run manifest, without touching any number
(``docs/OBSERVABILITY.md``).
"""

from .obs import RunObserver
from .runconfig import RunConfig
from .stats.checkpoint import ShardCheckpoint, kernel_fingerprint, plan_key
from .stats.faults import (
    InjectedFault,
    RetryPolicy,
    ScriptedFaults,
    ShardExecutionError,
    TaskTelemetry,
    execute_tasks,
    pool_scope,
)
from .stats.montecarlo import merge_bernoulli, merge_categorical
from .stats.parallel import (
    DEFAULT_SHARDS,
    ShardPlan,
    is_picklable,
    parallel_map,
    plan_shards,
    resolve_shards,
    resolve_workers,
    run_sharded,
)
from .stats.transport import (
    TRANSPORTS,
    BernoulliLayout,
    CategoricalLayout,
    ShardTable,
    WindowLayout,
    pickled_payload_bytes,
    resolve_transport,
)

__all__ = [
    "BernoulliLayout",
    "CategoricalLayout",
    "DEFAULT_SHARDS",
    "InjectedFault",
    "RetryPolicy",
    "RunConfig",
    "RunObserver",
    "ScriptedFaults",
    "ShardCheckpoint",
    "ShardExecutionError",
    "ShardPlan",
    "ShardTable",
    "TRANSPORTS",
    "TaskTelemetry",
    "WindowLayout",
    "execute_tasks",
    "is_picklable",
    "kernel_fingerprint",
    "merge_bernoulli",
    "merge_categorical",
    "parallel_map",
    "pickled_payload_bytes",
    "plan_key",
    "plan_shards",
    "pool_scope",
    "resolve_shards",
    "resolve_transport",
    "resolve_workers",
    "run_sharded",
]
