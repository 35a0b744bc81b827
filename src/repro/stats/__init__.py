"""Statistics substrate: seeded RNG streams, intervals, Monte-Carlo harness.

This subpackage is the only place in the library that touches
:mod:`numpy.random`; every stochastic model takes a
:class:`~repro.stats.rng.RandomSource` so experiments are reproducible and
splittable.
"""

from .bootstrap import BootstrapInterval, bootstrap_mean_interval
from .checkpoint import kernel_fingerprint, plan_key
from .convergence import BatchSummary, required_trials, standard_error, summarise_batches
from .faults import (
    InjectedFault,
    RetryPolicy,
    ScriptedFaults,
    ShardExecutionError,
)
from .intervals import (
    Proportion,
    clopper_pearson_interval,
    normal_quantile,
    wilson_interval,
)
from .montecarlo import (
    BernoulliResult,
    CategoricalResult,
    merge_bernoulli,
    merge_categorical,
    run_bernoulli_trials,
    run_categorical_trials,
    run_event_trials,
)
from .parallel import (
    DEFAULT_SHARDS,
    ShardPlan,
    parallel_map,
    plan_shards,
    resolve_shards,
    resolve_workers,
    run_sharded,
)
from .rng import (
    DEFAULT_SEED,
    PhiloxSource,
    RandomSource,
    iter_batches,
    spawn_sources,
)
from .sequential import estimate_to_precision

__all__ = [
    "BatchSummary",
    "BootstrapInterval",
    "bootstrap_mean_interval",
    "BernoulliResult",
    "CategoricalResult",
    "DEFAULT_SEED",
    "DEFAULT_SHARDS",
    "InjectedFault",
    "PhiloxSource",
    "Proportion",
    "RandomSource",
    "RetryPolicy",
    "ScriptedFaults",
    "ShardExecutionError",
    "clopper_pearson_interval",
    "estimate_to_precision",
    "iter_batches",
    "kernel_fingerprint",
    "merge_bernoulli",
    "merge_categorical",
    "normal_quantile",
    "parallel_map",
    "plan_key",
    "plan_shards",
    "required_trials",
    "resolve_shards",
    "resolve_workers",
    "run_bernoulli_trials",
    "run_categorical_trials",
    "run_event_trials",
    "run_sharded",
    "ShardPlan",
    "spawn_sources",
    "standard_error",
    "summarise_batches",
    "wilson_interval",
]
