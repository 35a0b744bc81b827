"""The unified RunConfig execution context (``repro.runconfig``).

Four layers of coverage:

1. The record itself — validation at the single ``resolve()`` point,
   CLI binding metadata.
2. Knob propagation — a ``RunConfig`` with a distinctive value in every
   field, driven through each public estimator with ``run_sharded`` /
   ``parallel_map`` monkeypatched to record the ``config`` that actually
   arrives at the engine.  This is the test that would have caught the
   historical "flag parsed but silently dropped" CLI bugs.
3. One way to pass a knob — every public function that takes ``config``
   takes it keyword-only and takes no knob as a parameter of its own.
4. Golden byte-identity — fixed-seed merged numbers and run keys of the
   joined model over pickle/shm and of both canonical-bug machines,
   pinned to the values the pre-RunConfig code produced.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import fields

import numpy as np
import pytest

import repro.analysis.sweeps as sweeps_module
import repro.sim.executor as executor_module
import repro.stats.montecarlo as montecarlo_module
from repro import RunConfig
from repro.analysis import (
    beta_sweep,
    critical_section_sweep,
    monte_carlo_check,
    settle_sweep,
    store_probability_sweep,
    thread_sweep,
)
from repro.core.manifestation import estimate_non_manifestation
from repro.core.heterogeneous import estimate_heterogeneous_non_manifestation
from repro.core.memory_models import SC, TSO
from repro.core.multibug import estimate_multi_bug_survival
from repro.core.shift import ShiftProcess, estimate_disjointness
from repro.obs import load_manifest
from repro.sim.executor import run_canonical_bug
from repro.sim.measurement import _WindowShard, measure_critical_windows
from repro.stats.montecarlo import (
    BernoulliResult,
    CategoricalResult,
    run_bernoulli_trials,
    run_categorical_trials,
    run_event_trials,
)


# ----------------------------------------------------------------------
# The record: validation, metadata
# ----------------------------------------------------------------------


class TestResolve:
    def test_default_config_resolves_to_itself(self):
        config = RunConfig()
        assert config.resolve() == config

    @pytest.mark.parametrize("field, value", [
        ("workers", 0), ("workers", -2), ("shards", 0), ("retries", -1),
        ("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")),
        ("timeout", float("inf")),
        ("transport", "carrier-pigeon"),
    ])
    def test_bad_knobs_raise(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value}).resolve()

    def test_checkpoint_must_be_a_path(self, tmp_path):
        # The engine keys the journal itself; a pre-keyed journal object
        # would key the cache and the manifest too (removed in 4.0).
        from repro.stats.checkpoint import ShardCheckpoint

        journal = ShardCheckpoint(tmp_path / "run.jsonl", "k" * 16)
        with pytest.raises(TypeError, match="journal path"):
            RunConfig(checkpoint=journal).resolve()
        for path in (str(tmp_path / "run.jsonl"), tmp_path / "run.jsonl"):
            assert RunConfig(checkpoint=path).resolve().checkpoint == path

    def test_the_fused_backend_removed_in_5_0_is_unknown(self):
        # 6.0 removed the backend knob itself (see below).
        with pytest.raises(TypeError, match="backend"):
            RunConfig(backend="fused")

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_backend_removed_in_6_0_is_not_a_field(self, backend):
        # Each estimator runs one kernel; run_canonical_bug takes its
        # machine as an argument of its own.
        with pytest.raises(TypeError, match="backend"):
            RunConfig(backend=backend)
        assert "backend" not in RunConfig.cli_bindings()
        assert list(inspect.signature(RunConfig.resolve).parameters) == \
            ["self"]


class TestMetadata:
    def test_every_field_has_a_cli_binding_or_is_api_only(self):
        bindings = RunConfig.cli_bindings()
        assert set(bindings) == {
            "workers", "shards", "retries", "timeout", "checkpoint",
            "cache", "manifest", "trace", "progress", "transport",
        }
        assert bindings["timeout"] == "--shard-timeout"
        assert all(flag.startswith("--") for flag in bindings.values())

    def test_resolved_shards_uses_the_fixed_default_under_parallelism(self):
        from repro.stats.parallel import DEFAULT_SHARDS
        assert RunConfig().resolved_shards() == 1
        assert RunConfig(workers=4).resolved_shards() == DEFAULT_SHARDS
        assert RunConfig(workers=None).resolved_shards() == DEFAULT_SHARDS
        assert RunConfig(workers=4, shards=5).resolved_shards() == 5

    def test_observer_derivation(self, tmp_path):
        assert RunConfig().observer() is None
        observer = RunConfig(trace=tmp_path / "t.jsonl").observer("lbl")
        assert observer is not None
        observer.finish()

    def test_from_args_reads_cli_attribute_names(self):
        class Args:
            workers = 3
            shard_timeout = 12.5
            backend = "vectorized"  # repro machine's own flag, not a knob
            transport = "shm"
        config = RunConfig.from_args(Args())
        assert config.workers == 3
        assert config.timeout == 12.5
        assert not hasattr(config, "backend")
        assert config.transport == "shm"
        assert config.shards is None  # missing attrs keep field defaults


# ----------------------------------------------------------------------
# Knob propagation: every field must reach the engine
# ----------------------------------------------------------------------

#: One distinctive value per knob.  trace (rather than manifest/progress)
#: carries the observability leg so the assertion is a non-None observer
#: without stderr noise.
def _probe_config(tmp_path, **overrides):
    base = dict(
        workers=2, shards=3, retries=1, timeout=30.0,
        checkpoint=str(tmp_path / "probe.ckpt"),
        cache=str(tmp_path / "cache"), trace=str(tmp_path / "trace.jsonl"),
        transport="pickle",
    )
    base.update(overrides)
    return RunConfig(**base)


class _EngineRecorder:
    """Stands in for ``run_sharded``; records the call, returns shards."""

    def __init__(self, make_result):
        self.make_result = make_result
        self.calls = []

    def __call__(self, kernel, plan, *, config, observer=None, **kwargs):
        self.calls.append({"kernel": kernel, "plan": plan, "config": config,
                           "observer": observer, **kwargs})
        return [self.make_result(plan.trials)]

    @property
    def only_call(self):
        assert len(self.calls) == 1
        return self.calls[0]


def _assert_engine_saw_probe(call, config):
    plan, seen = call["plan"], call["config"]
    assert plan.shards == config.shards
    assert seen.workers == config.workers
    assert seen.retries == config.retries
    assert seen.timeout == config.timeout
    assert seen.checkpoint == config.checkpoint
    assert seen.cache == config.cache
    assert seen.transport == config.transport
    assert call["observer"] is not None  # the trace knob, derived


def _bernoulli(trials):
    return BernoulliResult(1, trials, 0.99, None)


def _categorical(trials):
    return CategoricalResult({2: trials}, trials, 0.99, None)


def _window(trials):
    return _WindowShard(np.array([1, 2], dtype=np.int64), 0, 0, 0)


ESTIMATORS = [
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: run_bernoulli_trials(lambda s: True, 100,
                                                  config=cfg),
                 id="run_bernoulli_trials"),
    pytest.param(montecarlo_module, _categorical,
                 lambda cfg: run_categorical_trials(lambda s: 2, 100,
                                                    config=cfg),
                 id="run_categorical_trials"),
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: run_event_trials(lambda s, b: b, 100,
                                              config=cfg),
                 id="run_event_trials"),
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: estimate_non_manifestation(TSO, 2, 100,
                                                        config=cfg),
                 id="estimate_non_manifestation"),
    pytest.param(montecarlo_module, _categorical,
                 lambda cfg: run_canonical_bug("TSO", 2, 100, config=cfg),
                 id="run_canonical_bug"),
    pytest.param(montecarlo_module, _window,
                 lambda cfg: measure_critical_windows("TSO", 2, 100,
                                                      config=cfg),
                 id="measure_critical_windows"),
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: monte_carlo_check([TSO], 2, 100, config=cfg),
                 id="monte_carlo_check"),
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: estimate_disjointness([2, 2], 100, config=cfg),
                 id="estimate_disjointness"),
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: estimate_heterogeneous_non_manifestation(
                     [SC, TSO], 100, config=cfg),
                 id="estimate_heterogeneous_non_manifestation"),
    pytest.param(montecarlo_module, _bernoulli,
                 lambda cfg: estimate_multi_bug_survival(TSO, 2, 100,
                                                         config=cfg),
                 id="estimate_multi_bug_survival"),
]


class TestKnobPropagation:
    @pytest.mark.parametrize("module, make_result, drive", ESTIMATORS)
    def test_every_knob_reaches_run_sharded(self, tmp_path, monkeypatch,
                                            module, make_result, drive):
        recorder = _EngineRecorder(make_result)
        monkeypatch.setattr(module, "run_sharded", recorder)
        config = _probe_config(tmp_path)
        drive(config)
        _assert_engine_saw_probe(recorder.only_call, config)

    def test_backend_selects_the_machine_kernel(self, tmp_path, monkeypatch):
        for backend, func in [
            ("scalar", executor_module._canonical_bug_shard),
            ("vectorized", executor_module._canonical_bug_vectorized_shard),
        ]:
            recorder = _EngineRecorder(_categorical)
            monkeypatch.setattr(montecarlo_module, "run_sharded", recorder)
            run_canonical_bug("TSO", 2, 100, backend=backend,
                              config=_probe_config(tmp_path))
            assert recorder.only_call["kernel"].func is func

    SWEEPS = [
        pytest.param(lambda cfg: thread_sweep([2, 3], config=cfg),
                     id="thread_sweep"),
        pytest.param(lambda cfg: settle_sweep([0.25, 0.5], config=cfg),
                     id="settle_sweep"),
        pytest.param(lambda cfg: store_probability_sweep([0.25, 0.5],
                                                         config=cfg),
                     id="store_probability_sweep"),
        pytest.param(lambda cfg: critical_section_sweep([2, 3], config=cfg),
                     id="critical_section_sweep"),
        pytest.param(lambda cfg: beta_sweep([0.25, 0.5], config=cfg),
                     id="beta_sweep"),
    ]

    @pytest.mark.parametrize("drive", SWEEPS)
    def test_sweep_knobs_reach_parallel_map(self, tmp_path, monkeypatch,
                                            drive):
        calls = []

        def fake_map(function, items, *, observer=None, config=None):
            calls.append({"workers": config.workers,
                          "retries": config.retries,
                          "timeout": config.timeout, "observer": observer})
            return [function(item) for item in items]

        monkeypatch.setattr(sweeps_module, "parallel_map", fake_map)
        config = _probe_config(tmp_path)
        rows = drive(config)
        assert len(rows) == 2
        assert calls == [{"workers": 2, "retries": 1, "timeout": 30.0,
                          "observer": calls[0]["observer"]}]
        assert calls[0]["observer"] is not None


class TestRunShardedConfig:
    """``run_sharded``/``parallel_map`` accept the config directly."""

    def test_run_sharded_honours_config(self, tmp_path):
        from repro.stats.parallel import ShardPlan, run_sharded

        plan = ShardPlan(40, 4, seed=11)
        direct = run_sharded(_shard_sum, plan)
        via_config = run_sharded(
            _shard_sum, plan,
            config=RunConfig(retries=1, transport="pickle",
                             trace=tmp_path / "rs.jsonl"))
        assert via_config == direct
        assert (tmp_path / "rs.jsonl").exists()  # config-derived observer

    def test_run_sharded_config_validation_applies(self):
        from repro.stats.parallel import ShardPlan, run_sharded

        with pytest.raises(ValueError):
            run_sharded(_shard_sum, ShardPlan(10, 2, seed=0),
                        config=RunConfig(transport="bogus"))

    def test_parallel_map_honours_config(self, tmp_path):
        from repro.stats.parallel import parallel_map

        result = parallel_map(
            _double, [1, 2, 3],
            config=RunConfig(retries=1, trace=tmp_path / "pm.jsonl"))
        assert result == [2, 4, 6]
        assert (tmp_path / "pm.jsonl").exists()


# ----------------------------------------------------------------------
# One way to pass a knob
# ----------------------------------------------------------------------

#: The public surfaces a caller passes engine knobs through.
PUBLIC_MODULES = ("repro", "repro.parallel", "repro.stats", "repro.core",
                  "repro.sim", "repro.analysis", "repro.kernels",
                  "repro.litmus")


def _public_config_functions():
    """``(qualified name, function)`` for every export taking ``config``."""
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            value = getattr(module, name)
            if (inspect.isfunction(value)
                    and "config" in inspect.signature(value).parameters):
                yield f"{module_name}.{name}", value


class TestOneWayToPassAKnob:
    def test_config_is_keyword_only(self):
        functions = dict(_public_config_functions())
        for expected in ("run_sharded", "parallel_map", "run_event_trials",
                         "estimate_non_manifestation", "run_canonical_bug",
                         "measure_critical_windows", "thread_sweep",
                         "monte_carlo_check", "explore_exhaustive",
                         "estimate_disjointness",
                         "estimate_heterogeneous_non_manifestation",
                         "estimate_multi_bug_survival"):
            assert any(name.endswith(f".{expected}") for name in functions), \
                expected
        for name, function in functions.items():
            kind = inspect.signature(function).parameters["config"].kind
            assert kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_no_knob_is_a_parameter_of_its_own(self):
        knobs = {spec.name for spec in fields(RunConfig)}
        offenders = {}
        for name, function in _public_config_functions():
            shared = knobs & set(inspect.signature(function).parameters)
            if shared:
                offenders[name] = sorted(shared)
        assert not offenders

    @pytest.mark.parametrize("removed", ["UNSET", "resolve_run_config",
                                         "estimate_event",
                                         "estimate_shift_disjointness",
                                         "RNG_PLANS", "resolve_rng_plan",
                                         "philox_stream",
                                         "assert_frequencies_equivalent",
                                         "non_manifestation_fused_batch",
                                         "_disjointness_fused_trial",
                                         "BACKENDS", "resolve_backend",
                                         "non_manifestation_scalar_batch",
                                         "_disjointness_scalar_trial",
                                         "_window_shard_vectorized",
                                         "trailing_run_batch"])
    def test_removed_names_are_exported_nowhere(self, removed):
        for module_name in (*PUBLIC_MODULES, "repro.runconfig",
                            "repro.stats.montecarlo", "repro.stats.parallel",
                            "repro.stats.rng", "repro.litmus.explore",
                            "repro.kernels.joined", "repro.kernels.settling",
                            "repro.core.manifestation",
                            "repro.sim.measurement"):
            module = importlib.import_module(module_name)
            assert removed not in getattr(module, "__all__", ()), module_name
            assert not hasattr(module, removed), module_name

    def test_removed_methods_are_gone(self):
        from repro.stats.checkpoint import ShardCheckpoint

        assert not hasattr(RunConfig, "updated")
        assert not hasattr(RunConfig, "engine_options")
        assert not hasattr(RunConfig, "plan_key_inputs")
        assert not hasattr(ShardCheckpoint, "for_plan")
        assert not hasattr(ShiftProcess, "count_disjoint")


def _shard_sum(source, shard_trials):
    return shard_trials


def _double(value):
    return 2 * value


# ----------------------------------------------------------------------
# Golden byte-identity across the full engine matrix
# ----------------------------------------------------------------------

#: Fixed-seed merged numbers and run keys produced by the pre-RunConfig
#: code (estimate_non_manifestation(TSO, 2, 4000, seed=7, shards=4) /
#: run_canonical_bug("TSO", 2, 400, seed=7, shards=4)).  The refactor
#: must keep every one byte-identical.  The first key names the kernel:
#: the joined model runs its one vectorized kernel (the scalar rows went
#: with the 6.0 backend knob), the machine either of its two.  The
#: middle key names the shard streams: the spawn plan, the only
#: derivation since 4.0 (the 3.x philox rows went with that plan).
JOINED_GOLDEN = {
    ("vectorized", "spawn", "pickle"): (541, "ced60950df46032b"),
    ("vectorized", "spawn", "shm"): (541, "ced60950df46032b"),
}

MACHINE_GOLDEN = {
    ("scalar", "spawn"): (358, "1dcbef340ac3c146"),
    ("vectorized", "spawn"): (352, "590646dfb9daa17c"),
}


class TestGoldenByteIdentity:
    @pytest.mark.parametrize("kernel, stream, transport",
                             sorted(JOINED_GOLDEN))
    def test_joined_matrix(self, tmp_path, kernel, stream, transport):
        successes, key = JOINED_GOLDEN[(kernel, stream, transport)]
        manifest = tmp_path / "run.json"
        config = RunConfig(shards=4, transport=transport, manifest=manifest)
        result = estimate_non_manifestation(TSO, 2, 4000, seed=7,
                                            config=config)
        assert result.successes == successes
        assert result.trials == 4000
        assert load_manifest(manifest)["runs"][0]["plan"]["key"] == key

    @pytest.mark.parametrize("backend, stream", sorted(MACHINE_GOLDEN))
    def test_machine_matrix(self, tmp_path, backend, stream):
        manifestations, key = MACHINE_GOLDEN[(backend, stream)]
        manifest = tmp_path / "run.json"
        config = RunConfig(shards=4, manifest=manifest)
        result = run_canonical_bug("TSO", threads=2, trials=400, seed=7,
                                   backend=backend, config=config)
        assert result.manifestations == manifestations
        assert result.trials == 400
        assert load_manifest(manifest)["runs"][0]["plan"]["key"] == key
