"""One estimator shape: a module-level kernel run by one engine call.

Every engine-aware Monte-Carlo estimator binds its parameters into a
module-level shard kernel and hands it to one engine function
(``repro.stats.montecarlo._estimate``), which plans the shards and runs
them under the observer.  Four properties follow, each checked here for
the seven engine-aware estimators:

1. **Run identity.**  The run key (read off the run manifest) moves
   with every argument that changes the numbers — a model field, the
   thread count, the store probability, β, the body length, the segment
   lengths, the bug count, the seed, and ``run_canonical_bug``'s
   ``backend`` (the one driver with two kernels) — and with no scheduling
   knob (workers, transport, retries, progress).  The same variants, run through one shared checkpoint
   journal and one shared cache dir, each get their own numbers.  This
   is the property behind the one-off cache and checkpoint identity
   fixes of the kernel fingerprint and the model digest.
2. **Picklable kernels.**  The kernel that reaches ``run_sharded``
   pickles, so a requested pool really runs it in parallel.
3. **Engine surface.**  The estimators that used to pass closures
   (shift, fleet, multi-bug) shard, cache and observe like the rest.
4. **Failing at the call.**  A bad model, program or shift argument
   raises before any shard runs, on every kernel, so the engine never
   retries a programming error and no kernel returns a number the
   scalar reference would refuse.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro.stats.montecarlo as montecarlo_module
from repro import RunConfig
from repro.core import (
    LD,
    PSO,
    SC,
    TSO,
    WO,
    MemoryModel,
    estimate_disjointness,
    estimate_heterogeneous_non_manifestation,
    estimate_multi_bug_survival,
    estimate_non_manifestation,
)
from repro.errors import ModelDefinitionError, ProgramError
from repro.litmus import explore_random
from repro.obs import load_manifest
from repro.sim import measure_critical_windows, run_canonical_bug
from repro.sim.scheduler import GeometricLaunchScheduler

#: The ``repro`` package directory under test.
SRC = Path(montecarlo_module.__file__).resolve().parents[1]

#: TSO's relaxation set under another settle probability, same name.
TSO_SLOW = MemoryModel("TSO", TSO.relaxed_pairs, settle_probability=0.3)

#: The name "TSO" over PSO's relaxations (a shadowing ad-hoc model).
TSO_SHADOW = MemoryModel("TSO", PSO.relaxed_pairs)

#: ``(estimator, base keyword arguments, changes that alter the numbers)``;
#: a change's ``config`` entry overrides ``RunConfig`` fields.
IDENTITY_CASES = [
    pytest.param(
        estimate_non_manifestation, dict(model=TSO, n=2, trials=64),
        [dict(model=TSO_SLOW), dict(n=3), dict(store_probability=0.25),
         dict(beta=0.25), dict(body_length=4),
         dict(critical_section_length=3), dict(seed=1)],
        id="estimate_non_manifestation"),
    pytest.param(
        run_canonical_bug, dict(model_name="TSO", threads=2, trials=8,
                                body_length=2),
        [dict(model_name="PSO"), dict(drain_probability=0.3),
         dict(threads=3), dict(body_length=3),
         dict(scheduler=GeometricLaunchScheduler(0.25)), dict(fenced=True),
         dict(atomic=True), dict(seed=1), dict(backend="vectorized")],
        id="run_canonical_bug"),
    pytest.param(
        measure_critical_windows, dict(model_name="TSO", threads=2, trials=8,
                                       body_length=2),
        [dict(model_name="PSO"), dict(drain_probability=0.3),
         dict(threads=3), dict(body_length=3),
         dict(scheduler=GeometricLaunchScheduler(0.25)), dict(seed=1)],
        id="measure_critical_windows"),
    pytest.param(
        explore_random, dict(test="SB", model=TSO, trials=64),
        [dict(test="MP"), dict(model=PSO), dict(model=TSO_SHADOW),
         dict(seed=1)],
        id="explore_random"),
    pytest.param(
        estimate_disjointness, dict(lengths=(2, 2), trials=64),
        [dict(lengths=(2, 3)), dict(lengths=(2, 2, 2)), dict(beta=0.25),
         dict(seed=1)],
        id="estimate_disjointness"),
    pytest.param(
        estimate_heterogeneous_non_manifestation,
        dict(models=[SC, TSO], trials=64),
        [dict(models=[SC, WO]), dict(models=[SC, TSO_SLOW]),
         dict(models=[SC, TSO, TSO]), dict(store_probability=0.25),
         dict(beta=0.25), dict(body_length=4), dict(seed=1)],
        id="estimate_heterogeneous_non_manifestation"),
    pytest.param(
        estimate_multi_bug_survival, dict(model=TSO, bug_count=2, trials=64),
        [dict(model=TSO_SLOW), dict(bug_count=3),
         dict(store_probability=0.25), dict(beta=0.25), dict(body_length=4),
         dict(seed=1)],
        id="estimate_multi_bug_survival"),
]

#: Scheduling knobs: none may move the plan key.  ``workers=2`` also
#: switches the ``"auto"`` transport to shm wherever a result layout exists.
SCHEDULING = [dict(workers=2), dict(transport="pickle"), dict(retries=1),
              dict(progress=True)]


@pytest.mark.parametrize("estimator, base, changes", IDENTITY_CASES)
def test_plan_key_tracks_exactly_what_changes_the_numbers(
        tmp_path, estimator, base, changes):
    manifests = (tmp_path / f"run{index}.json" for index in itertools.count())

    def plan_key(config=None, **arguments):
        manifest = next(manifests)
        estimator(**{**base, **arguments},
                  config=RunConfig(shards=2, manifest=manifest,
                                   **(config or {})))
        (run,) = load_manifest(manifest)["runs"]
        return run["plan"]["key"]

    reference = plan_key()
    for change in changes:
        assert plan_key(**change) != reference, change
    for knobs in SCHEDULING:
        assert plan_key(config=knobs) == reference, knobs


@pytest.mark.parametrize("estimator, base, changes", IDENTITY_CASES)
def test_one_journal_and_one_cache_serve_each_variant_its_own_numbers(
        tmp_path, estimator, base, changes):
    """The identity property, run through the lookups the key guards.

    Every variant shares one ``checkpoint`` path and one ``cache`` dir.
    An identity change must execute all its shards and equal its own
    uncached result; a scheduling knob must execute none and return the
    reference result.
    """
    shared = dict(checkpoint=str(tmp_path / "run.jsonl"),
                  cache=str(tmp_path / "cache"))
    manifests = (tmp_path / f"run{index}.json" for index in itertools.count())

    def run(config=None, lookups=shared, **arguments):
        manifest = next(manifests)
        result = estimator(**{**base, **arguments},
                           config=RunConfig(shards=2, manifest=manifest,
                                            **lookups, **(config or {})))
        (record,) = load_manifest(manifest)["runs"]
        return result, record["execution"]["executed_shards"]

    reference, executed = run()
    assert executed == 2
    for change in changes:
        result, executed = run(**change)
        assert executed == 2, change
        assert _numbers(result) == _numbers(run(lookups={}, **change)[0]), \
            change
    for knobs in SCHEDULING:
        result, executed = run(config=knobs)
        assert executed == 0, knobs
        assert _numbers(result) == _numbers(reference), knobs


def _numbers(result) -> list:
    """A result's compared fields, arrays as lists, so ``==`` is exact."""
    values = [getattr(result, spec.name) for spec in dataclasses.fields(result)
              if spec.compare]
    return [value.tolist() if isinstance(value, np.ndarray) else value
            for value in values]


class _Stop(Exception):
    """Raised by the stand-in engine once it has seen the kernel."""


@pytest.mark.parametrize("estimator, base, changes", IDENTITY_CASES)
def test_the_engine_receives_a_picklable_kernel(monkeypatch, estimator, base,
                                                changes):
    kernels = []

    def engine(kernel, plan, **kwargs):
        kernels.append(kernel)
        raise _Stop

    monkeypatch.setattr(montecarlo_module, "run_sharded", engine)
    with pytest.raises(_Stop):
        estimator(**base, config=RunConfig(shards=2))
    (kernel,) = kernels
    pickle.loads(pickle.dumps(kernel))


CHANGED = [
    pytest.param(lambda config: estimate_disjointness(
        (1, 3), 6000, seed=5, config=config), id="estimate_disjointness"),
    pytest.param(lambda config: estimate_heterogeneous_non_manifestation(
        [SC, WO, TSO], 6000, seed=5, config=config),
        id="estimate_heterogeneous_non_manifestation"),
    pytest.param(lambda config: estimate_multi_bug_survival(
        PSO, 3, 6000, seed=5, config=config),
        id="estimate_multi_bug_survival"),
]


@pytest.mark.parametrize("estimate", CHANGED)
def test_worker_invariant_and_served_from_the_cache(tmp_path, estimate):
    def run(workers, cache):
        manifest = tmp_path / f"{cache}.json"
        result = estimate(RunConfig(shards=4, workers=workers,
                                    cache=tmp_path / cache, manifest=manifest))
        return result, load_manifest(manifest)["runs"][-1]

    serial, cold = run(1, "serial")
    pooled, _ = run(2, "pooled")
    repeat, warm = run(2, "pooled")
    assert serial == pooled == repeat
    assert cold["execution"]["executed_shards"] == 4
    assert warm["execution"]["executed_shards"] == 0


@pytest.mark.parametrize("estimator, base, changes", IDENTITY_CASES)
def test_every_estimator_plans_by_one_rule(monkeypatch, estimator, base,
                                           changes):
    """The plan's shard field is ``_plan_shards(config)``, the rule the
    service's ``job_key`` hashes: the default serial config runs the
    one-shard root-stream form, ``shards=1`` one spawned shard, and a
    pool the fixed default."""
    planned = []

    def engine(kernel, plan, **kwargs):
        planned.append(plan.shards)
        raise _Stop

    monkeypatch.setattr(montecarlo_module, "run_sharded", engine)
    configs = (RunConfig(), RunConfig(shards=1), RunConfig(workers=2))
    for config in configs:
        with pytest.raises(_Stop):
            estimator(**base, config=config)
    assert planned == [montecarlo_module._plan_shards(config.resolve())
                       for config in configs] == [None, 1, 16]


#: The four estimators on ``run_event_trials``: their default serial run
#: is the one-shard form of the plan, on the root stream itself.
EVENT_ESTIMATORS = [
    pytest.param(lambda config: estimate_non_manifestation(
        TSO, 2, 2000, seed=5, config=config), id="estimate_non_manifestation"),
    pytest.param(lambda config: estimate_disjointness(
        (2, 3), 2000, seed=5, config=config), id="estimate_disjointness"),
    pytest.param(lambda config: estimate_heterogeneous_non_manifestation(
        [SC, TSO], 2000, seed=5, config=config),
        id="estimate_heterogeneous_non_manifestation"),
    pytest.param(lambda config: estimate_multi_bug_survival(
        TSO, 2, 2000, seed=5, config=config),
        id="estimate_multi_bug_survival"),
]


@pytest.mark.parametrize("estimate", EVENT_ESTIMATORS)
def test_the_default_serial_run_is_keyed(tmp_path, estimate):
    """``RunConfig()`` and ``RunConfig(shards=1)``, through one journal and
    one cache dir, each execute their own shard under their own key and
    return their own uncached numbers; a warm default run executes none."""
    shared = dict(checkpoint=str(tmp_path / "run.jsonl"),
                  cache=str(tmp_path / "cache"))
    manifests = (tmp_path / f"run{index}.json" for index in itertools.count())

    def run(lookups=shared, **knobs):
        manifest = next(manifests)
        result = estimate(RunConfig(manifest=manifest, **lookups, **knobs))
        (record,) = load_manifest(manifest)["runs"]
        return result, record["plan"]["key"], record["execution"]["executed_shards"]

    keys = []
    for knobs in ({}, {"shards": 1}):
        result, key, executed = run(**knobs)
        assert executed == 1 and key is not None, knobs
        assert _numbers(result) == _numbers(run(lookups={}, **knobs)[0]), knobs
        keys.append(key)
    assert keys[0] != keys[1]
    warm, key, executed = run()
    assert executed == 0 and key == keys[0]
    assert _numbers(warm) == _numbers(run(lookups={})[0])


@pytest.fixture
def engine_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo_module, "run_sharded",
                        lambda *args, **kwargs: calls.append(args))
    return calls


#: Relaxes load→load only: no heterogeneous growth sampler covers it.
NO_SAMPLER = MemoryModel("LD-LD", [(LD, LD)])


@pytest.mark.parametrize("retries", [0, 2])
def test_fleet_without_a_sampler_fails_at_the_call(engine_calls, retries):
    with pytest.raises(ModelDefinitionError, match="LD-LD"):
        estimate_heterogeneous_non_manifestation(
            [SC, NO_SAMPLER], 100, config=RunConfig(shards=2, retries=retries))
    assert engine_calls == []


#: Each program-drawing driver with the kernels it runs and the program
#: and shift arguments it takes; every one must refuse an out-of-range
#: value before planning.  Only ``run_canonical_bug`` has two kernels,
#: chosen by its ``backend`` argument.
ARGUMENT_DRIVERS = {
    "estimate_non_manifestation": (
        lambda backend, config, **bad: estimate_non_manifestation(
            TSO, 2, 1000, config=config, **bad),
        ("vectorized",), ("store_probability", "body_length", "beta")),
    "estimate_multi_bug_survival": (
        lambda backend, config, **bad: estimate_multi_bug_survival(
            TSO, 2, 500, config=config, **bad),
        ("vectorized",), ("store_probability", "body_length", "beta")),
    "estimate_heterogeneous_non_manifestation": (
        lambda backend, config, **bad: estimate_heterogeneous_non_manifestation(
            [TSO, WO], 1000, config=config, **bad),
        ("vectorized",), ("store_probability", "body_length", "beta")),
    "run_canonical_bug": (
        lambda backend, config, **bad: run_canonical_bug(
            "TSO", 2, 100, backend=backend, config=config, **bad),
        ("scalar", "vectorized"), ("body_length",)),
    "measure_critical_windows": (
        lambda backend, config, **bad: measure_critical_windows(
            "TSO", 2, 100, config=config, **bad),
        ("scalar",), ("body_length",)),
}

BAD_VALUES = {"store_probability": 1.5, "body_length": -1, "beta": 1.5}


@pytest.mark.parametrize("kernel, driver, argument", [
    pytest.param(kernel, driver, argument, id=f"{kernel}-{driver}-{argument}")
    for driver, (_, kernels, arguments) in ARGUMENT_DRIVERS.items()
    for kernel in kernels
    for argument in arguments])
def test_program_and_shift_arguments_fail_at_the_call(engine_calls, kernel,
                                                      driver, argument):
    drive, _, _ = ARGUMENT_DRIVERS[driver]
    config = RunConfig(workers=2, shards=4, retries=2)
    error = ValueError if argument == "beta" else ProgramError
    with pytest.raises(error, match=argument):
        drive(kernel, config, **{argument: BAD_VALUES[argument]})
    assert engine_calls == []


@pytest.mark.parametrize("lengths, beta", [((), 0.5), ((2, 2), 1.0)])
def test_shift_arguments_fail_at_the_call(engine_calls, lengths, beta):
    with pytest.raises(ValueError):
        estimate_disjointness(lengths, 100, beta=beta,
                              config=RunConfig(shards=2))
    assert engine_calls == []


def test_run_sharded_has_one_estimator_side_caller():
    """Every estimator reaches the shard engine through one call site."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name == "run_sharded":
                    callers.append(path.relative_to(SRC).as_posix())
    assert callers == ["stats/montecarlo.py"]
