"""Tests for repro.litmus.explore and repro.litmus.robustness.

The exploration engine's contracts: exhaustive mode reproduces the
enumerator bit for bit (and E11's allowed/forbidden matrix with it),
pseudorandom tables depend only on ``(seed, shards)``, the
content-addressed cache serves warm grids without executing anything,
and the robustness analyzer's SC-diff matches the literature pins.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import ALL_PAIRS, PAPER_MODELS, PSO, SC, TSO, WO, MemoryModel
from repro.core.instructions import LD, ST
from repro.errors import LitmusError
from repro.litmus import (
    ALL_TESTS,
    FamilySpec,
    LitmusTest,
    OutcomeFrequencies,
    assert_convergence,
    check_convergence,
    classify_robustness,
    enumerate_outcomes,
    enumerator_fingerprint,
    explore_entry_key,
    explore_exhaustive,
    explore_random,
    family_member,
    get_test,
    get_zoo_model,
    program_digest,
    robustness_report,
    sweep_family,
)
from repro.litmus import core
from repro.runconfig import RunConfig
from repro.sim import Load, Store, ThreadProgram

CLASSICS = ("SB", "MP", "LB", "IRIW")
DATA = Path(__file__).parent / "data"
ZOO_NAMES = ("PSO-WB", "SC-NMCA", "WO-NMCA")

#: Fixed-seed random-mode tables captured before the executors were
#: merged into one step semantics; every later commit must match them.
RANDOM_PINS = json.loads(
    (DATA / "litmus_random_pins.json").read_text(encoding="utf-8"))

#: More fixed-seed tables, captured while the sampler still listed every
#: legal order and drew each integer with its own numpy call: SC and WO,
#: a fenced 3-thread member under the whole zoo, and an 8-op member
#: with 10,080 legal WO orders per thread.
SAMPLER_PINS = json.loads(
    (DATA / "litmus_sampler_pins.json").read_text(encoding="utf-8"))


def _core_qualnames() -> list[str]:
    """Every function and method defined in repro.litmus.core, by source."""
    tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return names

#: SB with renamed threads: semantics identical, labels different.
RELABELED_SB = LitmusTest(
    name="SB-relabeled",
    description="Store buffering with renamed threads.",
    programs=(
        ThreadProgram("A", (Store("x", value=1), Load("r1", "y"))),
        ThreadProgram("B", (Store("y", value=1), Load("r2", "x"))),
    ),
    relaxed_outcome=(("A:r1", 0), ("B:r2", 0)),
    allowed={"SC": False, "TSO": True, "PSO": True, "WO": True},
)


def _rename(outcome, mapping):
    return tuple(sorted(
        (mapping.get(key.split(":")[0], key.split(":")[0])
         + ":" + key.split(":", 1)[1], value)
        for key, value in outcome
    ))


class TestExhaustive:
    def test_reproduces_enumerator_bit_identically(self):
        """E11 at engine level: the grid equals direct enumeration."""
        report = explore_exhaustive()
        for test in ALL_TESTS:
            for model in PAPER_MODELS:
                direct = frozenset(enumerate_outcomes(
                    list(test.programs), model, dict(test.initial_memory),
                    test.observed_locations))
                assert report.outcome_set(test.name, model.name) == direct

    def test_e11_matrix_via_exploration(self):
        report = explore_exhaustive()
        for test in ALL_TESTS:
            for model in PAPER_MODELS:
                reachable = test.relaxed_outcome in report.outcome_set(
                    test.name, model.name)
                assert reachable == test.allowed[model.name], (
                    test.name, model.name)

    def test_accepts_names_and_instances(self):
        by_name = explore_exhaustive(["SB"], ["TSO"])
        by_instance = explore_exhaustive([get_test("SB")], [TSO])
        assert by_name.to_json_dict() == by_instance.to_json_dict()

    def test_empty_grid_rejected(self):
        with pytest.raises(LitmusError):
            explore_exhaustive([], ["TSO"])
        with pytest.raises(LitmusError):
            explore_exhaustive(["SB"], [])

    def test_duplicate_grid_point_rejected(self):
        with pytest.raises(LitmusError):
            explore_exhaustive(["SB", "SB"], ["TSO"])

    def test_unknown_grid_point_raises(self):
        report = explore_exhaustive(["SB"], ["TSO"])
        with pytest.raises(KeyError):
            report.outcome_set("SB", "WO")

    def test_outcome_sets_invariant_under_thread_relabeling(self):
        report = explore_exhaustive([get_test("SB"), RELABELED_SB],
                                    models=None)
        mapping = {"T0": "A", "T1": "B"}
        for model in PAPER_MODELS:
            original = report.outcome_set("SB", model.name)
            relabeled = report.outcome_set("SB-relabeled", model.name)
            assert {_rename(outcome, mapping) for outcome in original} \
                == set(relabeled)

    def test_outcome_sets_invariant_under_thread_order(self):
        sb = get_test("SB")
        swapped = dataclasses.replace(
            sb, name="SB-swapped", programs=tuple(reversed(sb.programs)))
        report = explore_exhaustive([sb, swapped], ["TSO"])
        assert report.outcome_set("SB", "TSO") \
            == report.outcome_set("SB-swapped", "TSO")


class TestExhaustiveCache:
    def test_warm_rerun_executes_nothing(self, tmp_path):
        config = RunConfig(cache=str(tmp_path / "store"))
        cold = explore_exhaustive(CLASSICS, config=config)
        assert (cold.cache_hits, cold.cache_misses) == (0, 16)
        assert cold.cache_stored == 16
        warm = explore_exhaustive(CLASSICS, config=config)
        assert (warm.cache_hits, warm.cache_misses) == (16, 0)
        assert warm.cache_stored == 0
        assert all(result.cached for result in warm.results)
        assert warm.to_json_dict() == cold.to_json_dict()

    def test_warm_manifest_zero_executed_shards(self, tmp_path):
        from repro.obs import load_manifest

        manifest = tmp_path / "m.json"
        config = RunConfig(cache=str(tmp_path / "store"),
                           manifest=str(manifest))
        explore_exhaustive(CLASSICS, config=config)
        explore_exhaustive(CLASSICS, config=config)
        runs = load_manifest(str(manifest))["runs"]
        assert len(runs) == 2
        assert runs[1]["execution"]["executed_shards"] == 0
        assert runs[1]["metrics"]["run.cache_hits"]["value"] == 16
        assert runs[0]["result"] == runs[1]["result"]
        assert runs[1]["metrics"]["explore.grid_points"]["value"] == 16

    def test_key_ignores_registry_name_and_description(self):
        sb = get_test("SB")
        renamed = dataclasses.replace(sb, name="SB-renamed",
                                      description="same program, new prose")
        assert program_digest(renamed) == program_digest(sb)

    def test_digest_tracks_program_content(self):
        sb = get_test("SB")
        shifted = dataclasses.replace(sb, initial_memory={"x": 7})
        assert program_digest(shifted) != program_digest(sb)
        assert program_digest(RELABELED_SB) != program_digest(sb)

    def test_entry_key_splits_models_and_fingerprint(self):
        digest = program_digest(get_test("SB"))
        fingerprint = enumerator_fingerprint()
        tso = explore_entry_key(digest, "TSO", fingerprint)
        assert tso == explore_entry_key(digest, "TSO", fingerprint)
        assert tso == explore_entry_key(digest, TSO, fingerprint)
        assert tso != explore_entry_key(digest, "PSO", fingerprint)
        assert tso != explore_entry_key(digest, "TSO", "0" * 16)

    def test_entry_key_is_semantic_not_nominal(self):
        """Two same-named models with different semantics never collide;
        two models with the same semantics share a key whatever they are
        called (the v2 key folds :func:`model_digest`, not the name)."""
        digest = program_digest(get_test("SB"))
        fingerprint = enumerator_fingerprint()
        fake_tso = MemoryModel("TSO", ALL_PAIRS)
        assert explore_entry_key(digest, fake_tso, fingerprint) \
            != explore_entry_key(digest, TSO, fingerprint)
        renamed_tso = MemoryModel("house-model", [(ST, LD)],
                                  description="TSO wearing another name")
        assert explore_entry_key(digest, renamed_tso, fingerprint) \
            == explore_entry_key(digest, TSO, fingerprint)


class TestModelIdentityRegression:
    """The model-identity bug: models used to travel to workers by *name*
    (workers re-resolved ``get_model(model_name)``), so an ad-hoc
    :class:`MemoryModel` either crashed in child processes or — when it
    shadowed a registry name — silently ran with the registry model's
    semantics and shared its cache entries.  Models now ship by value
    and cache keys fold the semantic :func:`model_digest`.
    """

    def test_adhoc_model_shadowing_tso_keeps_its_own_semantics(self):
        # A WO-relaxation model wearing TSO's name: LB's relaxed outcome
        # is unreachable under real TSO but must be sampled here, and
        # every sampled outcome must stay inside the *ad-hoc* model's
        # enumerated set.  Pre-fix, workers resolved "TSO" from the
        # registry and the relaxed outcome never appeared.
        fake_tso = MemoryModel("TSO", ALL_PAIRS,
                               description="WO wearing TSO's name")
        lb = get_test("LB")
        table = explore_random(lb, fake_tso, 4_000, seed=11,
                               config=RunConfig(workers=2, shards=4))
        assert table.frequency(lb.relaxed_outcome) > 0
        report = check_convergence(table, test=lb, model=fake_tso)
        assert report.contained

    def test_unregistered_model_runs_in_worker_processes(self):
        # Pre-fix this crashed: child processes looked the name up in
        # the registry and "custom-wo" is not there.
        custom = MemoryModel("custom-wo", ALL_PAIRS)
        table = explore_random("SB", custom, 1_000, seed=3,
                               config=RunConfig(workers=2, shards=4))
        assert sum(count for _, count in table.counts) == 1_000
        assert check_convergence(table, test="SB", model=custom).contained

    def test_same_named_models_do_not_share_cache_entries(self, tmp_path):
        config = RunConfig(workers=2, cache=str(tmp_path / "store"))
        real = explore_exhaustive(["LB"], [TSO], config=config)
        assert real.cache_stored == 1
        fake = explore_exhaustive(
            [get_test("LB")], [MemoryModel("TSO", ALL_PAIRS)], config=config)
        # A warm store holding real TSO's outcome set must NOT serve the
        # same-named impostor; pre-fix the name-keyed entry matched.
        assert (fake.cache_hits, fake.cache_misses) == (0, 1)
        assert fake.outcome_set("LB", "TSO") != real.outcome_set("LB", "TSO")
        assert get_test("LB").relaxed_outcome in fake.outcome_set("LB", "TSO")

    def test_random_mode_splits_same_named_models(self, tmp_path):
        fake_tso = MemoryModel("TSO", ALL_PAIRS)
        config = RunConfig(shards=4, cache=str(tmp_path / "store"))
        real = explore_random("LB", "TSO", 2_000, seed=11, config=config)
        impostor = explore_random("LB", fake_tso, 2_000, seed=11,
                                  config=config)
        assert real.counts != impostor.counts
        lb = get_test("LB")
        assert real.frequency(lb.relaxed_outcome) == 0
        assert impostor.frequency(lb.relaxed_outcome) > 0


class TestRandomDeterminism:
    def test_identical_across_worker_counts(self):
        tables = [
            explore_random("SB", "TSO", 2_000, seed=11,
                           config=RunConfig(workers=workers, shards=4))
            for workers in (1, 2, 4)
        ]
        assert tables[0] == tables[1] == tables[2]
        assert sum(count for _, count in tables[0].counts) == 2_000

    def test_identical_across_transports(self):
        base = dict(workers=2, shards=4)
        auto = explore_random("MP", "PSO", 2_000, seed=5,
                              config=RunConfig(transport="auto", **base))
        pickled = explore_random("MP", "PSO", 2_000, seed=5,
                                 config=RunConfig(transport="pickle", **base))
        assert auto == pickled

    def test_rerun_reproducible(self):
        first = explore_random("LB", "WO", 1_500, seed=3,
                               config=RunConfig(shards=4))
        second = explore_random("LB", "WO", 1_500, seed=3,
                                config=RunConfig(shards=4))
        assert first == second

    def test_seed_and_plan_enter_identity(self):
        # The shard plan is (trials, shards, seed): seed and shards both
        # change the table, and the table records them.
        base = RunConfig(shards=4)
        table = explore_random("SB", "TSO", 1_500, seed=3, config=base)
        other_seed = explore_random("SB", "TSO", 1_500, seed=4, config=base)
        assert table.counts != other_seed.counts
        other_shards = explore_random("SB", "TSO", 1_500, seed=3,
                                      config=RunConfig(shards=5))
        assert (other_shards.shards, table.shards) == (5, 4)
        assert other_shards.counts != table.counts

    def test_shard_cache_serves_warm_run(self, tmp_path):
        config = RunConfig(shards=4, cache=str(tmp_path / "store"))
        cold = explore_random("SB", "TSO", 2_000, seed=7, config=config)
        warm = explore_random("SB", "TSO", 2_000, seed=7, config=config)
        assert cold == warm

    def test_rejects_non_positive_trials(self):
        with pytest.raises(LitmusError):
            explore_random("SB", "TSO", 0)


class TestConvergence:
    def test_sampled_frequencies_land_in_enumerated_set(self):
        for name in CLASSICS:
            table = explore_random(name, "TSO", 2_000, seed=1,
                                   config=RunConfig(shards=4))
            report = assert_convergence(table, require_full_support=True)
            assert report.converged
            assert report.coverage == 1.0

    def test_escaped_outcome_raises(self):
        bogus = (("T0:r1", 99), ("T1:r2", 99))
        table = OutcomeFrequencies(
            test="SB", model="TSO", trials=10, seed=0, shards=1,
            counts=((bogus, 10),))
        report = check_convergence(table)
        assert not report.contained
        assert bogus in report.escaped
        with pytest.raises(LitmusError):
            assert_convergence(table)

    def test_partial_support_reported_not_fatal(self):
        enumerated = frozenset(enumerate_outcomes(
            list(get_test("SB").programs), TSO, {}, ()))
        seen = next(iter(enumerated))
        table = OutcomeFrequencies(
            test="SB", model="TSO", trials=10, seed=0, shards=1,
            counts=((seen, 10),))
        report = assert_convergence(table, enumerated)
        assert report.contained and not report.converged
        assert report.coverage == pytest.approx(1 / len(enumerated))
        with pytest.raises(LitmusError):
            assert_convergence(table, enumerated, require_full_support=True)

    def test_frequency_table_helpers(self):
        table = explore_random("SB", "SC", 1_000, seed=2,
                               config=RunConfig(shards=4))
        assert sum(count for _, count in table.counts) == 1_000
        assert sum(table.frequency(outcome) for outcome in table.support) \
            == pytest.approx(1.0)
        payload = table.to_json_dict()
        assert payload["trials"] == 1_000
        assert sum(payload["counts"].values()) == 1_000

    def test_replace_rebuilds_count_cache(self):
        """``count()`` answers from a mapping built once in
        ``__post_init__``; a ``dataclasses.replace`` with new counts must
        rebuild it rather than alias the donor's cache."""
        outcome = (("T0:r1", 0), ("T1:r2", 0))
        table = OutcomeFrequencies(
            test="SB", model="TSO", trials=10, seed=0, shards=1,
            counts=((outcome, 10),))
        assert table.count(outcome) == 10
        other = (("T0:r1", 1), ("T1:r2", 1))
        replaced = dataclasses.replace(table, counts=((other, 10),))
        assert replaced.count(other) == 10
        assert replaced.count(outcome) == 0
        assert table.count(outcome) == 10


class TestRobustness:
    def test_classic_pins(self):
        assert not classify_robustness("SB", "TSO").robust
        assert classify_robustness("MP", "TSO").robust
        assert not classify_robustness("MP", "PSO").robust
        for model in (TSO, PSO, WO):
            assert classify_robustness("CoRR", model).robust

    def test_allowed_relaxed_outcome_witnesses_non_robustness(self):
        report = robustness_report()
        for test in ALL_TESTS:
            for model in (TSO, PSO, WO):
                verdict = next(v for v in report.verdicts
                               if v.test == test.name
                               and v.model == model.name)
                if test.allowed[model.name]:
                    assert not verdict.robust, (test.name, model.name)
                    assert test.relaxed_outcome in verdict.extra_outcomes
                if verdict.robust:
                    assert not test.allowed[model.name], (test.name,
                                                          model.name)

    def test_extra_outcomes_are_exactly_the_sc_diff(self):
        report = explore_exhaustive(["SB"], ["SC", "TSO"])
        verdict = classify_robustness("SB", "TSO")
        expected = (report.outcome_set("SB", "TSO")
                    - report.outcome_set("SB", "SC"))
        assert set(verdict.extra_outcomes) == expected
        assert "NON-ROBUST" in robustness_report(["SB"], ["TSO"]).rows()[0][
            "TSO"]

    def test_sc_filtered_from_model_list(self):
        report = robustness_report(["SB"], [SC, TSO])
        assert [v.model for v in report.verdicts] == ["TSO"]
        with pytest.raises(KeyError):
            report.robust("SB", "SC")

    def test_report_shares_exploration_cache(self, tmp_path):
        config = RunConfig(cache=str(tmp_path / "store"))
        robustness_report(CLASSICS, config=config)
        warm = explore_exhaustive(CLASSICS, config=config)
        assert warm.cache_misses == 0

    def test_json_round_trip(self):
        report = robustness_report(["SB", "MP"], ["TSO", "PSO"])
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["baseline"] == "SC"
        assert payload["verdicts"]["SB"]["TSO"]["robust"] is False
        assert payload["verdicts"]["MP"]["TSO"]["robust"] is True
        assert payload["verdicts"]["MP"]["PSO"]["extra_outcomes"]


class TestGoldenFile:
    def test_committed_golden_outcome_sets(self):
        """The file the CI smoke diffs against is itself pinned here."""
        path = DATA / "litmus_classic_outcomes.json"
        want = json.loads(path.read_text(encoding="utf-8"))
        got = explore_exhaustive(CLASSICS).to_json_dict()
        assert got == want

    # The ids keep the stream name of the 3.x pins, "spawn": the only
    # shard-stream derivation left, and the one every table was drawn by.
    @pytest.mark.parametrize(
        "pin", RANDOM_PINS["tables"],
        ids=lambda pin: f"{pin['test']}/{pin['model']}/spawn")
    def test_random_mode_pins(self, pin):
        member = RANDOM_PINS["member"]
        test = (family_member(FamilySpec(**member["spec"]), member["seed"],
                              member["index"])
                if pin["test"].startswith("fam-") else get_test(pin["test"]))
        table = explore_random(
            test, pin["model"], RANDOM_PINS["trials"],
            seed=RANDOM_PINS["seed"],
            config=RunConfig(shards=RANDOM_PINS["shards"]))
        assert table.to_json_dict() == pin

    @pytest.mark.parametrize(
        "pin", SAMPLER_PINS["tables"],
        ids=lambda pin: f"{pin['test']}/{pin['model']}/spawn")
    def test_sampler_pins(self, pin):
        member = SAMPLER_PINS["members"].get(pin["test"])
        test = (family_member(FamilySpec(**member["spec"]), member["seed"],
                              member["index"])
                if member else get_test(pin["test"]))
        table = explore_random(
            test, pin["model"], SAMPLER_PINS["trials"],
            seed=SAMPLER_PINS["seed"],
            config=RunConfig(shards=SAMPLER_PINS["shards"]))
        assert table.to_json_dict() == pin

    def test_generate_golden(self):
        """The sweep the CI generate smoke diffs against this file."""
        path = DATA / "litmus_generate_golden.json"
        spec = FamilySpec(threads=2, ops_per_thread=5, spacing=1,
                          fence_density=0.25)
        report = sweep_family(spec, ["TSO", "PSO-WB", "WO-NMCA"], count=2,
                              trials=4000, seed=23,
                              config=RunConfig(shards=8))
        text = json.dumps(report.to_json_dict(), indent=2,
                          sort_keys=True) + "\n"
        assert text == path.read_text(encoding="utf-8")


class TestZooNames:
    """Model names resolve through get_zoo_model wherever one is accepted."""

    def test_check_convergence_enumerates_zoo_names(self):
        for name in ZOO_NAMES:
            frequencies = explore_random("SB", name, 400, seed=3)
            report = check_convergence(frequencies)
            assert report.contained, name
            assert report.enumerated == frozenset(
                explore_exhaustive(["SB"], [name]).outcome_set("SB", name))

    def test_entry_key_accepts_zoo_names(self):
        digest = program_digest(get_test("SB"))
        fingerprint = enumerator_fingerprint()
        for name in ZOO_NAMES:
            assert explore_entry_key(digest, name, fingerprint) \
                == explore_entry_key(digest, get_zoo_model(name), fingerprint)


class TestCoreFingerprint:
    """Every function and method of the step semantics keys both modes:
    the exhaustive cache (through :func:`enumerator_fingerprint`) and
    the random-mode run key that names checkpointed and cached
    shards."""

    @staticmethod
    def _random_run_key(path) -> str:
        explore_random("SB", "TSO", 8, seed=1,
                       config=RunConfig(shards=2, manifest=str(path)))
        (run,) = json.loads(path.read_text(encoding="utf-8"))["runs"]
        return run["plan"]["key"]

    def test_qualnames_cover_the_walks(self):
        names = _core_qualnames()
        for needed in ("Machine.step", "Machine.deliver", "Machine.reachable",
                       "Machine.sample", "enabled", "blocker_masks"):
            assert needed in names

    @pytest.mark.parametrize("qualname", _core_qualnames())
    def test_changing_any_core_code_rekeys_both_modes(
            self, qualname, monkeypatch, tmp_path):
        before_exhaustive = enumerator_fingerprint()
        before_random = self._random_run_key(tmp_path / "before.json")
        owner = core
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        function = vars(owner)[name]
        # An unused constant: the behaviour stays, the code does not.
        monkeypatch.setattr(function, "__code__", function.__code__.replace(
            co_consts=function.__code__.co_consts + ("changed",)))
        assert enumerator_fingerprint() != before_exhaustive
        assert self._random_run_key(tmp_path / "after.json") != before_random


class TestRefusedPoints:
    """A test that observes memory has no final memory under non-atomic
    stores: the point's machine refuses it, at the call, before any
    grid point or shard runs."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("a refused point reached the engine")

        monkeypatch.setattr("repro.litmus.explore.parallel_map", engine)
        monkeypatch.setattr("repro.stats.montecarlo.run_sharded", engine)

    def test_exhaustive_refuses_before_the_grid_runs(self, no_engine):
        assert get_test("2+2W").observed_locations
        with pytest.raises(LitmusError, match="WO-NMCA"):
            explore_exhaustive(["SB", "2+2W"], ["WO", "WO-NMCA"])

    def test_random_refuses_before_any_shard(self, no_engine):
        with pytest.raises(LitmusError, match="WO-NMCA"):
            explore_random("2+2W", "WO-NMCA", 100,
                           config=RunConfig(shards=4))


class TestServiceEstimator:
    def test_params_default_and_run(self):
        from repro.service.estimators import run_estimator, validate_params

        params = validate_params("litmus_explore", {"test": "SB",
                                                    "model": "TSO"})
        assert params == {"test": "SB", "model": "TSO", "mode": "exhaustive",
                          "trials": 100_000, "seed": 0}
        result = run_estimator("litmus_explore", params, RunConfig())
        assert list(result["tests"]) == ["SB"]
        assert list(result["tests"]["SB"]) == ["TSO"]
        assert len(result["tests"]["SB"]["TSO"]) == 4

    def test_random_mode_runs(self):
        from repro.service.estimators import run_estimator, validate_params

        params = validate_params(
            "litmus_explore",
            {"test": "MP", "model": "PSO", "mode": "random", "trials": 500})
        result = run_estimator("litmus_explore", params,
                               RunConfig(shards=4))
        assert result["trials"] == 500
        assert sum(result["counts"].values()) == 500

    def test_bad_mode_rejected(self):
        # At submit, before a job exists.
        from repro.service.estimators import validate_params
        from repro.service.schemas import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            validate_params(
                "litmus_explore",
                {"test": "SB", "model": "TSO", "mode": "frobnicate"})
        assert excinfo.value.code == "bad-param"


class TestCli:
    def test_explore_exhaustive_table(self, capsys):
        from repro.cli import main

        assert main(["litmus", "explore", "--tests", "SB", "MP",
                     "--models", "SC", "TSO"]) == 0
        out = capsys.readouterr().out
        assert "Exhaustive exploration" in out
        assert "SB" in out and "MP" in out

    def test_explore_json_and_robustness(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "explore.json"
        assert main(["litmus", "explore", "--tests", "SB",
                     "--robustness", "--json", str(path)]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(payload["tests"]["SB"]) == ["PSO", "SC", "TSO", "WO"]
        assert payload["robustness"]["verdicts"]["SB"]["TSO"][
            "robust"] is False

    def test_explore_random_mode(self, capsys):
        from repro.cli import main

        assert main(["--shards", "4", "litmus", "explore", "--tests", "SB",
                     "--models", "TSO", "--mode", "random",
                     "--trials", "1000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pseudorandom exploration" in out
        assert "SB" in out

    def test_legacy_litmus_still_works(self, capsys):
        from repro.cli import main

        assert main(["litmus"]) == 0
        assert "SB" in capsys.readouterr().out
