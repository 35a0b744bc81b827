"""Tests for repro.litmus.generate and repro.litmus.zoo.

The generator's contracts: a family member is a *pure function* of
``(spec, seed, index)`` whose program satisfies every declarative
constraint of its :class:`FamilySpec`; enumerated outcome sets grow
monotonically with the relaxation set (SC at the bottom); sweeps are
bit-identical for fixed ``(spec, seed, trials, shards)`` at any worker
count.  The zoo's operational write-buffer executor, an
independent second opinion on PSO, is tested in ``test_litmus_oracles``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALL_PAIRS, MemoryModel, model_digest
from repro.core.instructions import LD, ST
from repro.errors import LitmusError, ModelDefinitionError
from repro.litmus import (
    FamilySpec,
    PSO_WB,
    SC_NMCA,
    WO_NMCA,
    ZOO_MODELS,
    enumerate_outcomes,
    family_digests,
    family_member,
    generate_family,
    get_zoo_model,
    program_digest,
    sweep_family,
)
from repro.runconfig import RunConfig
from repro.sim import Fence, Load, Store

seeds = st.integers(min_value=0, max_value=2**31)


@st.composite
def family_specs(draw):
    spacing = draw(st.integers(min_value=0, max_value=2))
    return FamilySpec(
        threads=draw(st.integers(min_value=2, max_value=3)),
        ops_per_thread=draw(st.integers(min_value=spacing + 2,
                                        max_value=spacing + 5)),
        addresses=draw(st.integers(min_value=1, max_value=3)),
        spacing=spacing,
        fence_density=draw(st.sampled_from([0.0, 0.25, 1.0])),
        store_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


def memory_ops(program):
    return [op for op in program.operations if not isinstance(op, Fence)]


class TestFamilySpec:
    @pytest.mark.parametrize("kwargs", [
        {"threads": 1},
        {"spacing": -1},
        {"ops_per_thread": 3, "spacing": 2},
        {"addresses": 0},
        {"fence_density": 1.5},
        {"store_fraction": -0.1},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(LitmusError):
            FamilySpec(**kwargs)

    def test_label_and_json_round_trip(self):
        spec = FamilySpec(threads=3, ops_per_thread=5, addresses=2,
                          spacing=1, fence_density=0.25)
        assert spec.label() == "t3o5a2s1f25w50"
        assert FamilySpec(**spec.to_json_dict()) == spec


class TestGeneratorProperties:
    @settings(max_examples=50, deadline=None)
    @given(spec=family_specs(), seed=seeds, index=st.integers(0, 7))
    def test_members_satisfy_spec_constraints(self, spec, seed, index):
        test = family_member(spec, seed, index)
        assert len(test.programs) == spec.threads
        for thread, program in enumerate(test.programs):
            ops = memory_ops(program)
            assert len(ops) == spec.ops_per_thread
            # The critical pair: a store to the thread's own flag,
            # exactly `spacing` fillers later a load of the successor's.
            store_at = next(
                position for position, op in enumerate(ops)
                if isinstance(op, Store) and op.location.startswith("flag"))
            assert ops[store_at].location == f"flag{thread}"
            load_at = store_at + spec.spacing + 1
            critical_load = ops[load_at]
            assert isinstance(critical_load, Load)
            assert critical_load.dst == "rc"
            successor = (thread + 1) % spec.threads
            assert critical_load.location == f"flag{successor}"
            # Fillers draw from the disjoint f* pool.
            pool = {f"f{i}" for i in range(spec.addresses)}
            for position, op in enumerate(ops):
                if position in (store_at, load_at):
                    continue
                assert op.location in pool
            # Fences ride between memory operations, never first.
            if spec.fence_density == 0.0:
                assert ops == list(program.operations)
            assert not isinstance(program.operations[0], Fence)

    @settings(max_examples=50, deadline=None)
    @given(spec=family_specs(), seed=seeds, index=st.integers(0, 7))
    def test_member_is_pure_function_of_arguments(self, spec, seed, index):
        first = family_member(spec, seed, index)
        second = family_member(spec, seed, index)
        assert first.programs == second.programs
        assert program_digest(first) == program_digest(second)

    @settings(max_examples=25, deadline=None)
    @given(spec=family_specs(), seed=seeds)
    def test_relaxed_outcome_is_the_all_zero_critical_read(self, spec, seed):
        test = family_member(spec, seed, 0)
        assert test.relaxed_outcome == tuple(sorted(
            (f"T{k}:rc", 0) for k in range(spec.threads)))
        assert not test.observed_locations

    def test_generate_family_indexes_members(self):
        spec = FamilySpec()
        family = generate_family(spec, 3, seed=9)
        assert [t.name for t in family] \
            == [family_member(spec, 9, i).name for i in range(3)]
        assert family_digests(family) \
            == family_digests(generate_family(spec, 3, seed=9))

    def test_seed_enters_generation(self):
        spec = FamilySpec(ops_per_thread=6, addresses=3, store_fraction=0.5)
        assert family_digests(generate_family(spec, 4, seed=1)) \
            != family_digests(generate_family(spec, 4, seed=2))

    def test_empty_family_rejected(self):
        with pytest.raises(LitmusError):
            generate_family(FamilySpec(), 0)


class TestOutcomeMonotonicity:
    """SC sits at the bottom: enumerated outcome sets only grow as the
    relaxation set grows (for generated programs, which observe no
    memory locations)."""

    relaxation_sets = st.lists(st.sampled_from(ALL_PAIRS), unique=True,
                               max_size=4).map(frozenset)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, relaxed=relaxation_sets)
    def test_sc_subset_of_any_relaxation(self, seed, relaxed):
        test = family_member(FamilySpec(ops_per_thread=3), seed, 0)
        programs = list(test.programs)
        sc = enumerate_outcomes(programs, MemoryModel("SC-base", ()))
        model = enumerate_outcomes(programs, MemoryModel("any", relaxed))
        assert sc <= model

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, smaller=relaxation_sets, extra=relaxation_sets)
    def test_monotone_under_relaxation_inclusion(self, seed, smaller, extra):
        test = family_member(FamilySpec(ops_per_thread=3), seed, 0)
        programs = list(test.programs)
        weaker = smaller | extra
        assert enumerate_outcomes(programs, MemoryModel("a", smaller)) \
            <= enumerate_outcomes(programs, MemoryModel("b", weaker))


class TestSweepDeterminism:
    def test_bit_identical_across_worker_counts(self):
        # Shards are the statistical identity and must be pinned; the
        # claim is worker- and transport-independence at fixed shards.
        spec = FamilySpec(ops_per_thread=4, spacing=1, fence_density=0.25)
        reports = [
            sweep_family(spec, ["TSO", "WO-NMCA"], count=2, trials=600,
                         seed=13,
                         config=RunConfig(workers=workers,
                                          shards=16)).to_json_dict()
            for workers in (1, 2, 4)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_sweep_point_and_rows(self):
        report = sweep_family(FamilySpec(), ["SC", "WO"], count=2,
                              trials=500, seed=3,
                              config=RunConfig(shards=4))
        assert len(report.points) == 4
        point = report.point(1, "WO")
        assert point.model_digest == model_digest(get_zoo_model("WO"))
        assert 0.0 <= point.low <= point.manifestation <= point.high <= 1.0
        assert point.weak_outcomes == round(point.manifestation * 500)
        with pytest.raises(KeyError):
            report.point(0, "PSO")
        assert [row["model"] for row in report.rows()] \
            == ["SC", "WO", "SC", "WO"]
        json.dumps(report.to_json_dict())  # wire-ready

    def test_sc_manifestation_is_zero(self):
        report = sweep_family(FamilySpec(), ["SC"], count=2, trials=500,
                              seed=3, config=RunConfig(shards=4))
        assert all(point.weak_outcomes == 0 for point in report.points)

    def test_zoo_default_and_empty_models_rejected(self):
        report = sweep_family(FamilySpec(), count=1, trials=200, seed=1,
                              config=RunConfig(shards=2))
        assert [p.model for p in report.points] \
            == [m.name for m in ZOO_MODELS]
        with pytest.raises(LitmusError):
            sweep_family(FamilySpec(), [], count=1, trials=200)


class TestZoo:
    def test_lookup_is_superset_of_registry(self):
        assert get_zoo_model("pso-wb") is PSO_WB
        assert get_zoo_model("SC-NMCA") is SC_NMCA
        assert get_zoo_model("wo-nmca") is WO_NMCA
        assert get_zoo_model("total store order").name == "TSO"

    def test_unknown_name_lists_zoo(self):
        with pytest.raises(ModelDefinitionError, match="PSO-WB"):
            get_zoo_model("RC11")

    def test_pso_wb_shares_pso_digest(self):
        """The operational statement is semantically PSO: same digest,
        hence shared exhaustive cache entries — by design."""
        assert model_digest(PSO_WB) == model_digest(get_zoo_model("PSO"))
        assert PSO_WB.atomicity == "atomic"

    def test_nmca_models_are_non_atomic(self):
        assert SC_NMCA.atomicity == "non_atomic"
        assert WO_NMCA.atomicity == "non_atomic"
        assert model_digest(SC_NMCA) != model_digest(get_zoo_model("SC"))


class TestNonAtomicFamilies:
    def test_nmca_members_enumerable_and_ordered(self):
        """Non-atomic SC reaches at least SC's outcomes; non-atomic WO
        at least WO's (propagate-immediately embeds the atomic run)."""
        test = family_member(FamilySpec(ops_per_thread=3), 7, 0)
        programs = list(test.programs)
        sc = enumerate_outcomes(programs, get_zoo_model("SC"))
        wo = enumerate_outcomes(programs, get_zoo_model("WO"))
        assert sc <= enumerate_outcomes(programs, SC_NMCA)
        assert wo <= enumerate_outcomes(programs, WO_NMCA)


class TestServiceEstimator:
    def test_params_default_and_run(self):
        from repro.service.estimators import run_estimator, validate_params

        params = validate_params("litmus_family", {"model": "PSO-WB",
                                                   "count": 2,
                                                   "trials": 400})
        assert params["threads"] == 2 and params["seed"] == 0
        result = run_estimator("litmus_family", params, RunConfig(shards=4))
        assert len(result["points"]) == 2
        assert result["points"][0]["model"] == "PSO-WB"

    # Both are refused at submit, before a job exists.
    def test_invalid_spec_maps_to_service_error(self):
        from repro.service.estimators import validate_params
        from repro.service.schemas import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            validate_params(
                "litmus_family",
                {"model": "TSO", "spacing": 9, "ops_per_thread": 3})
        assert excinfo.value.status == 400

    def test_too_many_orders_maps_to_service_error(self):
        from repro.service.estimators import validate_params
        from repro.service.schemas import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            validate_params(
                "litmus_family",
                {"model": "WO", "count": 1, "trials": 100,
                 "ops_per_thread": 16, "addresses": 16,
                 "store_fraction": 1.0})
        assert excinfo.value.status == 400
        assert "legal orders" in str(excinfo.value)


class TestCli:
    def test_generate_table_and_programs(self, capsys):
        from repro.cli import main

        assert main(["--shards", "4", "litmus", "generate",
                     "--count", "2", "--models", "TSO",
                     "--trials", "400", "--seed", "5", "--programs"]) == 0
        out = capsys.readouterr().out
        assert "fam-" in out
        assert "TSO" in out

    def test_generate_json_deterministic(self, capsys, tmp_path):
        from repro.cli import main

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["--shards", "4", "litmus", "generate",
                         "--count", "2", "--models", "SC", "WO-NMCA",
                         "--trials", "400", "--seed", "5",
                         "--json", str(path)]) == 0
        first, second = (p.read_text(encoding="utf-8") for p in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["seed"] == 5
        assert {p["model"] for p in payload["points"]} == {"SC", "WO-NMCA"}

    def test_generate_rejects_bad_spec(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["litmus", "generate", "--spacing", "5",
                  "--ops-per-thread", "3"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ops_per_thread must fit" in captured.err
