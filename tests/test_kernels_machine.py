"""The vectorized machine backend: §2.2 race equivalence and guard rails.

The whole-array machine kernel replays the store-buffer timeline of the
scalar :class:`repro.sim.Machine` with per-(trial, core) state arrays.
The backends draw different stream shapes, so the contract is
*statistical* equivalence (two-sample z at 0.999) — plus the structural
invariants both must share: worker-invariant numbers for a fixed
``(seed, shards)``, manifestation only ever with window overlap, and the
documented restrictions (SC/TSO/PSO, racy variant, geometric launches)
raising :class:`~repro.errors.SimulationError` rather than silently
computing something else.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import RunConfig
from repro.errors import SimulationError
from repro.kernels.validation import assert_equivalent_proportions
from repro.sim import run_canonical_bug
from repro.sim.measurement import measure_critical_windows
from repro.sim.scheduler import GeometricLaunchScheduler, LockStepScheduler

SCALAR_TRIALS = 1_500
VECTOR_TRIALS = 12_000


def _manifestations(result) -> int:
    return result.manifestations


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("model", ["SC", "TSO", "PSO"])
    def test_canonical_bug_backends_agree(self, model):
        scalar = run_canonical_bug(model, 2, SCALAR_TRIALS, seed=101,
                                   config=RunConfig(backend="scalar"))
        vectorized = run_canonical_bug(model, 2, VECTOR_TRIALS, seed=102,
                                       config=RunConfig(backend="vectorized"))
        assert_equivalent_proportions(
            _manifestations(scalar), SCALAR_TRIALS,
            _manifestations(vectorized), VECTOR_TRIALS,
            context=f"{model} canonical-bug manifestation",
        )

    @pytest.mark.parametrize("model", ["TSO", "PSO"])
    def test_window_overlap_rates_agree(self, model):
        scalar = measure_critical_windows(model, 2, SCALAR_TRIALS, seed=103,
                                          config=RunConfig(backend="scalar"))
        vectorized = measure_critical_windows(model, 2, VECTOR_TRIALS,
                                              seed=104, config=RunConfig(backend="vectorized"))
        assert_equivalent_proportions(
            scalar.overlap_trials, scalar.trials,
            vectorized.overlap_trials, vectorized.trials,
            context=f"{model} window-overlap rate",
        )
        # Mean window durations must agree to a few percent as well.
        assert np.isclose(np.mean(scalar.durations),
                          np.mean(vectorized.durations), rtol=0.1)

    def test_sc_windows_are_deterministic_on_both_backends(self):
        for backend in ("scalar", "vectorized"):
            measurement = measure_critical_windows("SC", 2, 400, seed=105,
                                                   config=RunConfig(backend=backend))
            assert measurement.deterministic, backend

    def test_custom_core_options_accepted(self):
        scalar = run_canonical_bug("PSO", 3, 600, seed=106, body_length=12,
                                   config=RunConfig(backend="scalar"), drain_probability=0.3,
                                   buffer_capacity=2)
        vectorized = run_canonical_bug("PSO", 3, 6_000, seed=107,
                                       body_length=12, config=RunConfig(backend="vectorized"),
                                       drain_probability=0.3,
                                       buffer_capacity=2)
        assert_equivalent_proportions(
            _manifestations(scalar), 600,
            _manifestations(vectorized), 6_000,
            context="PSO stress (3 threads, capacity 2, drain 0.3)",
        )


class TestStructuralInvariants:
    def test_vectorized_is_worker_invariant(self):
        serial = run_canonical_bug("TSO", 2, 4_000, seed=21,
                                   config=RunConfig(shards=4, workers=1, backend="vectorized"))
        parallel = run_canonical_bug("TSO", 2, 4_000, seed=21,
                                     config=RunConfig(shards=4, workers=2, backend="vectorized"))
        assert serial.final_values == parallel.final_values

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_manifestation_implies_overlap(self, backend):
        measurement = measure_critical_windows("TSO", 2, 3_000, seed=22,
                                               config=RunConfig(backend=backend))
        assert measurement.manifest_without_overlap == 0

    def test_backend_distinguished_by_fingerprint_not_label(self, tmp_path):
        # Since the v2 checkpoint keys, the backend is carried by the
        # kernel fingerprint (the two backends are different callables),
        # not by a label salt — the label stays backend-free while the
        # two backends' run keys differ.
        path = tmp_path / "manifest.json"
        run_canonical_bug("TSO", 2, 400, seed=23,
                          config=RunConfig(backend="vectorized", manifest=path))
        run_canonical_bug("TSO", 2, 400, seed=23,
                          config=RunConfig(backend="scalar", manifest=path))
        runs = json.loads(path.read_text())["runs"]
        labels = [run["label"] for run in runs]
        assert all(":backend=" not in label for label in labels)
        assert labels[0] == labels[1]
        assert runs[0]["plan"]["key"] != runs[1]["plan"]["key"]


class TestGuardRails:
    def test_wo_is_not_vectorizable(self):
        with pytest.raises(SimulationError, match="WO"):
            run_canonical_bug("WO", 2, 100, config=RunConfig(backend="vectorized"))

    @pytest.mark.parametrize("variant", ["fenced", "atomic"])
    def test_protected_variants_refuse_vectorized(self, variant):
        with pytest.raises(SimulationError):
            run_canonical_bug("TSO", 2, 100, config=RunConfig(backend="vectorized"),
                              **{variant: True})

    def test_non_geometric_scheduler_refused(self):
        with pytest.raises(SimulationError):
            run_canonical_bug("TSO", 2, 100, config=RunConfig(backend="vectorized"),
                              scheduler=LockStepScheduler())

    def test_unknown_core_options_refused(self):
        # Checked against the core constructor for every backend, before
        # any planning: a bad keyword is a TypeError.
        with pytest.raises(TypeError, match="exotic_knob"):
            run_canonical_bug("TSO", 2, 100, config=RunConfig(backend="vectorized"),
                              exotic_knob=1)

    def test_scheduler_beta_is_honoured(self):
        """A non-default launch spread changes the vectorized numbers."""
        default = run_canonical_bug("TSO", 2, 4_000, seed=31,
                                    config=RunConfig(backend="vectorized"))
        spread = run_canonical_bug("TSO", 2, 4_000, seed=31,
                                   config=RunConfig(backend="vectorized"),
                                   scheduler=GeometricLaunchScheduler(0.9))
        assert default.final_values != spread.final_values
