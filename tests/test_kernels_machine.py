"""The vectorized machine: §2.2 race equivalence and guard rails.

The whole-array machine kernel replays the store-buffer timeline of the
scalar :class:`repro.sim.Machine` with per-(trial, core) state arrays;
``run_canonical_bug(backend="vectorized")`` runs it.  The two machines
draw different stream shapes, so the contract is *statistical*
equivalence (two-sample z at 0.999) — plus the structural invariants
both must share: worker-invariant numbers for a fixed
``(seed, shards)``, deterministic SC windows, manifestation only ever
with window overlap, and the documented restrictions (SC/TSO/PSO, racy
variant, geometric launches) raising
:class:`~repro.errors.SimulationError` rather than silently computing
something else.  The window checks read the kernel's per-core read and
commit cycles straight from :func:`~repro.kernels.machine_race_batch`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import RunConfig
from repro.errors import SimulationError
from repro.kernels import machine_race_batch
from repro.sim import run_canonical_bug
from repro.sim.measurement import measure_critical_windows
from repro.sim.scheduler import GeometricLaunchScheduler, LockStepScheduler
from repro.stats import RandomSource

from .reference import assert_equivalent_proportions

SCALAR_TRIALS = 1_500
VECTOR_TRIALS = 12_000


def _manifestations(result) -> int:
    return result.manifestations


def _race(model, trials, seed):
    """Per-trial window durations, overlap and manifestation flags of
    ``trials`` two-thread races on the vectorized machine."""
    reads, commits, finals = machine_race_batch(RandomSource(seed), trials,
                                                model)
    order = np.argsort(reads, axis=1, kind="stable")
    starts = np.take_along_axis(reads, order, axis=1)
    ends = np.take_along_axis(commits, order, axis=1)
    overlapped = (starts[:, 1:] <= ends[:, :-1]).any(axis=1)
    return (commits - reads).ravel(), overlapped, finals < 2


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("model", ["SC", "TSO", "PSO"])
    def test_canonical_bug_backends_agree(self, model):
        scalar = run_canonical_bug(model, 2, SCALAR_TRIALS, seed=101)
        vectorized = run_canonical_bug(model, 2, VECTOR_TRIALS, seed=102,
                                       backend="vectorized")
        assert_equivalent_proportions(
            _manifestations(scalar), SCALAR_TRIALS,
            _manifestations(vectorized), VECTOR_TRIALS,
            context=f"{model} canonical-bug manifestation",
        )

    @pytest.mark.parametrize("model", ["TSO", "PSO"])
    def test_window_overlap_rates_agree(self, model):
        scalar = measure_critical_windows(model, 2, SCALAR_TRIALS, seed=103)
        durations, overlapped, _ = _race(model, VECTOR_TRIALS, seed=104)
        assert_equivalent_proportions(
            scalar.overlap_trials, scalar.trials,
            int(overlapped.sum()), VECTOR_TRIALS,
            context=f"{model} window-overlap rate",
        )
        # Mean window durations must agree to a few percent as well.
        assert np.isclose(np.mean(scalar.durations), np.mean(durations),
                          rtol=0.1)

    def test_sc_windows_are_deterministic_on_both_backends(self):
        assert measure_critical_windows("SC", 2, 400, seed=105).deterministic
        durations, _, _ = _race("SC", 400, seed=105)
        assert np.all(durations == durations[0])

    def test_custom_core_options_accepted(self):
        scalar = run_canonical_bug("PSO", 3, 600, seed=106, body_length=12,
                                   drain_probability=0.3, buffer_capacity=2)
        vectorized = run_canonical_bug("PSO", 3, 6_000, seed=107,
                                       body_length=12, backend="vectorized",
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
                                   backend="vectorized",
                                   config=RunConfig(shards=4, workers=1))
        parallel = run_canonical_bug("TSO", 2, 4_000, seed=21,
                                     backend="vectorized",
                                     config=RunConfig(shards=4, workers=2))
        assert serial.final_values == parallel.final_values

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_manifestation_implies_overlap(self, backend):
        if backend == "scalar":
            measurement = measure_critical_windows("TSO", 2, 3_000, seed=22)
            assert measurement.manifest_without_overlap == 0
        else:
            _, overlapped, manifested = _race("TSO", 3_000, seed=22)
            assert manifested.any()
            assert not (manifested & ~overlapped).any()

    def test_backend_distinguished_by_fingerprint_not_label(self, tmp_path):
        # The machine is carried by the kernel fingerprint (the two
        # machines are different callables), not by a label salt — the
        # label stays backend-free while the two run keys differ.
        path = tmp_path / "manifest.json"
        for backend in ("vectorized", "scalar"):
            run_canonical_bug("TSO", 2, 400, seed=23, backend=backend,
                              config=RunConfig(manifest=path))
        runs = json.loads(path.read_text())["runs"]
        labels = [run["label"] for run in runs]
        assert all(":backend=" not in label for label in labels)
        assert labels[0] == labels[1]
        assert runs[0]["plan"]["key"] != runs[1]["plan"]["key"]


class TestGuardRails:
    def test_wo_is_not_vectorizable(self):
        with pytest.raises(SimulationError, match="WO"):
            run_canonical_bug("WO", 2, 100, backend="vectorized")

    @pytest.mark.parametrize("variant", ["fenced", "atomic"])
    def test_protected_variants_refuse_vectorized(self, variant):
        with pytest.raises(SimulationError):
            run_canonical_bug("TSO", 2, 100, backend="vectorized",
                              **{variant: True})

    def test_non_geometric_scheduler_refused(self):
        with pytest.raises(SimulationError):
            run_canonical_bug("TSO", 2, 100, backend="vectorized",
                              scheduler=LockStepScheduler())

    def test_unknown_core_options_refused(self):
        # Checked against the core constructor for either machine, before
        # any planning: a bad keyword is a TypeError.
        with pytest.raises(TypeError, match="exotic_knob"):
            run_canonical_bug("TSO", 2, 100, backend="vectorized",
                              exotic_knob=1)

    def test_scheduler_beta_is_honoured(self):
        """A non-default launch spread changes the vectorized numbers."""
        default = run_canonical_bug("TSO", 2, 4_000, seed=31,
                                    backend="vectorized")
        spread = run_canonical_bug("TSO", 2, 4_000, seed=31,
                                   backend="vectorized",
                                   scheduler=GeometricLaunchScheduler(0.9))
        assert default.final_values != spread.final_values
