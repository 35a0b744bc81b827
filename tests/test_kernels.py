"""The vectorized kernel subsystem: equivalence, exact laws, golden pins.

Three complementary ways of pinning ``repro.kernels`` to the scalar
reference and to the paper:

* **closed form** — kernel estimates must land on the Theorem 4.1 /
  Theorem 5.1 / Theorem 6.2 values;
* **two-sample equivalence** — the scalar reference loops and the
  vectorized kernels are different orderings of the same stream family,
  so their proportions must agree within the pooled z-tolerance of
  ``tests/reference.py``;
* **golden values** — ``non_manifestation_batch`` is the historical
  engine kernel relocated verbatim, so the published Monte-Carlo numbers
  must stay **bit-identical** for a fixed ``(seed, shards)``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import RunConfig
from repro.core import (
    SC,
    TSO,
    WO,
    estimate_non_manifestation,
    non_manifestation_probability,
)
from repro.core.memory_models import LD, PSO, MemoryModel
from repro.core.settling import DEFAULT_BODY_LENGTH, sample_window_growth
from repro.core.shift import DEFAULT_SHIFT_RATIO, ShiftProcess, estimate_disjointness
from repro.core.shift_analytic import disjointness_probability
from repro.core.window_sampling import sample_growth_matrix
from repro.errors import SimulationError
from repro.kernels import (
    KERNEL_CATALOGUE,
    non_manifestation_batch,
    sample_shifts_batch,
    shift_disjoint_batch,
    window_growth_batch,
)
from repro.sim import run_canonical_bug
from repro.stats import RandomSource
from repro.stats.montecarlo import run_event_trials

from .reference import (
    assert_contains_probability,
    assert_equivalent_proportions,
    non_manifestation_scalar_batch,
)

MODELS = {"SC": SC, "TSO": TSO, "WO": WO, "PSO": PSO}

#: A custom model with no vectorized law: both samplers settle it with
#: the reference simulator.
LD_LD = MemoryModel("LD-LD", [(LD, LD)])


class TestBackendResolution:
    """``run_canonical_bug``'s ``backend`` argument, the one kernel choice
    left: every other estimator runs one kernel."""

    def test_known_backends_pass_through(self):
        for backend in ("scalar", "vectorized"):
            result = run_canonical_bug("TSO", 2, 50, seed=1, backend=backend)
            assert result.trials == 50

    def test_unknown_backend_raises_with_choices(self, monkeypatch):
        import repro.stats.montecarlo as montecarlo_module

        calls = []
        monkeypatch.setattr(montecarlo_module, "run_sharded",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="'scalar' or 'vectorized'"):
            run_canonical_bug("TSO", 2, 50, backend="gpu",
                              config=RunConfig(shards=2, retries=2))
        assert calls == []  # at the call, before any shard

    def test_allowed_subset_rejects_known_backends(self):
        # The vectorized machine covers SC/TSO/PSO only.
        with pytest.raises(SimulationError, match="supports SC, TSO, PSO"):
            run_canonical_bug("WO", 2, 50, backend="vectorized")
        assert run_canonical_bug("WO", 2, 50, backend="scalar").trials == 50

    def test_allowed_rejection_differs_from_unknown(self):
        # A known-but-unsupported backend must not masquerade as a typo.
        with pytest.raises(SimulationError) as excinfo:
            run_canonical_bug("WO", 2, 50, backend="vectorized")
        assert "unknown backend" not in str(excinfo.value)
        with pytest.raises(ValueError, match="unknown backend"):
            run_canonical_bug("WO", 2, 50, backend="gpu")

    def test_catalogue_names_are_exported(self):
        import repro.kernels as kernels

        for name in KERNEL_CATALOGUE:
            assert hasattr(kernels, name), name


class TestSettlingKernel:
    """Theorem 4.1: the batch window-growth law per memory model."""

    def test_sc_support_is_exactly_zero(self):
        growths = window_growth_batch(SC, RandomSource(5), 10_000)
        assert growths.shape == (10_000,)
        assert not growths.any()

    def test_support_is_bounded_by_body_length(self):
        for model in (TSO, WO, PSO):
            growths = window_growth_batch(model, RandomSource(6), 10_000,
                                          body_length=DEFAULT_BODY_LENGTH)
            assert growths.min() >= 0
            assert growths.max() <= DEFAULT_BODY_LENGTH

    def test_wo_matches_theorem_41_law(self):
        """WO: Pr[B_0] = 2/3 and Pr[B_gamma] = 2^-gamma / 3 for small gamma
        (body_length >> gamma makes the truncation negligible)."""
        trials = 60_000
        growths = window_growth_batch(WO, RandomSource(41), trials,
                                      body_length=96)
        assert_contains_probability(int((growths == 0).sum()), trials,
                                    2.0 / 3.0, confidence=0.999,
                                    context="WO Pr[B_0]")
        for gamma in (1, 2, 3):
            assert_contains_probability(
                int((growths == gamma).sum()), trials,
                2.0 ** -gamma / 3.0, confidence=0.999,
                context=f"WO Pr[B_{gamma}]",
            )

    @pytest.mark.parametrize("model", [SC, TSO, WO, PSO, LD_LD],
                             ids=lambda model: model.name)
    def test_is_the_one_thread_column_of_the_growth_matrix(self, model):
        trials = 300 if model is LD_LD else 5_000
        for seed in range(3):
            column = sample_growth_matrix(model, RandomSource(seed), trials, 1,
                                          body_length=12)[:, 0]
            batch = window_growth_batch(model, RandomSource(seed), trials,
                                        body_length=12)
            np.testing.assert_array_equal(batch, column)

    @pytest.mark.parametrize("name", ["TSO", "WO", "PSO"])
    def test_equivalent_to_scalar_reference(self, name):
        model = MODELS[name]
        scalar_trials, vector_trials = 4_000, 40_000
        source = RandomSource(17)
        scalar = sum(sample_window_growth(model, source) == 0
                     for _ in range(scalar_trials))
        growths = window_growth_batch(model, RandomSource(18), vector_trials)
        assert_equivalent_proportions(
            int(scalar), scalar_trials,
            int((growths == 0).sum()), vector_trials,
            context=f"{name} Pr[B_0] scalar vs vectorized",
        )


class TestShiftKernel:
    """Theorem 5.1 / Corollary 5.2: batch disjointness."""

    def test_shift_matrix_shape_and_validation(self):
        shifts = sample_shifts_batch(RandomSource(1), 128, 3)
        assert shifts.shape == (128, 3)
        assert shifts.min() >= 0
        with pytest.raises(ValueError):
            sample_shifts_batch(RandomSource(1), 0, 3)
        with pytest.raises(ValueError):
            sample_shifts_batch(RandomSource(1), 8, 0)

    def test_matches_theorem_51_closed_form(self):
        lengths = (1, 2, 3)
        trials = 50_000
        successes = shift_disjoint_batch(RandomSource(51), trials, lengths)
        exact = disjointness_probability(list(lengths), DEFAULT_SHIFT_RATIO)
        assert_contains_probability(successes, trials, exact,
                                    confidence=0.999,
                                    context=f"Thm 5.1 at {lengths}")

    def test_equivalent_to_scalar_process(self):
        lengths = (2, 2)
        process = ShiftProcess(DEFAULT_SHIFT_RATIO)
        scalar_trials, vector_trials = 10_000, 50_000
        source = RandomSource(52)
        scalar = sum(process.sample_event(source, lengths)
                     for _ in range(scalar_trials))
        vectorized = shift_disjoint_batch(RandomSource(53), vector_trials,
                                          lengths)
        assert_equivalent_proportions(
            int(scalar), scalar_trials, vectorized, vector_trials,
            context="shift disjointness scalar vs vectorized",
        )

    def test_estimator_rides_the_engine(self):
        """Corollary 5.2 shape: the engine-wrapped estimator at the
        canonical n = 2 lengths reproduces the golden joined value."""
        result = estimate_disjointness((2, 2), 20_000, seed=0)
        assert result.successes == 3335
        assert result.agrees_with(1.0 / 6.0)

    def test_estimator_is_worker_invariant(self):
        serial = estimate_disjointness((1, 3), 8_000, seed=9,
                                       config=RunConfig(shards=4, workers=1))
        parallel = estimate_disjointness((1, 3), 8_000, seed=9,
                                         config=RunConfig(shards=4, workers=2))
        assert serial.successes == parallel.successes


class TestJoinedKernel:
    """Theorem 6.2/6.3: the full §6 pipeline, vectorized vs scalar."""

    #: Published Monte-Carlo pins: 20k trials, seed 0, default shards.
    GOLDEN = {"SC": 3335, "TSO": 2726, "WO": 2569, "PSO": 2930}

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_vectorized_backend_is_bit_stable(self, name):
        result = estimate_non_manifestation(MODELS[name], 2, 20_000, seed=0)
        assert result.successes == self.GOLDEN[name], (
            f"{name}: the relocated non_manifestation_batch kernel changed "
            f"the published numbers"
        )

    def test_three_thread_pin_survives_sharding(self):
        result = estimate_non_manifestation(TSO, 3, 20_000, seed=0, config=RunConfig(shards=8))
        assert result.successes == 54

    def test_scalar_backend_agrees_with_theorem_62(self):
        # The reference loop on the engine, bound as the estimator binds
        # the vectorized kernel.
        reference = partial(non_manifestation_scalar_batch, model=SC, n=2,
                            store_probability=0.5, beta=DEFAULT_SHIFT_RATIO,
                            body_length=DEFAULT_BODY_LENGTH,
                            critical_section_length=2)
        result = run_event_trials(reference, 20_000, seed=0)
        assert result.successes == 3347  # deterministic in (seed, shards)
        assert result.agrees_with(1.0 / 6.0)

    def test_backends_are_statistically_equivalent(self):
        scalar_trials, vector_trials = 6_000, 60_000
        options = dict(model=TSO, n=2, store_probability=0.5,
                       beta=DEFAULT_SHIFT_RATIO,
                       body_length=DEFAULT_BODY_LENGTH,
                       critical_section_length=2)
        scalar = non_manifestation_scalar_batch(
            RandomSource(61), scalar_trials, **options)
        vectorized = non_manifestation_batch(
            RandomSource(62), vector_trials, **options)
        assert_equivalent_proportions(
            scalar, scalar_trials, vectorized, vector_trials,
            context="joined pipeline scalar vs vectorized",
        )

    def test_unknown_backend_raises(self):
        # One kernel: the joined estimator takes no backend at all.
        with pytest.raises(TypeError, match="backend"):
            estimate_non_manifestation(SC, 2, 1_000, backend="cuda")

    def test_vectorized_lands_on_the_exact_value(self):
        result = estimate_non_manifestation(WO, 2, 60_000, seed=3,
                                            confidence=0.999)
        exact = non_manifestation_probability(WO, 2).value
        assert np.isclose(exact, 7.0 / 54.0)
        assert result.agrees_with(exact)
