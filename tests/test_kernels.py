"""The vectorized kernel subsystem: equivalence, exact laws, golden pins.

Three complementary ways of pinning ``repro.kernels`` to the scalar
reference and to the paper:

* **closed form** — kernel estimates must land on the Theorem 4.1 /
  Theorem 5.1 / Theorem 6.2 values;
* **two-sample equivalence** — scalar and vectorized backends are
  different orderings of the same stream family, so their proportions
  must agree within the pooled z-tolerance of
  :mod:`repro.kernels.validation`;
* **golden values** — ``non_manifestation_batch`` is the historical
  engine kernel relocated verbatim, so the published Monte-Carlo numbers
  must stay **bit-identical** for a fixed ``(seed, shards)``.
"""

from __future__ import annotations

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
from repro.core.memory_models import PSO
from repro.core.settling import DEFAULT_BODY_LENGTH, sample_window_growth
from repro.core.shift import DEFAULT_SHIFT_RATIO, ShiftProcess, estimate_disjointness
from repro.core.shift_analytic import disjointness_probability
from repro.kernels import (
    BACKENDS,
    KERNEL_CATALOGUE,
    non_manifestation_batch,
    non_manifestation_fused_batch,
    non_manifestation_scalar_batch,
    resolve_backend,
    sample_shifts_batch,
    shift_disjoint_batch,
    window_growth_batch,
)
from repro.kernels.validation import (
    assert_contains_probability,
    assert_equivalent_proportions,
)
from repro.stats import RandomSource

MODELS = {"SC": SC, "TSO": TSO, "WO": WO, "PSO": PSO}


class TestBackendResolution:
    def test_known_backends_pass_through(self):
        for backend in BACKENDS:
            assert resolve_backend(backend) == backend

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="scalar"):
            resolve_backend("gpu")

    def test_allowed_subset_rejects_known_backends(self):
        assert resolve_backend("scalar",
                               allowed=("scalar", "vectorized")) == "scalar"
        with pytest.raises(ValueError, match="not supported here"):
            resolve_backend("fused", allowed=("scalar", "vectorized"))

    def test_allowed_rejection_differs_from_unknown(self):
        # A known-but-unsupported backend must not masquerade as a typo.
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu", allowed=("scalar",))

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
        result = estimate_non_manifestation(SC, 2, 20_000, seed=0,
                                            config=RunConfig(backend="scalar"))
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

    def test_vectorized_lands_on_the_exact_value(self):
        result = estimate_non_manifestation(WO, 2, 60_000, seed=3,
                                            confidence=0.999)
        exact = non_manifestation_probability(WO, 2).value
        assert np.isclose(exact, 7.0 / 54.0)
        assert result.agrees_with(exact)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend"):
            estimate_non_manifestation(SC, 2, 1_000, config=RunConfig(backend="cuda"))


class TestFusedKernel:
    """The single-pass fused chain: z-equivalent to the composed kernels.

    The fused backend inverts its geometric draws from uniforms instead
    of replaying the composed chain's generator calls, so it is pinned by
    two-sample equivalence at 0.999 (same laws, different streams) plus
    its own fixed-seed determinism — and, where numpy's geometric sampler
    reads the stream the same way (every ratio at most 2/3), by equality.
    """

    OPTIONS = dict(store_probability=0.5, beta=DEFAULT_SHIFT_RATIO,
                   body_length=DEFAULT_BODY_LENGTH,
                   critical_section_length=2)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equivalent_to_composed_chain(self, name):
        trials = 60_000
        fused = non_manifestation_fused_batch(
            RandomSource(71), trials, model=MODELS[name], n=2, **self.OPTIONS)
        composed = non_manifestation_batch(
            RandomSource(72), trials, model=MODELS[name], n=2, **self.OPTIONS)
        assert_equivalent_proportions(
            fused, trials, composed, trials,
            confidence=0.999, context=f"fused vs composed {name} n=2",
        )

    @pytest.mark.parametrize("n", [3, 5])
    def test_equivalent_beyond_the_closed_form_pair(self, n):
        trials = 60_000
        fused = non_manifestation_fused_batch(
            RandomSource(73), trials, model=TSO, n=n, **self.OPTIONS)
        composed = non_manifestation_batch(
            RandomSource(74), trials, model=TSO, n=n, **self.OPTIONS)
        assert_equivalent_proportions(
            fused, trials, composed, trials,
            confidence=0.999, context=f"fused vs composed TSO n={n}",
        )

    def test_fixed_seed_is_deterministic(self):
        draws = [non_manifestation_fused_batch(
            RandomSource(75), 5_000, model=PSO, n=2, **self.OPTIONS)
            for _ in range(2)]
        assert draws[0] == draws[1]

    def test_degenerate_parameters_match_composed_exactly(self):
        # beta=0 shifts and p in {0, 1} stores draw no randomness, so the
        # fused and composed counts coincide exactly, not just in law.
        for p in (0.0, 1.0):
            options = dict(store_probability=p, beta=0.0,
                           body_length=4, critical_section_length=2)
            fused = non_manifestation_fused_batch(
                RandomSource(76), 500, model=TSO, n=2, **options)
            composed = non_manifestation_batch(
                RandomSource(76), 500, model=TSO, n=2, **options)
            assert fused == composed

    @pytest.mark.parametrize("beta, equal", [(0.5, True), (0.8, False)])
    def test_equals_composed_counts_iff_beta_at_most_two_thirds(
            self, beta, equal):
        # For p = 1 - beta >= 1/3 numpy's Generator.geometric draws by
        # search from one uniform per variate, which is exactly the
        # fused inversion of that uniform; above 2/3 it does not.
        options = dict(self.OPTIONS, beta=beta)
        for name, model in sorted(MODELS.items()):
            fused = non_manifestation_fused_batch(
                RandomSource(77), 20_000, model=model, n=3, **options)
            composed = non_manifestation_batch(
                RandomSource(77), 20_000, model=model, n=3, **options)
            assert (fused == composed) is equal, name

    def test_validates_batch_and_n(self):
        with pytest.raises(ValueError, match="positive"):
            non_manifestation_fused_batch(
                RandomSource(0), 0, model=SC, n=2, **self.OPTIONS)
        with pytest.raises(ValueError, match="positive"):
            non_manifestation_fused_batch(
                RandomSource(0), 10, model=SC, n=0, **self.OPTIONS)

    def test_estimator_backend_lands_on_the_exact_value(self):
        result = estimate_non_manifestation(WO, 2, 60_000, seed=8,
                                            confidence=0.999,
                                            config=RunConfig(backend="fused"))
        assert result.agrees_with(non_manifestation_probability(WO, 2).value)

    def test_estimator_backend_survives_sharding(self):
        serial = estimate_non_manifestation(TSO, 2, 8_000, seed=9,
                                            config=RunConfig(shards=4, backend="fused"))
        parallel = estimate_non_manifestation(TSO, 2, 8_000, seed=9,
                                              config=RunConfig(shards=4, workers=2,
                                                               backend="fused"))
        assert serial.successes == parallel.successes

    def test_machine_paths_reject_fused(self):
        from repro.sim import run_canonical_bug
        from repro.sim.measurement import measure_critical_windows

        with pytest.raises(ValueError, match="not supported here"):
            run_canonical_bug("TSO", threads=2, trials=100, config=RunConfig(backend="fused"))
        with pytest.raises(ValueError, match="not supported here"):
            measure_critical_windows("TSO", 2, 100, config=RunConfig(backend="fused"))
