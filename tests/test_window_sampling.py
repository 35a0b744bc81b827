"""Tests for repro.core.window_sampling: the vectorised batch samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PSO, SC, TSO, WO, sample_growth_matrix, window_distribution
from repro.stats import PhiloxSource, RandomSource, wilson_interval


class TestShapes:
    def test_shape(self, paper_model, source):
        growths = sample_growth_matrix(paper_model, source, trials=7, threads=3)
        assert growths.shape == (7, 3)
        assert growths.dtype == np.int64

    def test_non_negative(self, paper_model, source):
        growths = sample_growth_matrix(paper_model, source, trials=50, threads=2)
        assert (growths >= 0).all()

    def test_sc_all_zero(self, source):
        assert not sample_growth_matrix(SC, source, trials=20, threads=4).any()

    def test_validation(self, source):
        with pytest.raises(ValueError):
            sample_growth_matrix(TSO, source, trials=0, threads=2)
        with pytest.raises(ValueError):
            sample_growth_matrix(TSO, source, trials=2, threads=0)

    def test_reproducible(self):
        a = sample_growth_matrix(TSO, RandomSource(8), trials=20, threads=2)
        b = sample_growth_matrix(TSO, RandomSource(8), trials=20, threads=2)
        assert (a == b).all()


class TestMarginals:
    @pytest.mark.parametrize("model", [TSO, PSO, WO], ids=lambda m: m.name)
    def test_marginal_matches_analytic(self, model, source):
        growths = sample_growth_matrix(model, source, trials=15_000, threads=2)
        flat = growths.ravel()
        dist = window_distribution(model)
        for gamma in range(4):
            count = int((flat == gamma).sum())
            interval = wilson_interval(count, flat.size, confidence=0.999)
            assert interval.contains(dist.pmf(gamma)), f"{model.name} gamma={gamma}"


class TestSharedProgramCoupling:
    def test_tso_threads_positively_correlated(self, source):
        """Shared programs couple TSO windows: same-trial threads correlate.

        A program whose suffix is store-rich inflates every thread's window,
        so Cov(gamma_1, gamma_2) > 0; independent sampling would give ~0.
        """
        growths = sample_growth_matrix(TSO, source, trials=60_000, threads=2)
        correlation = np.corrcoef(growths[:, 0], growths[:, 1])[0, 1]
        assert correlation > 0.02

    def test_wo_threads_uncorrelated(self, source):
        """WO windows are program-independent, hence uncorrelated."""
        growths = sample_growth_matrix(WO, source, trials=60_000, threads=2)
        correlation = np.corrcoef(growths[:, 0], growths[:, 1])[0, 1]
        assert abs(correlation) < 0.02


class TestReferenceFallback:
    def test_custom_model_uses_reference_settler(self, source):
        from repro.core import LD, ST, MemoryModel

        exotic = MemoryModel("exotic", [(ST, ST)])
        growths = sample_growth_matrix(
            exotic, source, trials=10, threads=2, body_length=12
        )
        assert not growths.any()  # ST/ST alone can never grow the window

    def test_reference_matches_fast_for_tso(self):
        """The slow shared-program path agrees with the fast chain path."""
        from repro.core.window_sampling import _sample_growth_reference

        fast = sample_growth_matrix(
            TSO, RandomSource(3), trials=4000, threads=1, body_length=32
        ).ravel()
        slow = _sample_growth_reference(
            TSO, RandomSource(4), trials=4000, threads=1, body_length=32,
            store_probability=0.5,
        ).ravel()
        for gamma in range(3):
            fast_interval = wilson_interval(int((fast == gamma).sum()), fast.size, 0.999)
            slow_interval = wilson_interval(int((slow == gamma).sum()), slow.size, 0.999)
            assert fast_interval.low <= slow_interval.high
            assert slow_interval.low <= fast_interval.high


class _SteppedSource(RandomSource):
    """The same PCG64 stream, read as if it could not seek: the forward loop."""

    seekable = False


class TestBackwardScan:
    """The scan of the TSO/PSO trailing runs equals the forward loop.

    Equal growths, element for element, and the stream left in the same
    place, over shapes, body lengths around the read and stop-test
    blocks (a read is 1 round at 4096 x 2 and 8 for the others; the stop
    rule is tested every 8 rounds), and (p, settle) inside the scan's domain
    and on its edges: settle 2/3, the last ratio the array inverts, and
    the next double up, 0.9 and 0, which draw a variable count or none;
    p 0 and 1, which draw no coins.
    """

    SHAPES = [(1, 1), (257, 3), (4096, 2), (50, 8)]
    BODIES = [0, 1, 2, 3, 7, 8, 9, 96, 200]
    POINTS = [(0.5, 0.5), (0.3, 0.1), (0.7, 0.6), (0.5, 2 / 3),
              (0.5, float(np.nextafter(2 / 3, 1))), (0.5, 0.9), (0.5, 0.0),
              (0.0, 0.5), (1.0, 0.5), (0.0, 0.0)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("point", POINTS, ids=lambda p: f"p{p[0]:.2g}-s{p[1]:.17g}")
    @pytest.mark.parametrize("base", [TSO, PSO], ids=lambda m: m.name)
    def test_scan_equals_the_forward_loop(self, base, point, shape):
        store_probability, settle = point
        model = base.with_settle_probability(settle)
        for seed in range(3):
            for body in self.BODIES:
                scanned, stepped = RandomSource(seed), _SteppedSource(seed)
                args = (shape[0], shape[1], body, store_probability)
                np.testing.assert_array_equal(
                    sample_growth_matrix(model, scanned, *args),
                    sample_growth_matrix(model, stepped, *args),
                    err_msg=f"seed={seed} body={body}")
                assert scanned.generator.random() == stepped.generator.random()

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_the_stop_rule_holds_after_every_round(self, shape, monkeypatch):
        # Tested once per round read, an early stop shows far more often
        # than at block ends.
        from repro.core import window_sampling

        monkeypatch.setattr(window_sampling, "_SCAN_ROUNDS", 1)
        for seed in range(40):
            scanned, stepped = RandomSource(seed), _SteppedSource(seed)
            np.testing.assert_array_equal(
                sample_growth_matrix(TSO, scanned, *shape, 96),
                sample_growth_matrix(TSO, stepped, *shape, 96),
                err_msg=f"seed={seed}")

    def test_the_scan_runs_where_the_stream_seeks(self, monkeypatch):
        from repro.core import window_sampling

        def refuse(*args):
            raise AssertionError("stepped forward")

        monkeypatch.setattr(window_sampling, "_step_trailing_runs", refuse)
        for model in (TSO, PSO, TSO.with_settle_probability(2 / 3)):
            sample_growth_matrix(model, RandomSource(1), 64, 2)

    @pytest.mark.parametrize("source,model", [
        (PhiloxSource(3, (0,)), TSO),
        (RandomSource(3), TSO.with_settle_probability(0.9)),
    ], ids=["philox", "settle-0.9"])
    def test_the_loop_runs_where_the_scan_cannot(self, source, model, monkeypatch):
        from repro.core import window_sampling

        def refuse(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(window_sampling, "_scan_trailing_runs", refuse)
        assert sample_growth_matrix(model, source, 64, 2).shape == (64, 2)

    def test_a_buffered_half_word_survives_the_scan(self):
        # A bounded integer draw can leave half of a 64-bit output buffered;
        # the forward loop's doubles keep it, so the scan must too.
        scanned, stepped = RandomSource(5), _SteppedSource(5)
        for source in (scanned, stepped):
            source.uniform_int(0, 9)
        np.testing.assert_array_equal(
            sample_growth_matrix(TSO, scanned, 100, 2),
            sample_growth_matrix(TSO, stepped, 100, 2))
        assert scanned.uniform_int(0, 9) == stepped.uniform_int(0, 9)
        assert scanned.generator.random() == stepped.generator.random()
