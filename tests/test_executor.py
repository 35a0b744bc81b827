"""Tests for repro.sim.executor: the canonical-bug machine experiment (E10)."""

from __future__ import annotations

import pytest

import repro.sim.executor as executor_module
import repro.sim.measurement as measurement_module
import repro.stats.montecarlo as montecarlo_module
from repro import RunConfig
from repro.errors import SimulationError
from repro.sim import measure_critical_windows, run_canonical_bug
from repro.sim.scheduler import LockStepScheduler


class TestRunCanonicalBug:
    def test_final_values_bounded_by_threads(self):
        result = run_canonical_bug("SC", threads=2, trials=200, seed=1, body_length=4)
        assert sum(result.final_values.values()) == 200
        assert all(1 <= value <= 2 for value in result.final_values)

    def test_manifestation_counts_short_counters(self):
        result = run_canonical_bug("TSO", threads=2, trials=200, seed=2, body_length=4)
        expected = sum(count for value, count in result.final_values.items() if value < 2)
        assert result.manifestations == expected

    def test_survival_complements_manifestation(self):
        result = run_canonical_bug("WO", threads=2, trials=150, seed=3, body_length=4)
        assert result.survival.estimate + result.manifestation.estimate == pytest.approx(1.0)

    def test_reproducible(self):
        a = run_canonical_bug("TSO", threads=2, trials=100, seed=7, body_length=4)
        b = run_canonical_bug("TSO", threads=2, trials=100, seed=7, body_length=4)
        assert a.final_values == b.final_values

    def test_weak_models_manifest_more_than_sc(self):
        """The paper's qualitative claim on the machine substrate."""
        sc = run_canonical_bug("SC", threads=2, trials=1500, seed=11, body_length=6)
        wo = run_canonical_bug("WO", threads=2, trials=1500, seed=11, body_length=6)
        tso = run_canonical_bug("TSO", threads=2, trials=1500, seed=11, body_length=6)
        assert sc.manifestation.high < tso.manifestation.low
        assert sc.manifestation.high < wo.manifestation.low

    def test_more_threads_manifest_more(self):
        two = run_canonical_bug("SC", threads=2, trials=1000, seed=13, body_length=4)
        four = run_canonical_bug("SC", threads=4, trials=1000, seed=13, body_length=4)
        assert four.manifestation.estimate > two.manifestation.estimate

    def test_fences_reduce_manifestation_under_wo(self):
        """§7: fences pin the critical pair, shrinking the window under WO."""
        loose = run_canonical_bug("WO", threads=2, trials=2500, seed=17, body_length=6)
        fenced = run_canonical_bug(
            "WO", threads=2, trials=2500, seed=17, body_length=6, fenced=True
        )
        assert fenced.manifestation.estimate <= loose.manifestation.estimate

    def test_custom_scheduler(self):
        result = run_canonical_bug(
            "SC", threads=2, trials=100, seed=19, body_length=2,
            scheduler=LockStepScheduler(),
        )
        # Lock-step identical threads race deterministically: all trials agree.
        assert len(result.final_values) == 1

    def test_core_options_forwarded(self):
        slow_drain = run_canonical_bug(
            "TSO", threads=2, trials=400, seed=23, body_length=4, drain_probability=0.05
        )
        fast_drain = run_canonical_bug(
            "TSO", threads=2, trials=400, seed=23, body_length=4, drain_probability=0.95
        )
        # Slow drains keep the critical store invisible longer: more bugs.
        assert slow_drain.manifestation.estimate >= fast_drain.manifestation.estimate

    def test_validation(self):
        with pytest.raises(ValueError):
            run_canonical_bug("SC", threads=1, trials=10)
        with pytest.raises(ValueError):
            run_canonical_bug("SC", threads=2, trials=0)

    def test_str_summary(self):
        result = run_canonical_bug("SC", threads=2, trials=50, seed=29, body_length=2)
        text = str(result)
        assert "SC" in text and "n=2" in text


MACHINE_DRIVERS = [
    pytest.param(executor_module, run_canonical_bug, id="run_canonical_bug"),
    pytest.param(measurement_module, measure_critical_windows,
                 id="measure_critical_windows"),
]


class TestCoreOptionsCheckedUpFront:
    """A bad core option fails at the call, not inside a retried shard."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo_module, "run_sharded",
                            lambda *args, **kwargs: calls.append(args))
        return calls

    @pytest.mark.parametrize("module, driver", MACHINE_DRIVERS)
    def test_typo_raises_type_error_before_any_shard(self, engine_calls,
                                                     module, driver):
        with pytest.raises(TypeError, match="drain_probabilityy"):
            driver("TSO", 2, 10, drain_probabilityy=0.3,
                   config=RunConfig(retries=3, shards=2))
        assert engine_calls == []

    @pytest.mark.parametrize("knob", ["workers", "shards"])
    @pytest.mark.parametrize("module, driver", MACHINE_DRIVERS)
    def test_stale_knob_keyword_names_the_config(self, engine_calls, module,
                                                 driver, knob):
        with pytest.raises(TypeError, match=r"config=RunConfig\("):
            driver("TSO", 2, 10, **{knob: 2})
        assert engine_calls == []

    @pytest.mark.parametrize("module, driver", MACHINE_DRIVERS)
    def test_unknown_model_raises_before_any_shard(self, engine_calls,
                                                   module, driver):
        with pytest.raises(SimulationError, match="no core model named 'XYZ'"):
            driver("XYZ", 2, 10, config=RunConfig(retries=3, shards=2))
        assert engine_calls == []

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
    def test_confidence_out_of_range_raises_at_the_call(self, engine_calls,
                                                        confidence):
        with pytest.raises(ValueError, match="confidence"):
            run_canonical_bug("TSO", 2, 10, confidence=confidence,
                              config=RunConfig(shards=2))
        assert engine_calls == []

    def test_option_of_another_core_is_rejected(self, engine_calls):
        with pytest.raises(TypeError, match="window_size"):
            run_canonical_bug("TSO", 2, 10, window_size=4)
        assert engine_calls == []

    def test_accepted_options_still_reach_the_core(self):
        result = run_canonical_bug("WO", 2, 20, seed=1, body_length=2,
                                   window_size=2)
        assert result.trials == 20
