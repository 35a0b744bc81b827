"""Tests for the observability layer (:mod:`repro.obs`).

The contract under test is two-sided: observation must be *complete*
(every shard, retry, timeout and resume shows up in the metrics, the
manifest, and the trace) and *inert* (enabling any knob changes no
estimate — the engine's seed discipline is untouched).
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext

import pytest

from repro import RunConfig
from repro.obs import (
    METRICS_CATALOGUE,
    ManifestError,
    MetricsRegistry,
    ProgressSnapshot,
    RunObserver,
    ShardEvent,
    Tracer,
    estimate_eta,
    format_progress,
    load_manifest,
    trimmed_mean,
    validate_manifest,
    write_manifest,
)
from repro.parallel import ScriptedFaults, ShardPlan, pool_scope, run_sharded
from repro.stats.montecarlo import run_bernoulli_trials

from .test_faults import _SleepOnFirstAttempt


def _sum_kernel(source, shard_trials):
    """Module-level (picklable) shard kernel: sum of uniforms."""
    return sum(source.generator.random() for _ in range(shard_trials))


def _trial(source) -> bool:
    return source.generator.random() < 0.25


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("run.shard_retries", "attempts").inc(3)
        registry.gauge("run.trials_total", "trials").set(1000)
        histogram = registry.histogram("run.shard_seconds", "seconds")
        histogram.observe(0.5)
        histogram.observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["run.shard_retries"]["value"] == 3
        assert snapshot["run.trials_total"]["value"] == 1000
        assert snapshot["run.shard_seconds"]["count"] == 2
        assert snapshot["run.shard_seconds"]["sum"] == pytest.approx(2.0)

    def test_catalogue_covers_observer_metrics(self):
        observer = RunObserver(progress=lambda s: None)
        observer.run_started(trials=10, shards=2, seed=0, workers=1)
        observer.shard_finished(ShardEvent(shard=0, trials=5, seconds=0.1,
                                           attempts=1, worker=1))
        observer.shard_finished(ShardEvent(shard=1, trials=5, seconds=0.1,
                                           attempts=1, worker=1))
        for name in observer.final_metrics().snapshot():
            assert name in METRICS_CATALOGUE, f"{name} missing from catalogue"

    def test_trimmed_mean(self):
        assert trimmed_mean([1.0]) == 1.0
        # Outlier on each end is dropped at trim=0.2 with 5+ samples.
        assert trimmed_mean([100.0, 1.0, 1.0, 1.0, 0.0]) == 1.0


class TestTrace:
    def test_span_nesting_depths(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("run"):
                with tracer.span("shards"):
                    with tracer.span("shard", shard=3):
                        pass
                with tracer.span("merge"):
                    pass
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {record["name"]: record for record in records}
        assert by_name["run"]["depth"] == 0
        assert by_name["shards"]["depth"] == by_name["merge"]["depth"] == 1
        assert by_name["shard"]["depth"] == 2
        assert by_name["shard"]["parent"] == "shards"
        assert by_name["shard"]["attributes"] == {"shard": 3}
        # Children close before parents; durations nest accordingly.
        assert by_name["shard"]["duration"] <= by_name["run"]["duration"]

    def test_close_ends_open_spans(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(path)
        tracer.start_span("run")
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["name"] for record in records] == ["run"]


class TestProgress:
    def test_eta_uses_trimmed_mean_over_workers(self):
        eta = estimate_eta([1.0, 1.0, 1.0, 1.0, 100.0], remaining_shards=4,
                           workers=2)
        assert eta == pytest.approx(2.0)

    def test_eta_none_before_first_shard(self):
        assert estimate_eta([], remaining_shards=8) is None

    def test_format_progress_line(self):
        snapshot = ProgressSnapshot(
            done_shards=5, total_shards=16, done_trials=93_750,
            total_trials=300_000, elapsed_seconds=2.05,
            trials_per_second=45_678.0, eta_seconds=3.21,
        )
        line = format_progress(snapshot)
        assert "shards 5/16" in line
        assert "93,750/300,000" in line
        assert "45,678 trials/s" in line
        assert "ETA 3.2s" in line


class TestManifest:
    def _observed_record(self, tmp_path, **knobs):
        observer = RunObserver(manifest=tmp_path / "m.json")
        run_sharded(_sum_kernel, ShardPlan(1000, 8, 11), observer=observer,
                    config=RunConfig(workers=1, **knobs))
        return observer.finish()

    def test_round_trip_write_validate_load(self, tmp_path):
        record = self._observed_record(tmp_path)
        document = load_manifest(tmp_path / "m.json")  # validates internally
        assert document["runs"][0]["plan"] == record["plan"]
        assert len(document["runs"][0]["shards"]) == 8
        assert sum(shard["trials"] for shard in document["runs"][0]["shards"]) == 1000

    def test_appends_runs_atomically(self, tmp_path):
        self._observed_record(tmp_path)
        self._observed_record(tmp_path)
        document = load_manifest(tmp_path / "m.json")
        assert len(document["runs"]) == 2
        assert not list(tmp_path.glob("*.tmp*"))  # no temp droppings

    def test_rejects_torn_or_foreign_files(self, tmp_path):
        target = tmp_path / "m.json"
        target.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(target)
        with pytest.raises(ManifestError):
            write_manifest(target, {})  # refuses to clobber the broken file

    def test_validation_catches_trial_drift(self, tmp_path):
        record = self._observed_record(tmp_path)
        document = load_manifest(tmp_path / "m.json")
        document["runs"][0]["shards"][0]["trials"] += 1
        with pytest.raises(ManifestError, match="sum"):
            validate_manifest(document)
        assert record["plan"]["trials"] == 1000

    @pytest.mark.parametrize("case, scoped", [
        ("error", False), ("exit", False), ("timeout", False),
        ("exit", True), ("timeout", True),
    ], ids=["serial-error", "pooled-exit", "pooled-timeout",
            "scoped-exit", "scoped-timeout"])
    def test_injected_retries_land_in_ledger(self, tmp_path, case, scoped):
        """Regression: injected faults must appear in the manifest.

        A raised fault is an ``error`` entry; a worker exit breaks the
        pool (a ``pool`` entry for it and for any shard lost with it);
        a wedged shard is a ``timeout`` entry.  Both of the latter
        recycle the pool once, and a recycled scope still serves a
        clean call.
        """
        plan, config, faults = {
            "error": (ShardPlan(1000, 8, 11), RunConfig(workers=1, retries=2),
                      ScriptedFaults(failures={2: 1, 5: 1})),
            "exit": (ShardPlan(1000, 3, 11), RunConfig(workers=2, retries=1),
                     ScriptedFaults(failures={2: 1}, kind="exit")),
            "timeout": (ShardPlan(400, 3, 8),
                        RunConfig(workers=2, retries=1, timeout=0.5),
                        _SleepOnFirstAttempt(index=1, seconds=5.0)),
        }[case]
        serial = run_sharded(_sum_kernel, plan, config=RunConfig(workers=1))
        observer = RunObserver(manifest=tmp_path / "m.json")
        with pool_scope() if scoped else nullcontext():
            healed = run_sharded(_sum_kernel, plan, config=config,
                                 fault_injector=faults, observer=observer)
            if scoped:
                assert run_sharded(_sum_kernel, plan,
                                   config=RunConfig(workers=2)) == serial
        assert healed == serial
        record = observer.finish()
        ledger = [(entry["shard"], entry["kind"])
                  for entry in record["retry_ledger"]]
        metrics = record["metrics"]
        recycles = record["execution"]["pool_recycles"]
        assert metrics["run.pool_recycles"]["value"] == recycles
        assert metrics["run.shard_retries"]["value"] == len(ledger)
        retried = {shard["shard"]: shard["attempts"]
                   for shard in record["shards"]}
        if case == "error":
            assert ledger == [(2, "error"), (5, "error")]
            assert recycles == 0
            assert retried[2] == 2 and retried[5] == 2 and retried[0] == 1
        elif case == "exit":
            assert (2, "pool") in ledger
            assert {kind for _, kind in ledger} == {"pool"}
            assert recycles == 1 and retried[2] == 2
        else:
            assert ledger == [(1, "timeout")]
            assert recycles == 1 and retried[1] == 2
            assert metrics["run.shard_timeouts"]["value"] == 1

    def test_checkpoint_resume_recorded_as_lineage(self, tmp_path):
        journal = tmp_path / "ckpt.jsonl"
        run_sharded(_sum_kernel, ShardPlan(1000, 8, 11),
                    config=RunConfig(workers=1, checkpoint=journal))
        # Keep half the journal, resume under observation.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n")
        record = self._observed_record(tmp_path, checkpoint=journal)
        assert record["execution"]["resumed_shards"] == 4
        assert record["execution"]["executed_shards"] == 4
        assert record["checkpoint"]["path"] == str(journal)
        resumed = [shard["shard"] for shard in record["shards"] if shard["resumed"]]
        assert len(resumed) == 4
        assert record["metrics"]["run.shards_resumed"]["value"] == 4


class TestObservationIsInert:
    def test_sharded_results_identical_under_observation(self, tmp_path):
        plain = run_sharded(_sum_kernel, ShardPlan(2000, 8, 3), config=RunConfig(workers=1))
        observer = RunObserver(manifest=tmp_path / "m.json",
                               trace=tmp_path / "t.jsonl",
                               progress=lambda snapshot: None)
        observed = run_sharded(_sum_kernel, ShardPlan(2000, 8, 3), config=RunConfig(workers=1),
                               observer=observer)
        observer.finish()
        assert observed == plain

    def test_estimator_knobs_do_not_change_numbers(self, tmp_path):
        plain = run_bernoulli_trials(_trial, 4000, seed=9, config=RunConfig(shards=8))
        observed = run_bernoulli_trials(
            _trial, 4000, seed=9, config=RunConfig(shards=8, manifest=tmp_path / "m.json",
                                                   trace=tmp_path / "t.jsonl"),
        )
        assert observed == plain
        document = load_manifest(tmp_path / "m.json")
        assert document["runs"][0]["result"]["successes"] == plain.successes

    def test_worker_invariance_with_observer(self, tmp_path):
        serial = run_sharded(_sum_kernel, ShardPlan(2000, 8, 3), config=RunConfig(workers=1))
        observer = RunObserver(manifest=tmp_path / "m.json")
        pooled = run_sharded(_sum_kernel, ShardPlan(2000, 8, 3), config=RunConfig(workers=2),
                             observer=observer)
        record = observer.finish()
        assert pooled == serial
        workers_seen = {shard["worker"] for shard in record["shards"]}
        assert all(pid != os.getpid() for pid in workers_seen)  # ran pooled


class TestLegacySerialPath:
    def test_legacy_run_manifest(self, tmp_path):
        result = run_bernoulli_trials(_trial, 3000, seed=5,
                                      config=RunConfig(manifest=tmp_path / "m.json"))
        plain = run_bernoulli_trials(_trial, 3000, seed=5)
        assert result == plain  # the legacy stream derivation is untouched
        document = load_manifest(tmp_path / "m.json")
        run = document["runs"][0]
        assert run["mode"] == "serial-legacy"
        assert len(run["shards"]) == 1
        assert run["shards"][0]["trials"] == 3000
        assert run["shards"][0]["worker"] == os.getpid()


class TestObserverLifecycle:
    def test_from_options_returns_none_when_all_off(self):
        assert RunObserver.from_options() is None
        assert RunObserver.from_options(progress=False) is None
        assert RunObserver.from_options(progress=True) is not None

    def test_progress_sink_sees_every_shard(self):
        snapshots: list[ProgressSnapshot] = []
        observer = RunObserver(progress=snapshots.append)
        run_sharded(_sum_kernel, ShardPlan(1000, 8, 11), config=RunConfig(workers=1),
                    observer=observer)
        observer.finish()
        assert [snapshot.done_shards for snapshot in snapshots] == list(range(1, 9))
        assert snapshots[-1].done_trials == 1000
        assert snapshots[-1].eta_seconds == pytest.approx(0.0)
