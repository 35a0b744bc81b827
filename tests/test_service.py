"""The estimation service (``repro.service``): queue, dedup, HTTP, resume.

The acceptance property of the whole subsystem is exercised end to end:
two *concurrent identical* submissions produce exactly one shard
computation (asserted through ``service.jobs_deduped`` and the
``run.cache_*`` metrics in the manifest) and hand both clients the same
job — hence byte-identical manifests.  Around that sit unit tests for
the strict wire schemas, the estimator catalogue, the dedup identity
(scheduling knobs must never split it; statistical knobs must), the
priority queue with its rate control, registry persistence, and the
graceful-shutdown → restart → resume contract.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro import RunConfig
from repro.service import (
    ESTIMATORS,
    EstimationService,
    Job,
    JobQueue,
    JobRegistry,
    QueueFull,
    ServiceClient,
    ServiceError,
    job_key,
    parse_submit,
    serve,
    validate_params,
)
from repro.service.server import ROUTES

SMALL = {"estimator": "non_manifestation",
         "params": {"model": "TSO", "trials": 800},
         "config": {"shards": 2}}


# ----------------------------------------------------------------------
# Wire schemas
# ----------------------------------------------------------------------

class TestParseSubmit:
    def test_minimal_submission(self):
        request = parse_submit({"estimator": "non_manifestation"})
        assert request.estimator == "non_manifestation"
        assert request.params == {}
        assert request.priority == 0
        assert request.dedup is True

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submit({"estimator": "x", "paramz": {}})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "unknown-field"

    @pytest.mark.parametrize("knob", ["checkpoint", "cache", "manifest",
                                      "trace", "progress"])
    def test_managed_knobs_rejected(self, knob):
        value = True if knob == "progress" else "/tmp/evil"
        with pytest.raises(ServiceError) as excinfo:
            parse_submit({"estimator": "x", "config": {knob: value}})
        assert excinfo.value.code == "managed-knob"

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submit({"estimator": "x", "config": {"workerz": 2}})
        assert excinfo.value.code == "bad-config"

    def test_priority_must_be_bounded_int(self):
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "priority": "high"})
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "priority": True})
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "priority": 1000})

    def test_dedup_must_be_bool(self):
        with pytest.raises(ServiceError):
            parse_submit({"estimator": "x", "dedup": 1})

    def test_non_object_body_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_submit(["not", "an", "object"])
        assert excinfo.value.code == "bad-body"


# ----------------------------------------------------------------------
# Estimator catalogue + dedup identity
# ----------------------------------------------------------------------

class TestEstimatorCatalogue:
    def test_params_fully_defaulted(self):
        params = validate_params("non_manifestation",
                                 {"model": "TSO", "trials": 100})
        assert params["n"] == 2
        assert params["seed"] == 0
        assert params["confidence"] == 0.99

    def test_unknown_estimator_is_404(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("frobnicate", {})
        assert excinfo.value.status == 404

    def test_unknown_param_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("non_manifestation",
                            {"model": "TSO", "trials": 1, "sharts": 2})
        assert excinfo.value.code == "unknown-param"

    def test_missing_required_param_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("non_manifestation", {"model": "TSO"})
        assert excinfo.value.code == "missing-param"

    def test_bool_is_not_an_int_param(self):
        with pytest.raises(ServiceError) as excinfo:
            validate_params("non_manifestation",
                            {"model": "TSO", "trials": True})
        assert excinfo.value.code == "bad-param"

    def test_every_estimator_describes_itself(self):
        for spec in ESTIMATORS.values():
            description = spec.describe()
            assert description["name"] == spec.name
            json.dumps(description)


class TestJobKey:
    PARAMS = {"model": "TSO", "trials": 1000}

    def key(self, config=RunConfig(), params=None):
        full = validate_params("non_manifestation", params or self.PARAMS)
        return job_key("non_manifestation", full, config)

    def test_scheduling_knobs_never_split_the_key(self):
        base = self.key(RunConfig(shards=4))
        same = self.key(RunConfig(shards=4, workers=2, retries=3,
                                  timeout=60.0, transport="pickle"))
        assert base == same

    def test_statistical_knobs_split_the_key(self):
        base = self.key(RunConfig(shards=4))
        assert base != self.key(RunConfig(shards=8))

    def test_shards_enter_resolved(self):
        # workers=2 with shards unset runs the fixed 16-shard default.
        assert self.key(RunConfig(workers=2)) == self.key(RunConfig(shards=16))
        # The default serial run draws from the root stream itself and
        # shards=1 from its one spawned child: different numbers.
        assert self.key(RunConfig()) != self.key(RunConfig(shards=1))

    def test_omitted_default_equals_explicit_default(self):
        sparse = self.key(params={"model": "TSO", "trials": 1000})
        explicit = self.key(params={"model": "TSO", "trials": 1000,
                                    "n": 2, "seed": 0})
        assert sparse == explicit

    def test_params_split_the_key(self):
        assert (self.key(params={"model": "TSO", "trials": 1000})
                != self.key(params={"model": "WO", "trials": 1000}))
        # canonical_bug's machine is a param, with its default folded in.
        keys = [job_key("canonical_bug",
                        validate_params("canonical_bug", params), RunConfig())
                for params in ({"model": "TSO", "trials": 100},
                               {"model": "TSO", "trials": 100,
                                "backend": "scalar"},
                               {"model": "TSO", "trials": 100,
                                "backend": "vectorized"})]
        assert keys[0] == keys[1] != keys[2]


# ----------------------------------------------------------------------
# Queue + registry
# ----------------------------------------------------------------------

class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        executed: list[str] = []
        done = threading.Event()

        def execute(job_id: str) -> None:
            executed.append(job_id)
            if len(executed) == 4:
                done.set()

        queue = JobQueue(execute, workers=1, max_queued=16)
        queue.submit("low-1", priority=-1)
        queue.submit("high", priority=5)
        queue.submit("mid-a", priority=0)
        queue.submit("mid-b", priority=0)
        queue.start()
        assert done.wait(timeout=10)
        assert executed == ["high", "mid-a", "mid-b", "low-1"]

    def test_queue_full(self):
        queue = JobQueue(lambda job_id: None, workers=1, max_queued=2)
        queue.submit("a")
        queue.submit("b")
        with pytest.raises(QueueFull):
            queue.submit("c")
        queue.submit("forced", force=True)  # resume path bypasses the cap
        assert queue.depth() == 3

    def test_shutdown_returns_leftovers(self):
        queue = JobQueue(lambda job_id: None, workers=1, max_queued=8)
        queue.submit("a", priority=1)
        queue.submit("b", priority=0)
        leftovers = queue.shutdown(drain_seconds=0.1)
        assert leftovers == ["a", "b"]
        with pytest.raises(RuntimeError):
            queue.submit("c")


class TestJobRegistry:
    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "jobs.json"
        registry = JobRegistry(path)
        job = registry.create(key="k1", estimator="non_manifestation",
                              params={"model": "TSO"}, config_wire={},
                              priority=2)
        job.mark_running()
        job.mark_done({"estimate": 0.5})
        registry.save()
        reloaded = JobRegistry.load(path)
        twin = reloaded.get(job.id)
        assert twin.to_wire() == job.to_wire()
        assert reloaded.unfinished() == []

    @staticmethod
    def mint(registry, count):
        return [registry.create(key=f"k{index}", estimator="non_manifestation",
                                params={"model": "TSO", "trials": 100 + index},
                                config_wire={"shards": 2})
                for index in range(count)]

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The ids of the jobs ``Job.to_wire`` is called on."""
        ids = []
        real = Job.to_wire
        monkeypatch.setattr(Job, "to_wire",
                            lambda job: ids.append(job.id) or real(job))
        return ids

    def test_a_save_naming_one_job_encodes_one_job(self, tmp_path, encoded):
        path = tmp_path / "jobs.json"
        registry = JobRegistry(path)
        jobs = self.mint(registry, 50)
        registry.save()
        encoded.clear()
        jobs[7].mark_running()
        registry.save([jobs[7]])
        assert encoded == [jobs[7].id]
        saved = JobRegistry.load(path)
        assert ([job.to_wire() for job in saved.jobs()]
                == [job.to_wire() for job in registry.jobs()])

    def test_the_file_follows_every_kind_of_transition(self, tmp_path):
        path = tmp_path / "jobs.json"
        registry = JobRegistry(path)
        done, deduped, failed = self.mint(registry, 3)
        registry.save([done])
        registry.save([deduped])
        done.mark_running()
        registry.save([done])
        deduped.dedup_hits += 1
        registry.save([deduped])
        done.mark_done({"estimate": 0.25, "counts": {"1": 3, "2": 1}})
        registry.save([done])
        failed.mark_failed("boom")
        registry.save([failed])
        saved = JobRegistry.load(path)
        assert ([job.to_wire() for job in saved.jobs()]
                == [job.to_wire() for job in registry.jobs()])
        assert saved.create(key="k9", estimator="e", params={},
                            config_wire={}).id == "job-00004"

    def test_to_wire_copies_nested_dicts(self):
        job = Job(id="j", key="k", estimator="e", params={"model": "TSO"},
                  config_wire={"shards": 2}, progress={"done_shards": 1},
                  result={"counts": {"1": 3}})
        before = json.dumps(job.to_wire(), sort_keys=True)
        wire = job.to_wire()
        wire["params"]["model"] = "WO"
        wire["config_wire"]["shards"] = 4
        wire["progress"]["done_shards"] = 2
        wire["result"]["counts"]["1"] = 99
        assert json.dumps(job.to_wire(), sort_keys=True) == before

    def test_a_loaded_snapshot_is_written_whole_at_its_first_save(
            self, tmp_path, encoded):
        # The indented layout 7.x wrote; the registry has encoded none of
        # its jobs, so saving after one transition writes every job.
        path = tmp_path / "jobs.json"
        old = JobRegistry()
        jobs = [job.to_wire() for job in self.mint(old, 3)]
        path.write_text(json.dumps(
            {"kind": "repro/service-jobs", "format": 1, "seq": 3,
             "jobs": jobs}, sort_keys=True, indent=1))
        registry = JobRegistry.load(path)
        encoded.clear()
        job = registry.get("job-00002")
        job.mark_running()
        registry.save([job])
        assert sorted(encoded) == ["job-00001", "job-00002", "job-00003"]
        saved = JobRegistry.load(path)
        assert ([job.to_wire() for job in saved.jobs()]
                == [job.to_wire() for job in registry.jobs()])
        assert saved.get("job-00002").state == "running"

    def test_failed_jobs_do_not_absorb_dedup(self, tmp_path):
        registry = JobRegistry()
        job = registry.create(key="k1", estimator="e", params={},
                              config_wire={})
        assert registry.find_dedup_target("k1") is job
        job.mark_failed("boom")
        assert registry.find_dedup_target("k1") is None

    def test_malformed_snapshot_raises(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="snapshot"):
            JobRegistry.load(path)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="state"):
            Job.from_wire({"id": "j", "key": "k", "estimator": "e",
                           "params": {}, "config_wire": {},
                           "state": "paused"})


# ----------------------------------------------------------------------
# The service core (in-process, no HTTP)
# ----------------------------------------------------------------------

def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached")
        time.sleep(0.01)


class TestEstimationService:
    def test_concurrent_identical_submissions_one_computation(self, tmp_path):
        service = EstimationService(tmp_path, job_workers=2)
        responses: list[tuple[dict, int]] = [None, None]

        def submit(index: int) -> None:
            responses[index] = service.submit(dict(SMALL))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        ids = {response[0]["job"]["id"] for response in responses}
        assert len(ids) == 1, "identical submissions must collapse"
        assert sorted(r[0]["deduped"] for r in responses) == [False, True]
        assert sorted(r[1] for r in responses) == [200, 201]
        job_id = ids.pop()
        wait_for(lambda: service.registry.get(job_id).finished)
        result = service.result(job_id)

        metrics = service.metrics.snapshot()
        assert metrics["service.jobs_submitted"]["value"] == 1
        assert metrics["service.jobs_deduped"]["value"] == 1
        assert metrics["service.jobs_completed"]["value"] == 1
        run = result["manifest"]["runs"][0]
        # One computation: every shard executed exactly once, none cached.
        assert run["metrics"]["run.cache_hits"]["value"] == 0
        assert run["execution"]["executed_shards"] == 2
        service.shutdown(drain_seconds=1.0)

    def test_concurrent_family_jobs_match_serial(self, tmp_path):
        """Pooled sweeps on two job threads each hold their own pool."""
        from repro.obs import summarise_result
        from repro.service.estimators import run_estimator, validate_params

        service = EstimationService(tmp_path, job_workers=2)
        jobs = {}
        for model in ("TSO", "PSO"):
            params = {"model": model, "count": 2, "trials": 400}
            response, _ = service.submit({
                "estimator": "litmus_family", "params": params,
                "config": {"workers": 2, "shards": 4}})
            jobs[response["job"]["id"]] = summarise_result(run_estimator(
                "litmus_family", validate_params("litmus_family", params),
                RunConfig(workers=1, shards=4)))
        for job_id, serial in jobs.items():
            wait_for(lambda: service.registry.get(job_id).finished,
                     timeout=120)
            assert service.registry.get(job_id).state == "done"
            assert (json.dumps(service.result(job_id)["result"], sort_keys=True)
                    == json.dumps(serial, sort_keys=True))
        service.shutdown(drain_seconds=1.0)

    def test_default_and_one_shard_configs_are_two_jobs(self, tmp_path):
        """``{}`` runs the default serial plan and ``{"shards": 1}`` a
        spawned one-shard plan: two jobs, each with its library number,
        and the default one journals and caches like any job."""
        from repro.core import TSO, estimate_non_manifestation

        service = EstimationService(tmp_path, job_workers=1)
        params = {"model": "TSO", "trials": 20_000, "seed": 3}
        ids = []
        for config in ({}, {"shards": 1}):
            response, status = service.submit({
                "estimator": "non_manifestation", "params": params,
                "config": config})
            assert status == 201 and not response["deduped"]
            ids.append(response["job"]["id"])
        successes = []
        for job_id, config in zip(ids, (RunConfig(), RunConfig(shards=1))):
            wait_for(lambda: service.registry.get(job_id).finished,
                     timeout=120)
            result = service.result(job_id)
            successes.append(result["result"]["successes"])
            assert successes[-1] == estimate_non_manifestation(
                TSO, 2, 20_000, seed=3, body_length=8,
                config=config).successes
            (run,) = result["manifest"]["runs"]
            assert run["plan"]["key"] is not None
            assert run["checkpoint"] is not None
            assert run["metrics"]["run.cache_stored"]["value"] == 1
        assert successes == [2651, 2713]
        service.shutdown(drain_seconds=1.0)

    def test_canonical_bug_default_and_one_shard_are_two_computations(
            self, tmp_path):
        """Every estimator plans ``{}`` as the root-stream run, so the two
        jobs ``{}`` and ``{"shards": 1}`` of ``canonical_bug`` are two
        computations, each returning its own library number."""
        from repro.sim import run_canonical_bug

        service = EstimationService(tmp_path, job_workers=1)
        params = {"model": "TSO", "trials": 400}
        values = []
        for config, engine in (({}, RunConfig()),
                               ({"shards": 1}, RunConfig(shards=1))):
            response, status = service.submit({
                "estimator": "canonical_bug", "params": params,
                "config": config})
            assert status == 201
            job_id = response["job"]["id"]
            wait_for(lambda: service.registry.get(job_id).finished)
            values.append(service.result(job_id)["result"]["final_values"])
            library = run_canonical_bug("TSO", 2, 400, config=engine)
            assert values[-1] == {str(value): count for value, count
                                  in sorted(library.final_values.items())}
        assert values[0] != values[1]
        service.shutdown(drain_seconds=1.0)

    def test_the_snapshot_equals_the_live_registry(self, tmp_path,
                                                   monkeypatch):
        """Each save encodes only the job it names, yet after a submit, a
        dedup hit, a job run to done, a failed job and a shutdown with a
        job still queued, the file holds every job as the server does."""
        from repro.service import server as server_module

        gate = threading.Event()
        real = server_module.run_estimator

        def scripted(estimator, params, config):
            if params["trials"] == 900:
                raise RuntimeError("scripted failure")
            if params["trials"] == 700:
                assert gate.wait(timeout=30)
            return real(estimator, params, config)

        monkeypatch.setattr(server_module, "run_estimator", scripted)
        service = EstimationService(tmp_path, job_workers=1)

        def submit(trials):
            payload = dict(SMALL, params={"model": "TSO", "trials": trials})
            return service.submit(payload)[0]["job"]["id"]

        done = submit(800)
        wait_for(lambda: service.registry.get(done).finished)
        assert submit(800) == done
        failed = submit(900)
        wait_for(lambda: service.registry.get(failed).finished)
        drained = submit(700)
        wait_for(lambda: service.registry.get(drained).state == "running")
        queued = submit(600)
        stopper = threading.Thread(target=service.shutdown,
                                   kwargs={"drain_seconds": 30.0})
        stopper.start()
        # The queue is closed once its heap is empty: the worker is still
        # held by the gate, so the queued job never starts.
        wait_for(lambda: service.queue.depth() == 0)
        gate.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()

        live = {job.id: job.to_wire() for job in service.registry.jobs()}
        assert {job_id: wire["state"] for job_id, wire in live.items()} == {
            done: "done", failed: "failed", drained: "done",
            queued: "queued"}
        assert live[done]["dedup_hits"] == 1
        saved = JobRegistry.load(tmp_path / "jobs.json")
        assert {job.id: job.to_wire() for job in saved.jobs()} == live

    def test_warm_resubmission_hits_the_shard_cache(self, tmp_path):
        service = EstimationService(tmp_path, job_workers=1)
        cold, _ = service.submit(dict(SMALL))
        cold_id = cold["job"]["id"]
        wait_for(lambda: service.registry.get(cold_id).finished)

        warm_payload = dict(SMALL, dedup=False)
        warm, status = service.submit(warm_payload)
        assert status == 201 and warm["deduped"] is False
        warm_id = warm["job"]["id"]
        assert warm_id != cold_id
        wait_for(lambda: service.registry.get(warm_id).finished)

        cold_result = service.result(cold_id)
        warm_result = service.result(warm_id)
        warm_run = warm_result["manifest"]["runs"][0]
        assert warm_run["metrics"]["run.cache_hits"]["value"] == 2
        assert warm_run["execution"]["executed_shards"] == 0
        assert warm_result["result"] == cold_result["result"]
        service.shutdown(drain_seconds=1.0)

    def test_failed_job_reports_and_counts(self, tmp_path, monkeypatch):
        # Every bad param value is refused at submit, so the failure is
        # one the estimator raises while it runs.
        def broken(estimator, params, config):
            raise RuntimeError("the estimator broke mid-run")

        monkeypatch.setattr("repro.service.server.run_estimator", broken)
        service = EstimationService(tmp_path, job_workers=1)
        response, _ = service.submit(dict(SMALL))
        job_id = response["job"]["id"]
        wait_for(lambda: service.registry.get(job_id).finished)
        assert service.registry.get(job_id).state == "failed"
        assert service.metrics.snapshot()["service.jobs_failed"]["value"] == 1
        with pytest.raises(ServiceError) as excinfo:
            service.result(job_id)
        assert excinfo.value.code == "job-failed"
        service.shutdown(drain_seconds=1.0)

    def test_result_before_finish_is_conflict(self, tmp_path):
        service = EstimationService(tmp_path, start=False)
        response, _ = service.submit(dict(SMALL))
        with pytest.raises(ServiceError) as excinfo:
            service.result(response["job"]["id"])
        assert excinfo.value.code == "not-finished"
        service.shutdown(drain_seconds=0.1)

    def test_rate_control_rejects_with_429(self, tmp_path):
        service = EstimationService(tmp_path, start=False, max_queued=1)
        service.submit(dict(SMALL))
        overflow = {"estimator": "non_manifestation",
                    "params": {"model": "WO", "trials": 50}}
        with pytest.raises(ServiceError) as excinfo:
            service.submit(overflow)
        assert excinfo.value.status == 429
        metrics = service.metrics.snapshot()
        assert metrics["service.jobs_rejected"]["value"] == 1
        service.shutdown(drain_seconds=0.1)

    def test_server_default_config_must_not_carry_managed_knobs(self, tmp_path):
        with pytest.raises(ValueError, match="must not set"):
            EstimationService(tmp_path, start=False,
                              default_config=RunConfig(cache="auto"))

    def test_shutdown_then_restart_resumes_and_completes(self, tmp_path):
        # Accept a job but never start the worker pool: the shutdown
        # must persist it as queued, and a fresh service on the same
        # state directory must re-enqueue and finish it.
        first = EstimationService(tmp_path, start=False)
        response, _ = first.submit(dict(SMALL))
        job_id = response["job"]["id"]
        first.shutdown(drain_seconds=0.1)
        snapshot = json.loads((tmp_path / "jobs.json").read_text())
        assert [(j["id"], j["state"]) for j in snapshot["jobs"]] == [
            (job_id, "queued")]

        second = EstimationService(tmp_path, job_workers=1)
        metrics = second.metrics.snapshot()
        assert metrics["service.jobs_resumed"]["value"] == 1
        wait_for(lambda: second.registry.get(job_id).finished)
        assert second.registry.get(job_id).state == "done"
        result = second.result(job_id)
        assert result["result"]["trials"] == SMALL["params"]["trials"]
        second.shutdown(drain_seconds=1.0)

    def test_jobs_queued_under_3x_resume_after_the_upgrade(self, tmp_path):
        # Every 3.x config_wire held the two knobs 4.0 removed.  At their
        # old defaults they are dropped on load and the job runs; any
        # other value fails that job, naming the knob.
        from repro.obs.manifest import summarise_result
        from repro.service.estimators import run_estimator

        spawn = dict(RunConfig(shards=2).to_json_dict(), rng_plan="spawn",
                     fingerprint=None)
        params = validate_params("non_manifestation", SMALL["params"])
        jobs = [Job(id=f"job-0000{index}", key=f"k{index}",
                    estimator="non_manifestation", params=params,
                    config_wire=wire).to_wire()
                for index, wire in ((1, spawn),
                                    (2, dict(spawn, rng_plan="philox")))]
        (tmp_path / "jobs.json").write_text(json.dumps(
            {"kind": "repro/service-jobs", "format": 1, "seq": 2,
             "jobs": jobs}))
        service = EstimationService(tmp_path, job_workers=1)
        wait_for(lambda: service.registry.get("job-00001").finished)
        assert service.registry.get("job-00001").state == "done"
        fresh = run_estimator("non_manifestation", params,
                              RunConfig(shards=2))
        assert service.result("job-00001")["result"] \
            == json.loads(json.dumps(summarise_result(fresh)))
        philox = service.registry.get("job-00002")
        assert philox.state == "failed"
        assert "rng_plan" in philox.error and "4.0" in philox.error
        service.shutdown(drain_seconds=1.0)

    def test_fused_jobs_queued_under_4x_fail_after_the_upgrade(self, tmp_path):
        # 5.0 removed backend="fused" and 6.0 the backend knob.  A job a
        # 4.x server left queued with it fails on its own, naming the
        # backend; its neighbour still runs.
        params = validate_params("non_manifestation", SMALL["params"])
        jobs = [Job(id=f"job-0000{index}", key=f"k{index}",
                    estimator="non_manifestation", params=params,
                    config_wire=dict(RunConfig(shards=2).to_json_dict(),
                                     backend=backend)
                    ).to_wire()
                for index, backend in ((1, "fused"), (2, None))]
        (tmp_path / "jobs.json").write_text(json.dumps(
            {"kind": "repro/service-jobs", "format": 1, "seq": 2,
             "jobs": jobs}))
        service = EstimationService(tmp_path, job_workers=1)
        wait_for(lambda: all(service.registry.get(f"job-0000{index}").finished
                             for index in (1, 2)))
        fused = service.registry.get("job-00001")
        assert fused.state == "failed"
        assert "fused" in fused.error
        assert service.registry.get("job-00002").state == "done"
        service.shutdown(drain_seconds=1.0)

    def test_jobs_queued_under_5x_resume_or_fail_after_the_upgrade(
            self, tmp_path):
        # Every 5.x config_wire held "backend".  A null one is dropped on
        # load and the job runs; a job that named a kernel fails, naming
        # the knob — a canonical_bug client resubmits with params.backend.
        wire = RunConfig(shards=2).to_json_dict()
        jobs = [Job(id=f"job-0000{index}", key=f"k{index}",
                    estimator=estimator,
                    params=validate_params(estimator, params),
                    config_wire=dict(wire, backend=backend)).to_wire()
                for index, estimator, params, backend in (
                    (1, "non_manifestation", SMALL["params"], None),
                    (2, "non_manifestation", SMALL["params"], "vectorized"),
                    (3, "canonical_bug", {"model": "TSO", "trials": 100},
                     "vectorized"))]
        (tmp_path / "jobs.json").write_text(json.dumps(
            {"kind": "repro/service-jobs", "format": 1, "seq": 3,
             "jobs": jobs}))
        service = EstimationService(tmp_path, job_workers=1)
        wait_for(lambda: service.registry.get("job-00001").finished)
        assert service.registry.get("job-00001").state == "done"
        assert "backend" not in service.registry.get("job-00001").config_wire
        for job_id in ("job-00002", "job-00003"):
            job = service.registry.get(job_id)
            assert job.state == "failed"
            assert "'backend' was removed in 6.0" in job.error
            assert "vectorized" in job.error
        service.shutdown(drain_seconds=1.0)

    def test_submissions_refused_while_shutting_down(self, tmp_path):
        service = EstimationService(tmp_path, start=False)
        service.shutdown(drain_seconds=0.1)
        with pytest.raises(ServiceError) as excinfo:
            service.submit(dict(SMALL))
        assert excinfo.value.status == 503


# ----------------------------------------------------------------------
# The HTTP front end
# ----------------------------------------------------------------------

@pytest.fixture
def http_service(tmp_path):
    server = serve("127.0.0.1", 0, tmp_path, job_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()
        server.service.shutdown(drain_seconds=1.0)


class TestHTTP:
    def test_health_and_estimators(self, http_service):
        health = http_service.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == 1
        names = [spec["name"] for spec in http_service.estimators()]
        assert names == sorted(ESTIMATORS)

    def test_submit_poll_result_lifecycle(self, http_service):
        submitted = http_service.submit(
            "non_manifestation", {"model": "TSO", "trials": 800},
            config={"shards": 2})
        job_id = submitted["job"]["id"]
        final = http_service.wait(job_id)
        assert final["state"] == "done"
        result = http_service.result(job_id)
        assert result["result"]["type"] == "BernoulliResult"
        assert result["manifest"]["kind"] == "repro/run-manifest"
        jobs = http_service.jobs()
        assert [job["id"] for job in jobs] == [job_id]

    def test_error_statuses(self, http_service):
        with pytest.raises(ServiceError) as excinfo:
            http_service.job("job-99999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            http_service._request("GET", "/v1/nope")
        assert excinfo.value.code == "unknown-route"
        with pytest.raises(ServiceError) as excinfo:
            http_service._request("POST", "/v1/health", {})
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            http_service.submit("nope", {})
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("length, code", [
        ("abc", "bad-length"), ("1.5", "bad-length"), ("-1", "bad-length"),
        (str(2 << 20), "body-too-large"),
    ])
    def test_unreadable_body_is_a_400_and_closes(self, http_service, length,
                                                 code):
        """Answered before any read, then the connection closes (the
        unread body cannot be framed): ``-1`` once blocked the handler in
        ``rfile.read(-1)``, and ``abc``/``1.5`` leaked a ``ValueError``
        through a 500."""
        address = urlsplit(http_service.base_url)
        # No body bytes: closing a socket with unread input resets it.
        request = (f"POST /v1/jobs HTTP/1.1\r\nHost: {address.netloc}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {length}\r\n\r\n")
        with socket.create_connection((address.hostname, address.port),
                                      timeout=1.0) as connection:
            connection.sendall(request.encode("ascii"))
            reply = b""
            while chunk := connection.recv(4096):  # the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error["code"] == code
        assert "ValueError" not in error["message"]

    @pytest.mark.parametrize("removed", [{"rng_plan": "spawn"},
                                         {"fingerprint": "ab"}],
                             ids=["rng_plan", "fingerprint"])
    def test_knobs_removed_in_4_0_are_bad_config(self, http_service,
                                                 removed):
        with pytest.raises(ServiceError) as excinfo:
            http_service.submit("non_manifestation",
                                {"model": "TSO", "trials": 800},
                                config=removed)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-config"

    def test_fused_backend_removed_in_5_0_is_bad_config(self, http_service):
        # 6.0 removed the backend knob itself: every value is refused.
        for backend in ("fused", "vectorized"):
            with pytest.raises(ServiceError) as excinfo:
                http_service.submit("non_manifestation",
                                    {"model": "TSO", "trials": 800},
                                    config={"backend": backend})
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad-config"
            assert "backend" in str(excinfo.value)
        assert http_service.jobs() == []

    @pytest.mark.parametrize("estimator, params, message", [
        ("non_manifestation", {"model": "TSO", "trials": 800,
                               "store_probability": 1.5},
         "store_probability"),
        ("non_manifestation", {"model": "TSO", "trials": 800,
                               "body_length": -1}, "body_length"),
        ("non_manifestation", {"model": "TSO", "trials": 800, "n": 1},
         "n >= 2"),
        ("non_manifestation", {"model": "XYZ", "trials": 800}, "XYZ"),
        ("non_manifestation", {"model": "TSO", "trials": 800,
                               "confidence": 1.5}, "confidence"),
        ("canonical_bug", {"model": "TSO", "trials": 0},
         "trials must be positive"),
        ("canonical_bug", {"model": "XYZ", "trials": 100},
         "no core model named 'XYZ'"),
        ("canonical_bug", {"model": "TSO", "trials": 100, "fenced": True,
                           "atomic": True}, "mutually exclusive"),
        ("litmus_explore", {"test": "SB", "model": "TSO", "mode": "bogus"},
         "'mode' must be"),
        ("litmus_explore", {"test": "NOPE", "model": "TSO"},
         "unknown litmus test 'NOPE'"),
        ("litmus_explore", {"test": "SB", "model": "TSO", "mode": "random",
                            "trials": 0}, "trials must be positive"),
        ("litmus_explore", {"test": "2+2W", "model": "WO-NMCA"}, "WO-NMCA"),
        ("litmus_explore", {"test": "2+2W", "model": "WO-NMCA",
                            "mode": "random", "trials": 100}, "WO-NMCA"),
        ("litmus_family", {"model": "TSO", "threads": 1},
         "at least 2 threads"),
        ("litmus_family", {"model": "TSO", "count": 0}, ">= 1 member"),
        ("canonical_bug", {"model": "TSO", "trials": 100, "backend": "gpu"},
         "unknown backend 'gpu'"),
        ("canonical_bug", {"model": "WO", "trials": 100,
                           "backend": "vectorized"}, "'WO' needs"),
    ], ids=["store_probability", "body_length", "n", "model", "confidence",
            "trials", "machine-model", "fenced-atomic", "mode", "test",
            "random-trials", "observed-memory", "observed-memory-random",
            "threads", "count", "backend", "WO-vectorized"])
    def test_bad_param_values_are_refused_at_submit(self, http_service,
                                                    estimator, params,
                                                    message):
        with pytest.raises(ServiceError) as excinfo:
            http_service.submit(estimator, params)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-param"
        assert message in str(excinfo.value)
        assert http_service.jobs() == []

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_is_bad_config(self, http_service, timeout):
        # The client's json.dumps writes NaN/Infinity, which the server's
        # json.loads accepts: the config check is the only gate.
        with pytest.raises(ServiceError) as excinfo:
            http_service.submit("non_manifestation",
                                {"model": "TSO", "trials": 800},
                                config={"timeout": timeout})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-config"

    def test_metrics_route_exposes_catalogue_names(self, http_service):
        http_service.submit("non_manifestation",
                            {"model": "TSO", "trials": 800},
                            config={"shards": 2})
        metrics = http_service.metrics()
        assert metrics["service.jobs_submitted"]["value"] == 1
        assert "service.queue_depth" in metrics


def test_route_table_shape():
    assert len(ROUTES) == len({(m, p) for m, p, _ in ROUTES})
    for method, path, summary in ROUTES:
        assert method in ("GET", "POST")
        assert path.startswith("/v1/")
        assert summary
