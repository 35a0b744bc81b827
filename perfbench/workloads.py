"""The four benchmark workloads.

Each workload is a function ``(ctx) -> Tally``.  It runs passes of
fixed work until the time budget is spent, checks every output, and
fills the tally with end-to-end samples and, on a traced run, the
per-layer numbers.  Every input derives from ``ctx.seed``.

* ``mc-thm62`` -- ``repro thm62`` as a subprocess;
* ``litmus-family`` -- ``repro litmus generate`` as a subprocess;
* ``litmus-exhaustive`` -- ``explore_exhaustive(generate_family(...))``
  through the public API, in a subprocess (``entry.py``);
* ``service-mixed`` -- ``repro serve`` as a subprocess, driven over HTTP
  by a closed loop of one client in this process.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "entry.py"
WORKERS = 2
PASS_TIMEOUT = 60.0
MODELS = ("SC", "TSO", "PSO", "WO")
#: Served jobs are sharded so that their shards are cached: the default
#: single-stream serial path bypasses the shard cache.
SERVICE_SHARDS = 4

#: Generated litmus programs.  Fences are left out: a fence lengthens
#: its thread, and ``legal_reorderings`` is factorial in thread length,
#: so with ``--fence-density 0.25`` the cost of one family varies more
#: than thirtyfold from seed to seed.
FAMILY_SPEC = {"threads": 2, "ops_per_thread": 5, "spacing": 1,
               "fence_density": 0.0}
FAMILY_MODELS = ("TSO", "PSO", "PSO-WB", "WO-NMCA")
#: The exhaustive workload uses four operations per thread and sizes each
#: family by a quota of interleaving searches (the sum over its grid
#: points of the product of per-thread ``legal_reorderings`` counts), so
#: that every seed asks for about the same amount of search.
EXHAUSTIVE_SPEC = {"threads": 2, "ops_per_thread": 4, "spacing": 1,
                   "fence_density": 0.0}
EXHAUSTIVE_MODELS = ("TSO", "PSO", "WO", "PSO-WB")

#: Sizes per pass: (full run, smoke run).
SIZES = {
    "thm62_trials": (200_000, 2_000),
    "family_trials": (2_500, 100),
    "exhaustive_orderings": (8_000, 300),
    "service_jobs": (120, 8),
    "service_trials": (20_000, 2_000),
}


@dataclass
class Tally:
    """What one workload run measured."""

    work_name: str
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    self_seconds: dict[str, float] = field(default_factory=dict)
    spans: list[spans.Span] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    root: Path
    work: Path
    started: float = field(default_factory=time.monotonic)
    _passes: int = 0

    @property
    def env(self) -> dict[str, str]:
        src = str(self.root / "src")
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ,
                    PYTHONPATH=src + (os.pathsep + path if path else ""),
                    REPRO_CACHE_DIR=str(self.work / "repro-cache"),
                    REPRO_SERVICE_DIR=str(self.work / "repro-service"))

    def size(self, name: str) -> int:
        return SIZES[name][1 if self.smoke else 0]

    def schedule(self):
        """Yield ``(seed, traced)`` passes until the budget is spent.

        Each pass draws a fresh input seed.  An untraced run ends by
        repeating the first seed, whose output must then be
        byte-identical; a traced run runs every seed untraced and then
        traced, which also yields the tracing overhead pair by pair.
        """
        rng = random.Random(self.seed)
        minimum = 1 if self.smoke else (2 if self.trace else 3)
        first = None
        count = 0
        while True:
            seed = rng.randrange(1 << 31)
            first = seed if first is None else first
            began = time.monotonic()
            yield seed, False
            if self.trace:
                yield seed, True
            count += 1
            elapsed = time.monotonic() - self.started
            if count >= minimum and elapsed + (time.monotonic() - began) > self.seconds:
                break
        if not self.trace:
            yield first, False

    def entry(self, job: dict, traced: bool) -> tuple[list[str], Path]:
        """The ``entry.py`` command for ``job``, and its record's path.

        Call it just before starting the process: it stamps ``spawned``.
        """
        self._passes += 1
        record_path = self.work / f"pass-{self._passes}.json"
        job = dict(job, record=str(record_path),
                   trace=(f"seed-{self.seed}-pass-{self._passes}"
                          if traced else None))
        job["spawned"] = time.monotonic()
        return [sys.executable, str(ENTRY), json.dumps(job)], record_path

    def run_pass(self, job: dict, traced: bool) -> tuple[subprocess.CompletedProcess, dict | None]:
        """Run ``entry.py`` on ``job``; returns the process and its record."""
        command, record_path = self.entry(job, traced)
        # A session of its own, so a pass that hangs is killed together
        # with its pool workers.
        with subprocess.Popen(command, cwd=self.root, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=PASS_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                stdout, stderr = child.communicate()
        proc = subprocess.CompletedProcess(child.args, child.returncode,
                                           stdout, stderr)
        record = None
        if proc.returncode == 0 and record_path.exists():
            record = json.loads(record_path.read_text(encoding="utf-8"))
        return proc, record


# ----------------------------------------------------------------------
# Shared pass bookkeeping
# ----------------------------------------------------------------------


def _manifest_runs(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def _busy(runs: list[dict]) -> tuple[float, int]:
    """In-worker seconds of executed shards, and the trials of the runs."""
    seconds = sum(shard["seconds"] for run in runs for shard in run["shards"]
                  if not shard["resumed"])
    trials = sum(run["plan"]["trials"] for run in runs)
    return seconds, trials


class Passes:
    """Collects timed passes and turns traced ones into layer metrics."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.totals: dict[int, tuple[float, float]] = {}   # seed -> (untraced, traced)
        self.layer_samples: dict[str, list[float]] = {}
        self.self_samples: dict[str, list[float]] = {}

    def timed(self, record: dict, seed: int, traced: bool,
              work: float) -> None:
        """Record a pass that did ``work`` units of work."""
        marks = record["marks"]
        total = marks["done"] - marks["spawned"]
        untraced, traced_total = self.totals.get(seed, (0.0, 0.0))
        self.totals[seed] = ((untraced, total) if traced
                             else (total, traced_total))
        if traced:
            return
        wall = marks["done"] - marks["ready"]
        self.tally.add("setup_s", marks["ready"] - marks["spawned"])
        self.tally.add("wall_s", wall)
        self.tally.add("job_ms", total * 1000.0)
        self.tally.add("work_per_s", work / wall)
        self.tally.add("peak_rss_mb", record["peak_rss_mb"])

    def layer(self, name: str, value: float) -> None:
        self.layer_samples.setdefault(name, []).append(value)

    def traced(self, record: dict, runs: list[dict]) -> None:
        """Per-layer numbers of one traced pass (spans + manifest runs)."""
        found = [spans.Span.from_json(row) for row in record["spans"]]
        self.tally.spans.extend(found)
        marks = record["marks"]

        def total(*names: str) -> float:
            return sum(span.seconds for span in found if span.name in names)

        run_sharded = total("parallel.run_sharded")
        pooled = run_sharded + total("parallel.parallel_map")
        busy, _ = _busy(runs)
        kernel_busy, kernel_trials = _busy(
            [run for run in runs if run["label"].startswith("nonmanifestation")])
        explore_busy, explore_trials = _busy(
            [run for run in runs if run["label"].startswith("litmus-explore:")])
        sweeps = {span.id for span in found if span.name == "generate.sweep"}
        self.layer("cli.import_s", total("cli.import", "cli.build_parser"))
        self.layer("runconfig.resolve_ms", 1000.0 * total("runconfig.resolve"))
        self.layer("parallel.run_sharded_s", run_sharded)
        self.layer("parallel.run_sharded_calls",
                   sum(span.name == "parallel.run_sharded" for span in found))
        self.layer("parallel.plan_ms", 1000.0 * total("parallel.plan"))
        self.layer("parallel.shard_busy_s", busy)
        self.layer("parallel.worker_busy_ratio",
                   busy / (WORKERS * pooled) if pooled else 0.0)
        self.layer("transport.unpack_ms", 1000.0 * total("transport.unpack"))
        self.layer("kernels.trials_per_busy_s",
                   kernel_trials / kernel_busy if kernel_busy else 0.0)
        self.layer("core.closed_form_ms", 1000.0 * total("core.closed_form"))
        self.layer("explore.trials_per_busy_s",
                   explore_trials / explore_busy if explore_busy else 0.0)
        self.layer("generate.family_ms", 1000.0 * total("generate.family"))
        self.layer("generate.sc_enumerate_ms", 1000.0 * sum(
            span.seconds for span in found
            if span.name == "enumerator.enumerate" and span.parent in sweeps))
        self.layer("unattributed_fraction", 1.0 - spans.covered_seconds(
            found, marks["spawned"], marks["done"]) / (marks["done"] - marks["spawned"]))
        for layer, seconds in spans.self_seconds(found).items():
            self.self_samples.setdefault(layer, []).append(seconds)

    def finish(self) -> None:
        for name, values in self.layer_samples.items():
            self.tally.layers[name] = statistics.median(values)
        for layer, values in self.self_samples.items():
            self.tally.self_seconds[layer] = statistics.median(values)
        ratios = [traced / untraced for untraced, traced in self.totals.values()
                  if untraced and traced]
        if ratios:
            self.tally.layers["trace_overhead"] = statistics.median(ratios) - 1.0


# ----------------------------------------------------------------------
# mc-thm62 and litmus-family: the repro command itself
# ----------------------------------------------------------------------


def _cli_workload(ctx: Context, tally: Tally, argv_for, check) -> None:
    """Run ``repro <argv_for(seed)>`` per scheduled pass and check it."""
    passes = Passes(tally)
    outputs: dict[int, str] = {}
    for seed, traced in ctx.schedule():
        argv = argv_for(seed)
        manifest = ctx.work / f"manifest-{seed}-{int(traced)}.json"
        if traced:
            argv = argv + ["--manifest", str(manifest)]
        proc, record = ctx.run_pass({"kind": "cli", "argv": argv}, traced)
        attempted, failed, work = check(proc.stdout if record else "")
        tally.attempted += attempted
        if record is None:
            tally.fail(attempted, f"seed {seed}: exit {proc.returncode}: "
                                  f"{proc.stderr.strip()[-300:]}")
            continue
        if failed:
            tally.fail(failed, f"seed {seed}: {failed} wrong outputs")
        elif outputs.setdefault(seed, proc.stdout) != proc.stdout:
            tally.fail(attempted, f"seed {seed}: output differs between runs")
        passes.timed(record, seed, traced, work)
        if traced:
            passes.traced(record, _manifest_runs(manifest))
    passes.finish()


def _thm62_rows(stdout: str) -> dict[str, tuple[float, float]]:
    """``model -> (closed form Pr[A], Monte-Carlo estimate)``."""
    rows = {}
    for line in stdout.splitlines():
        cells = line.split()
        if len(cells) == 5 and cells[0] in MODELS:
            rows[cells[0]] = (float(cells[1]), float(cells[3]))
    return rows


def mc_thm62(ctx: Context) -> Tally:
    tally = Tally("trials_per_s")
    trials = ctx.size("thm62_trials")

    def argv_for(seed: int) -> list[str]:
        return ["thm62", "--trials", str(trials), "--seed", str(seed),
                "--workers", str(WORKERS), "--shards", "16"]

    def check(stdout: str) -> tuple[int, int, float]:
        # The table's own "agrees" column is a 99% interval test: over
        # four models and a dozen passes a correct program would fail it
        # in about a third of the runs.  Five standard errors (plus the
        # printed rounding) separate a biased kernel from chance.
        rows = _thm62_rows(stdout)
        failed = 0
        for model in MODELS:
            exact, estimate = rows.get(model, (0.0, 1.0))
            tolerance = 5 * math.sqrt(exact * (1 - exact) / trials) + 1e-6
            failed += not abs(estimate - exact) <= tolerance
        return len(MODELS), failed, float(trials * len(MODELS))

    _cli_workload(ctx, tally, argv_for, check)
    return tally


def _family_report(stdout: str) -> dict | None:
    lines = stdout.splitlines()
    if "{" not in lines:
        return None
    try:
        return json.loads("\n".join(lines[lines.index("{"):]))
    except json.JSONDecodeError:
        return None


def litmus_family(ctx: Context) -> Tally:
    tally = Tally("trials_per_s")
    trials = ctx.size("family_trials")
    count = 4
    points = count * len(FAMILY_MODELS)

    def argv_for(seed: int) -> list[str]:
        return ["litmus", "generate",
                "--threads", str(FAMILY_SPEC["threads"]),
                "--ops-per-thread", str(FAMILY_SPEC["ops_per_thread"]),
                "--spacing", str(FAMILY_SPEC["spacing"]),
                "--fence-density", str(FAMILY_SPEC["fence_density"]),
                "--count", str(count), "--models", *FAMILY_MODELS,
                "--trials", str(trials), "--seed", str(seed),
                "--workers", str(WORKERS), "--json", "-"]

    def check(stdout: str) -> tuple[int, int, float]:
        report = _family_report(stdout)
        if report is None or len(report["points"]) != points:
            return points, points, float(trials * points)
        failed = sum(not (point["low"] <= point["manifestation"] <= point["high"])
                     or point["trials"] != trials
                     for point in report["points"])
        return points, failed, float(trials * points)

    _cli_workload(ctx, tally, argv_for, check)
    return tally


# ----------------------------------------------------------------------
# litmus-exhaustive: the public API
# ----------------------------------------------------------------------


def _exhaustive_family(seed: int, quota: int) -> tuple[int, int]:
    """The shortest family prefix reaching ``quota`` searches, and its size.

    Returns ``(count, orderings)``: ``orderings`` sums, over every
    (member, model) point, the product of the per-thread
    ``legal_reorderings`` counts -- the number of interleaving searches
    ``enumerate_outcomes`` runs for that point.
    """
    from repro.litmus import (FamilySpec, family_member, get_zoo_model,
                              legal_reorderings)

    spec = FamilySpec(**EXHAUSTIVE_SPEC)
    models = [get_zoo_model(name) for name in EXHAUSTIVE_MODELS]
    count = orderings = 0
    while orderings < quota:
        member = family_member(spec, seed, count)
        for model in models:
            product = 1
            for program in member.programs:
                product *= len(legal_reorderings(program, model))
            orderings += product
        count += 1
    return count, orderings


def _subset_failures(outcomes: dict[str, list], count: int) -> int:
    """Points breaking SC <= TSO <= PSO <= WO or PSO-WB == PSO."""
    names = sorted({key.rsplit("/", 1)[0] for key in outcomes})
    if len(names) != count:
        return count * len(EXHAUSTIVE_MODELS)
    failed = 0
    for name in names:
        sets = {model: {json.dumps(outcome) for outcome in outcomes[f"{name}/{model}"]}
                for model in ("SC", *EXHAUSTIVE_MODELS)}
        failed += not sets["SC"] <= sets["TSO"]
        failed += not sets["TSO"] <= sets["PSO"]
        failed += not sets["PSO"] <= sets["WO"]
        failed += sets["PSO-WB"] != sets["PSO"]
    return failed


def litmus_exhaustive(ctx: Context) -> Tally:
    tally = Tally("orderings_per_s")
    quota = ctx.size("exhaustive_orderings")
    passes = Passes(tally)
    outputs: dict[int, dict] = {}
    for seed, traced in ctx.schedule():
        count, orderings = _exhaustive_family(seed, quota)
        points = count * len(EXHAUSTIVE_MODELS)
        manifest = ctx.work / f"manifest-{seed}-{int(traced)}.json"
        job = {"kind": "exhaustive", "spec": EXHAUSTIVE_SPEC, "count": count,
               "seed": seed, "models": list(EXHAUSTIVE_MODELS),
               "workers": WORKERS, "manifest": str(manifest) if traced else None}
        proc, record = ctx.run_pass(job, traced)
        tally.attempted += points
        if record is None:
            tally.fail(points, f"seed {seed}: exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
            continue
        failed = _subset_failures(record["outcomes"], count)
        if failed:
            tally.fail(failed, f"seed {seed}: {failed} points break the "
                               "model inclusions")
        elif outputs.setdefault(seed, record["outcomes"]) != record["outcomes"]:
            tally.fail(points, f"seed {seed}: outcome sets differ between runs")
        passes.timed(record, seed, traced, float(orderings))
        if not traced:
            continue
        runs = _manifest_runs(manifest)
        passes.traced(record, runs)
        grid = [run for run in runs if run["label"] == "litmus-explore"]
        point_seconds = dict.fromkeys(EXHAUSTIVE_MODELS, 0.0)
        for run in grid:
            for shard in run["shards"]:
                model = EXHAUSTIVE_MODELS[shard["shard"] % len(EXHAUSTIVE_MODELS)]
                point_seconds[model] += shard["seconds"]
        for model, seconds in point_seconds.items():
            passes.layer(f"enumerator.point_s.{model}", seconds)
        passes.layer("enumerator.orderings", orderings)
        passes.layer("enumerator.outcomes", sum(
            len(sets) for key, sets in record["outcomes"].items()
            if not key.endswith("/SC")))
    passes.finish()
    return tally


# ----------------------------------------------------------------------
# service-mixed: repro serve over HTTP
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on a fresh state directory.

    It runs through ``entry.py``, so a traced server records spans of
    its own layers and hands them over when it shuts down.
    """

    def __init__(self, ctx: Context, name: str, traced: bool = False) -> None:
        from repro.service import ServiceClient

        self.state = ctx.work / name
        shutil.rmtree(self.state, ignore_errors=True)
        command, self.record_path = ctx.entry(
            {"kind": "cli", "argv": ["serve", "--port", "0",
                                     "--state-dir", str(self.state)]},
            traced)
        spawned = time.monotonic()
        self.proc = subprocess.Popen(command, cwd=ctx.root, env=ctx.env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.client = ServiceClient(match.group(1), timeout=60.0)
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    if self.client.health()["status"] == "ok":
                        break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                time.sleep(0.005)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.monotonic() - spawned

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self) -> list[spans.Span]:
        """Shut the server down; returns the spans a traced server kept."""
        try:
            self.client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.record_path.exists():
            return []
        record = json.loads(self.record_path.read_text(encoding="utf-8"))
        return [spans.Span.from_json(row) for row in record["spans"]]


def _job_plan(rng: random.Random, jobs: int) -> list[dict]:
    """Half cold jobs, a quarter warm resubmissions, a quarter dedup ones.

    Jobs come in blocks of four -- two cold, one warm, one dedup -- in a
    seeded order within each block, so the mix stays the same all along
    a run while the registry grows.  The first block starts with its two
    cold jobs; every warm or dedup job names as its twin an earlier cold
    job, from an earlier block when there is one.
    """
    seeds = rng.sample(range(1, 1 << 30), jobs)
    plan: list[dict] = []
    cold: list[int] = []
    for block in range(0, jobs, 4):
        kinds = ["cold", "cold", "warm", "dedup"]
        if block:
            rng.shuffle(kinds)
        earlier = [index for index in cold if index < block] or cold
        for index, kind in enumerate(kinds[:jobs - block], start=block):
            if kind == "cold":
                plan.append({"kind": kind, "seed": seeds[index], "twin": None})
                cold.append(index)
            else:
                twin = rng.choice(earlier)
                plan.append({"kind": kind, "seed": plan[twin]["seed"],
                             "twin": twin})
    return plan


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.glob("**/*") if item.is_file())


def _closed_loop(server: Server, plan: list[dict], trials: int,
                 recorder: spans.Recorder | None) -> tuple[float, list[dict]]:
    """One client, submit -> wait -> result, one job at a time.

    A single client keeps the benchmark within one of the host's cores:
    the server runs one job at a time, so a second client only queues
    behind the first, and its latency then follows the neighbours' load
    more than the server's.  Jobs run in plan order, so every twin has
    finished before the job that names it is submitted.
    """
    from repro.service import ServiceClient

    client = server.client
    if recorder is not None:
        client = ServiceClient(client.base_url, timeout=client.timeout)
        for method, name in (("submit", "service.submit"), ("wait", "service.wait"),
                             ("job", "service.poll"), ("result", "service.result")):
            setattr(client, method,
                    recorder.wrap(getattr(client, method), name, "service"))
    outcomes: list[dict] = [{} for _ in plan]

    def one(job: dict, outcome: dict) -> None:
        started = time.monotonic()
        reply = client.submit(
            "non_manifestation",
            {"model": "TSO", "trials": trials, "seed": job["seed"]},
            config={"shards": SERVICE_SHARDS}, dedup=job["kind"] != "warm")
        record = client.wait(reply["job"]["id"], timeout=120, poll_seconds=0.01)
        if record["state"] != "done":
            raise RuntimeError(f"job {record['id']} {record['state']}: "
                               f"{record.get('error')}")
        result = client.result(record["id"])
        outcome.update(latency_ms=1000.0 * (time.monotonic() - started),
                       deduped=reply["deduped"], job=result["job"],
                       result=result["result"], manifest=result["manifest"])

    began = time.monotonic()
    for job, outcome in zip(plan, outcomes):
        try:
            one(job, outcome)
        except Exception as error:  # noqa: BLE001 - a failed job is counted
            outcome["error"] = f"{type(error).__name__}: {error}"
    return time.monotonic() - began, outcomes


def _check_jobs(tally: Tally, plan: list[dict], outcomes: list[dict]) -> None:
    tally.attempted += len(plan)
    for index, (job, outcome) in enumerate(zip(plan, outcomes)):
        if "error" in outcome or "result" not in outcome:
            tally.fail(1, f"job {index} ({job['kind']}): {outcome.get('error')}")
            continue
        if job["twin"] is None:
            continue
        twin = outcomes[job["twin"]]
        if twin.get("result") != outcome["result"]:
            tally.fail(1, f"job {index} ({job['kind']}): result differs from "
                          f"its cold twin {job['twin']}")
        elif job["kind"] == "warm" and any(
                run["execution"]["executed_shards"]
                for run in outcome["manifest"]["runs"]):
            tally.fail(1, f"job {index} (warm): executed shards")
        elif job["kind"] == "dedup" and not outcome["deduped"]:
            tally.fail(1, f"job {index} (dedup): not deduplicated")


def _service_layers(tally: Tally, state: Path, plan: list[dict],
                    outcomes: list[dict], client: list[spans.Span],
                    server: list[spans.Span], loop: tuple[float, float]) -> None:
    tally.spans.extend(client + server)
    jobs = [(job, outcome) for job, outcome in zip(plan, outcomes)
            if "job" in outcome]
    layers = tally.layers

    def median_ms(found: list[spans.Span], name: str) -> float:
        values = [span.seconds for span in found if span.name == name]
        return 1000.0 * statistics.median(values) if values else 0.0

    def median_of(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    layers["service.submit_ms"] = median_ms(client, "service.submit")
    layers["service.result_ms"] = median_ms(client, "service.result")
    layers["service.registry_save_ms"] = median_ms(server, "service.registry_save")
    layers["service.queue_wait_ms"] = median_of(
        [1000.0 * (o["job"]["started_at"] - o["job"]["created_at"])
         for job, o in jobs if job["kind"] != "dedup"])
    for kind in ("cold", "warm", "dedup"):
        layers[f"service.run_ms.{kind}"] = median_of(
            [1000.0 * (o["job"]["finished_at"] - o["job"]["started_at"])
             for job, o in jobs if job["kind"] == kind])
    layers["service.polls_per_job"] = (
        sum(span.name == "service.poll" for span in client) / len(plan))
    layers["service.registry_bytes"] = (state / "jobs.json").stat().st_size
    layers["checkpoint.journal_bytes"] = _dir_bytes(state / "journals")
    hits = misses = 0
    for _, outcome in jobs:
        for run in outcome["manifest"]["runs"]:
            hits += run["metrics"]["run.cache_hits"]["value"]
            misses += run["metrics"]["run.cache_misses"]["value"]
    layers["cache.hits"] = hits
    layers["cache.misses"] = misses
    layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["cache.bytes"] = _dir_bytes(state / "cache")
    layers["obs.manifest_bytes"] = _dir_bytes(state / "manifests")
    start, end = loop
    layers["unattributed_fraction"] = 1.0 - spans.covered_seconds(
        client, start, end) / (end - start)
    # Summed over the client and the server's threads.
    tally.self_seconds.update(spans.self_seconds(client + server))


def _sessions(ctx: Context):
    """Yield ``traced`` for each session of a run.

    A traced run has two sessions, untraced then traced, whose walls give
    the tracing overhead.  An untraced run has sessions until the budget
    is spent, at least two.
    """
    if ctx.trace:
        yield from (False, True)
        return
    count = 0
    while True:
        began = time.monotonic()
        yield False
        count += 1
        elapsed = time.monotonic() - ctx.started
        if (count >= (1 if ctx.smoke else 2)
                and elapsed + (time.monotonic() - began) > ctx.seconds):
            return


def _session(ctx: Context, tally: Tally, plan: list[dict], trials: int,
             traced: bool, name: str) -> float:
    """Serve ``plan`` from a fresh server; returns the closed loop's wall."""
    server = Server(ctx, name, traced)
    recorder = spans.Recorder(f"seed-{ctx.seed}-service") if traced else None
    try:
        tally.add("setup_s", server.setup_s)
        began = time.monotonic()
        wall, outcomes = _closed_loop(server, plan, trials, recorder)
        _check_jobs(tally, plan, outcomes)
        metrics = server.client.metrics()
        expected = {"service.jobs_failed": 0,
                    "service.jobs_deduped": sum(o.get("deduped", False)
                                                for o in outcomes)}
        for metric, value in expected.items():
            seen = metrics.get(metric, {}).get("value", 0)
            if seen != value:
                tally.fail(1, f"{metric} is {seen}, expected {value}")
        if not traced:
            tally.add("wall_s", wall)
            tally.add("work_per_s", len(plan) / wall)
            tally.add("peak_rss_mb", server.peak_rss_mb())
            for outcome in outcomes:
                if "latency_ms" in outcome:
                    tally.add("job_ms", outcome["latency_ms"])
    finally:
        server_spans = server.stop()
    if traced:
        _service_layers(tally, server.state, plan, outcomes, recorder.spans,
                        server_spans, (began, began + wall))
    return wall


def service_mixed(ctx: Context) -> Tally:
    """Sessions of a fixed number of jobs, each against a fresh server.

    Every session starts from an empty state directory, so the job
    registry grows the same way in each, whatever the host's speed; the
    job latencies of all sessions are pooled.
    """
    tally = Tally("jobs_per_s")
    rng = random.Random(ctx.seed)
    jobs = ctx.size("service_jobs")
    trials = ctx.size("service_trials")
    # Set-up is timed on every launch: two spare launches, then one per session.
    for index in range(2):
        spare = Server(ctx, f"state-spare-{index}")
        tally.add("setup_s", spare.setup_s)
        spare.stop()
    walls = [_session(ctx, tally, _job_plan(rng, jobs), trials, traced,
                      f"state-{index}")
             for index, traced in enumerate(_sessions(ctx))]
    if ctx.trace:
        tally.layers["trace_overhead"] = walls[1] / walls[0] - 1.0
    return tally


WORKLOADS = {
    "mc-thm62": mc_thm62,
    "litmus-family": litmus_family,
    "litmus-exhaustive": litmus_exhaustive,
    "service-mixed": service_mixed,
}
