"""The repository benchmark: four workloads through the real entry points.

Run one workload::

    python3 perfbench/run.py --workload mc-thm62 --seed 1 --seconds 28 --trace 0

from the root of a checkout (the program is imported from ``src/``).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics instead, from spans
recorded around calls into each layer plus what the program already
writes (run manifests, job records, ``/v1/metrics``, the service state
directory).  Both print a table of every metric with its unit and
sample count, then, as the last line, one JSON object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

The exit code is 1 when any output check fails and 2 when the checkout
holds no ``src/repro`` to benchmark.

Two more modes drive the benchmark itself:

* ``--repeat N`` runs each named workload (``--workload all`` for every
  one) N times with seeds ``seed .. seed+N-1`` and reports each
  end-to-end metric's median and quartiles, flagging any metric whose
  spread (quartile distance over median) exceeds its bound in
  ``BENCHMARK.json``;
* ``--self-test`` runs every workload at smoke size, traced and
  untraced, and asserts that every metric of ``BENCHMARK.json`` is
  printed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench-work"
SPANS = ROOT / ".perfbench-spans"

#: End-to-end metrics and their units, each a median over the run:
#: ``setup_s`` -- launch until ready (imports, arguments, RunConfig; for
#: the service, until /v1/health answers ok); ``wall_s`` -- one pass of
#: measured work, set-up excluded; ``work_per_s`` -- trials, interleaving
#: searches or jobs per second of a pass; ``job_p50_ms`` -- one job as its
#: caller waits for it: a command, an API call or a served job;
#: ``peak_rss_mb`` -- peak resident memory of the main process plus its
#: largest worker.
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
              "job_p50_ms": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "cli.import_s": "s",
    "runconfig.resolve_ms": "ms",
    "parallel.run_sharded_s": "s",
    "parallel.run_sharded_calls": "count",
    "parallel.plan_ms": "ms",
    "parallel.shard_busy_s": "s",
    "parallel.worker_busy_ratio": "ratio",
    "transport.unpack_ms": "ms",
    "kernels.trials_per_busy_s": "1/s",
    "core.closed_form_ms": "ms",
    "explore.trials_per_busy_s": "1/s",
    "generate.family_ms": "ms",
    "generate.sc_enumerate_ms": "ms",
    "enumerator.point_s.TSO": "s",
    "enumerator.point_s.PSO": "s",
    "enumerator.point_s.WO": "s",
    "enumerator.point_s.PSO-WB": "s",
    "enumerator.orderings": "count",
    "enumerator.outcomes": "count",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms.cold": "ms",
    "service.run_ms.warm": "ms",
    "service.run_ms.dedup": "ms",
    "service.result_ms": "ms",
    "service.registry_save_ms": "ms",
    "service.polls_per_job": "count",
    "service.registry_bytes": "bytes",
    "checkpoint.journal_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "obs.manifest_bytes": "bytes",
    "unattributed_fraction": "ratio",
    "trace_overhead": "ratio",
}
#: Per-layer values computed from the inputs rather than measured.
COMPUTED = {"enumerator.orderings"}


def _percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def end_to_end(tally) -> tuple[dict[str, float], list[tuple]]:
    """The end-to-end metrics, and the printed rows (with extra context)."""
    samples = tally.samples
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": statistics.median(samples["wall_s"]),
        "work_per_s": statistics.median(samples["work_per_s"]),
        "job_p50_ms": statistics.median(samples["job_ms"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    rows = [(name, value, END_TO_END[name],
             len(samples["job_ms" if name == "job_p50_ms" else name]))
            for name, value in values.items()]
    rows.insert(3, (f"  = {tally.work_name}", values["work_per_s"], "1/s",
                    len(samples["work_per_s"])))
    jobs = samples["job_ms"]
    p95 = _percentile(jobs, 95)
    beyond = sum(value > p95 for value in jobs)
    rows.append(("job_p95_ms", p95, "ms",
                 f"n={len(jobs)}, {beyond} beyond p95"))
    rows.append(("failed_fraction", tally.failed / max(tally.attempted, 1),
                 "ratio", tally.attempted))
    return values, rows


def per_layer(tally) -> tuple[dict[str, float], list[tuple]]:
    from spans import LAYERS

    values = {name: float(tally.layers.get(name, 0.0)) for name in LAYER_UNITS}
    # No span covers the kernels: they run in pool workers or inside
    # run_sharded.  Their busy time comes from the run manifests.
    for layer in LAYERS:
        if layer != "kernels":
            values[f"self_s.{layer}"] = tally.self_seconds.get(layer, 0.0)
    rows = [(name, value, unit_of(name),
             "computed" if name in COMPUTED else None)
            for name, value in values.items()]
    return values, rows


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "s" if name.startswith("self_s.") else LAYER_UNITS[name]


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), smoke=args.smoke,
                            root=ROOT, work=WORK)
    # Compile the library once, so no pass pays for writing bytecode.
    subprocess.run([sys.executable, "-c", "import repro.cli, repro.litmus, "
                    "repro.service"], cwd=ROOT, env=ctx.env, check=True)
    ctx.started = time.monotonic()
    try:
        tally = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        SPANS.mkdir(exist_ok=True)
        path = SPANS / f"{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in tally.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
    values, rows = (per_layer if args.trace else end_to_end)(tally)
    label = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"{args.workload} seed {args.seed}: {label} metrics")
    for name, value, unit, count in rows:
        note = "" if count is None else (
            f" {count}" if isinstance(count, str) else f" n={count}")
        print(f"  {name:<32} {value:>14.6g} {unit:<6}{note}")
    if args.trace:
        total = sum(tally.self_seconds.values()) or 1.0
        print(f"{args.workload}: self time per layer (median traced pass)")
        for layer, seconds in sorted(tally.self_seconds.items(),
                                     key=lambda item: -item[1]):
            print(f"  {layer:<20} {seconds:>10.4f} s {100 * seconds / total:6.1f}%")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def _invoke(workload: str, seed: int, seconds: int, trace: int,
            smoke: bool = False) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _names(workload: str | None) -> list[str]:
    import workloads

    return list(workloads.WORKLOADS) if workload in (None, "all") else [workload]


def repeat(args: argparse.Namespace) -> int:
    bounds = {metric["name"]: metric["bound"]
              for metric in json.loads(BENCHMARK.read_text())["end_to_end"]}
    seconds = int(args.seconds)
    flagged = 0
    for workload in _names(args.workload):
        runs = [_invoke(workload, args.seed + index, seconds, 0)
                for index in range(args.repeat)]
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bound else "  <-- spread exceeds bound"
            flagged += bool(flag)
            print(f"  {name:<14} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  bound {bound}{flag}",
                  flush=True)
    return 1 if flagged else 0


def self_test(args: argparse.Namespace) -> int:
    spec = json.loads(BENCHMARK.read_text())
    wanted = {0: {metric["name"] for metric in spec["end_to_end"]},
              1: {metric["name"] for metric in spec["per_layer"]}}
    assert {workload["name"] for workload in spec["workloads"]} == set(_names("all"))
    for workload in _names(args.workload):
        for trace in (0, 1):
            result = _invoke(workload, args.seed, 2, trace, smoke=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            printed = set(result["metrics"])
            assert printed == wanted[trace], (
                f"{workload} trace {trace}: missing {wanted[trace] - printed}, "
                f"extra {printed - wanted[trace]}")
            print(f"self-test {workload} trace {trace}: ok "
                  f"({len(printed)} metrics, {result['attempted']} operations)",
                  flush=True)
    return 0


def main() -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="mc-thm62, litmus-family, litmus-exhaustive, "
                        "service-mixed, or 'all' with --repeat/--self-test")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not BENCHMARK.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(BENCHMARK.json and src/repro are both needed)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.repeat:
        return repeat(args)
    if args.workload not in _names("all"):
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
