"""One timed pass of a workload, in a fresh interpreter.

Usage::

    python3 perfbench/entry.py JOB

``JOB`` is a JSON object:

* ``kind`` -- ``"cli"`` runs ``repro.cli.main(argv)``, the ``repro``
  command itself; ``"exhaustive"`` calls
  ``repro.litmus.explore_exhaustive(generate_family(...), models,
  config=RunConfig(workers=2))`` through the public API;
* ``spawned`` -- ``time.monotonic()`` of the benchmark just before it
  started this process;
* ``record`` -- where to write the pass record (JSON);
* ``trace`` -- a run id to record spans under (see ``spans.py``), or
  ``null`` for an untraced pass;
* kind-specific keys: ``argv`` for ``cli``; ``spec``, ``count``,
  ``seed``, ``models``, ``workers`` and ``manifest`` for ``exhaustive``.

The record holds the time marks ``spawned`` / ``ready`` (imports done,
arguments and ``RunConfig`` resolved) / ``done``, the peak resident
memory of this process plus its largest reaped child, the spans of a
traced pass, and kind-specific output.  Standard output is the
program's own.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext

import spans


def _span(recorder, name: str, layer: str):
    return recorder.span(name, layer) if recorder is not None else nullcontext()


def run_cli(job: dict, marks: dict, recorder) -> dict:
    with _span(recorder, "cli.import", "cli"):
        import repro.cli
        from repro.runconfig import RunConfig
    if recorder is not None:
        spans.install(recorder)
    from_args = RunConfig.__dict__["from_args"].__func__

    def timed_from_args(cls, args):
        config = from_args(cls, args)
        marks["ready"] = time.monotonic()
        return config

    RunConfig.from_args = classmethod(timed_from_args)
    code = repro.cli.main(job["argv"])
    sys.stdout.flush()
    marks["done"] = time.monotonic()
    return {"exit": code}


def run_exhaustive(job: dict, marks: dict, recorder) -> dict:
    with _span(recorder, "cli.import", "cli"):
        import repro.litmus as litmus
        from repro.runconfig import RunConfig
    if recorder is not None:
        # Installed before the functions below are looked up, so the
        # calls go through the wrappers.
        spans.install(recorder)
    config = RunConfig(workers=job["workers"],
                       manifest=job["manifest"]).resolve()
    marks["ready"] = time.monotonic()
    family = litmus.generate_family(litmus.FamilySpec(**job["spec"]),
                                    job["count"], job["seed"])
    report = litmus.explore_exhaustive(family, job["models"], config=config)
    marks["done"] = time.monotonic()
    # The SC baseline for the containment checks, outside the timed part.
    baseline = litmus.explore_exhaustive(family, ["SC"], config=RunConfig())
    outcomes: dict[str, list] = {}
    for result in report.results + baseline.results:
        outcomes[f"{result.test}/{result.model}"] = sorted(
            [list(pair) for pair in outcome] for outcome in result.outcomes)
    return {"outcomes": outcomes}


def main() -> None:
    job = json.loads(sys.argv[1])
    marks = {"spawned": job["spawned"], "entered": time.monotonic()}
    recorder = spans.Recorder(job["trace"]) if job["trace"] else None
    runner = {"cli": run_cli, "exhaustive": run_exhaustive}[job["kind"]]
    output = runner(job, marks, recorder)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "marks": marks,
        "peak_rss_mb": (own + child) / 1024.0,
        "spans": ([span.to_json() for span in recorder.spans]
                  if recorder is not None else []),
        **output,
    }
    with open(job["record"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
