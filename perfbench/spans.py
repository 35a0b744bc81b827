"""In-memory spans around calls into the library's layers.

The traced benchmark run wraps public functions of each layer from the
outside: :func:`install` replaces each target in every loaded ``repro``
module that references it, so the library itself is unchanged.  Spans
stay in memory and are written out once, when the traced process ends.

A span is ``(id, name, layer, start, end, parent, run)``; ``parent`` is
the enclosing span on the same thread and ``run`` identifies the
workload run.  Times are ``time.monotonic()`` seconds, which on Linux
is one clock for every process, so spans from a child process line up
with timestamps taken by the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: The layers, named after the library's modules.
LAYERS = (
    "cli",                 # repro.cli + repro.runconfig
    "stats.parallel",      # repro.stats.parallel + repro.stats.faults
    "stats.transport",
    "stats.checkpoint",
    "cache",
    "kernels",
    "core",
    "litmus.explore",
    "litmus.generate",
    "litmus.enumerator",   # with litmus.atomicity and litmus.zoo
    "service",
    "obs",
)

#: (module, attribute, span name, layer).  ``Class.method`` attributes are
#: wrapped on the class; plain functions are replaced wherever a loaded
#: ``repro`` module holds a reference to them.
TARGETS = (
    ("repro.cli", "build_parser", "cli.build_parser", "cli"),
    ("repro.runconfig", "RunConfig.resolve", "runconfig.resolve", "cli"),
    ("repro.stats.parallel", "run_sharded", "parallel.run_sharded",
     "stats.parallel"),
    ("repro.stats.parallel", "parallel_map", "parallel.parallel_map",
     "stats.parallel"),
    ("repro.stats.parallel", "ShardPlan.shard_sources", "parallel.plan",
     "stats.parallel"),
    ("repro.stats.transport", "BernoulliLayout.unpack", "transport.unpack",
     "stats.transport"),
    ("repro.stats.transport", "CategoricalLayout.unpack", "transport.unpack",
     "stats.transport"),
    ("repro.stats.transport", "WindowLayout.unpack", "transport.unpack",
     "stats.transport"),
    ("repro.stats.checkpoint", "ShardCheckpoint.load", "checkpoint.load",
     "stats.checkpoint"),
    ("repro.stats.checkpoint", "ShardCheckpoint.record", "checkpoint.record",
     "stats.checkpoint"),
    ("repro.cache.store", "ShardStore.get", "cache.get", "cache"),
    ("repro.cache.store", "ShardStore.put", "cache.put", "cache"),
    ("repro.core.manifestation", "non_manifestation_probability",
     "core.closed_form", "core"),
    ("repro.core.manifestation", "estimate_non_manifestation",
     "core.estimate", "core"),
    ("repro.litmus.explore", "explore_random", "explore.random",
     "litmus.explore"),
    ("repro.litmus.explore", "explore_exhaustive", "explore.exhaustive",
     "litmus.explore"),
    ("repro.litmus.generate", "generate_family", "generate.family",
     "litmus.generate"),
    ("repro.litmus.generate", "sweep_family", "generate.sweep",
     "litmus.generate"),
    ("repro.litmus.enumerator", "enumerate_outcomes", "enumerator.enumerate",
     "litmus.enumerator"),
    ("repro.obs.manifest", "write_manifest", "obs.write_manifest", "obs"),
    ("repro.service.estimators", "run_estimator", "service.run_estimator",
     "service"),
    ("repro.service.jobs", "JobRegistry.save", "service.registry_save",
     "service"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.name, self.layer, self.start, self.end,
                self.parent, self.run]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Recorder:
    """Collects spans of one process in memory.

    Calls made in a forked pool worker run the wrapped function without
    recording: the worker's copy of the recorder would be lost with it.
    """

    def __init__(self, run: str) -> None:
        self.run = run
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(Span(span_id, name, layer, start, end, parent,
                                   self.run))

    def wrap(self, function, name: str, layer: str):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return function(*args, **kwargs)
            with self.span(name, layer):
                return function(*args, **kwargs)
        return wrapper


def install(recorder: Recorder, targets=TARGETS) -> None:
    """Wrap every target; import the target modules first."""
    for module_name, attribute, name, layer in targets:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[member]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(raw.__func__, name, layer))
            else:
                wrapped = recorder.wrap(raw, name, layer)
            setattr(owner, member, wrapped)
            continue
        original = getattr(module, member)
        wrapped = recorder.wrap(original, name, layer)
        for loaded in list(sys.modules.values()):
            if loaded is None or not loaded.__name__.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    children: dict[tuple[str, int], float] = {}
    for span in spans:
        if span.parent is not None:
            key = (span.run, span.parent)
            children[key] = children.get(key, 0.0) + span.seconds
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[span.layer] += span.seconds - children.get((span.run, span.id), 0.0)
    return totals


def covered_seconds(spans: list[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by at least one span."""
    intervals = sorted((max(span.start, start), min(span.end, end))
                       for span in spans if span.parent is None)
    covered, reach = 0.0, start
    for low, high in intervals:
        low = max(low, reach)
        if high > low:
            covered += high - low
            reach = high
    return covered
