"""Span-style timing contexts with an opt-in JSONL trace writer.

A long estimator run has internal phases — settle the windows, execute
the shards, merge the results, write the manifest — and "where did the
time go?" should not require a profiler.  :class:`Tracer` provides
nestable spans:

>>> tracer = Tracer()
>>> with tracer.span("settle"):
...     with tracer.span("merge"):
...         pass
>>> [span.name for span in tracer.spans]
['merge', 'settle']

Completed spans record their name, start offset (seconds since the
tracer's origin), duration, nesting depth, and parent span name.  Spans
close innermost-first, so ``tracer.spans`` is in *completion* order —
the same order an opt-in JSONL writer streams them to disk (one JSON
object per line, append-only, crash-tolerant: a torn final line loses
only that span).

The engine emits ``run`` (the whole sharded run), ``shards`` (fan-out
and harvest) and ``merge`` (result merging) spans when tracing is
enabled via the ``RunConfig.trace`` knob / ``--trace`` CLI flag (one
place opens them: :func:`repro.obs.observed_run`); kernels and
callers are free to add their own (``tracer.span("settle")``) on a
:class:`Tracer` they own.
The reference of engine-emitted spans lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

__all__ = ["Span", "Tracer"]

#: The in-memory span list is bounded so a tracer in a long-lived
#: process cannot grow without limit.
MAX_RECORDED_SPANS = 100_000


@dataclass(frozen=True)
class Span:
    """One completed timing context."""

    name: str
    start: float  # seconds since the tracer's origin
    duration: float  # seconds
    depth: int  # 0 = top level
    parent: str | None  # enclosing span name, if any
    attributes: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record


@dataclass
class _OpenSpan:
    name: str
    started: float
    attributes: dict[str, object]


class Tracer:
    """Records nested spans; optionally streams them to a JSONL file.

    Spans measure wall time (``time.perf_counter``); they are
    observability, not statistics — nothing the tracer records feeds
    back into any estimate.  The tracer is single-threaded by design
    (the parent process orchestrates; workers never see it).
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.spans: list[Span] = []
        self._stack: list[_OpenSpan] = []
        self._origin = time.perf_counter()
        self._handle: IO[str] | None = None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[None]:
        """Time a block as a span named ``name`` (nests freely)."""
        self.start_span(name, **attributes)
        try:
            yield
        finally:
            self.end_span()

    def start_span(self, name: str, **attributes: object) -> None:
        """Open a span without a ``with`` block (pair with ``end_span``)."""
        self._stack.append(_OpenSpan(name, time.perf_counter(), dict(attributes)))

    def end_span(self) -> Span:
        """Close the innermost open span and record it."""
        if not self._stack:
            raise RuntimeError("end_span with no open span")
        open_span = self._stack.pop()
        now = time.perf_counter()
        completed = Span(
            name=open_span.name,
            start=open_span.started - self._origin,
            duration=now - open_span.started,
            depth=len(self._stack),
            parent=self._stack[-1].name if self._stack else None,
            attributes=open_span.attributes,
        )
        if len(self.spans) < MAX_RECORDED_SPANS:
            self.spans.append(completed)
        self._write(completed)
        return completed

    def _write(self, completed: Span) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(completed.as_dict()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close every still-open span, then the JSONL handle."""
        while self._stack:
            self.end_span()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
