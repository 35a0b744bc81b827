"""Zero-copy shard result transport over ``multiprocessing.shared_memory``.

The pooled engine's historical result channel pickles each shard's result
object through the ``ProcessPoolExecutor`` pipe — cheap for a
``BernoulliResult`` (two ints), but a measurable per-shard tax for
categorical PMFs and a real one for window-measurement shards, whose
duration arrays scale with the trial budget.  This module supplies the
fast path: the parent preallocates one shared-memory **table** with a
fixed-width ``int64`` row per shard, workers execute the unchanged shard
kernel and *pack* its result into their row in place, and only a tiny
:class:`Packed` marker rides back through the pickle pipe.  The parent
unpacks rows in shard order, so the merge consumes exactly the result
objects it always did — **bit-identical** to the pickle transport by
construction, because the kernel, its random draws, and the merge are
untouched; only the bytes' route home changes.

Three row layouts cover the engine's three shard result kinds:

* :class:`BernoulliLayout` — ``[successes, trials]``;
* :class:`CategoricalLayout` — ``[trials, pairs, cat_0, count_0, ...]``
  with a fixed category capacity;
* :class:`WindowLayout` — ``[overlap, manifest, manifest_wo, count,
  durations...]`` sized for the largest shard.

A result that does not fit its row (e.g. a categorical shard observing
more distinct categories than the layout's capacity) is returned through
the normal pickle channel instead — packing is an optimisation with an
**automatic per-shard fallback**, never a constraint on what kernels may
produce.  The same holds for the transport as a whole:
``RunConfig(transport="auto")`` uses shared memory only when a layout
is supplied and a pool is actually in play, and ``transport="pickle"``
forces the historical channel (see :mod:`repro.stats.parallel`).

Layouts carry the *constant* result metadata (confidence level, thread
count) themselves, so rows hold only per-shard variables; the
transported row therefore measures the true per-shard payload, which the
scaling bench tracks as ``shard_payload_bytes`` against the pickled
result size.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

__all__ = [
    "TRANSPORTS",
    "resolve_transport",
    "BernoulliLayout",
    "CategoricalLayout",
    "WindowLayout",
    "Packed",
    "ShardTable",
    "ShardWriter",
    "pickled_payload_bytes",
]

#: The recognised result-transport channels of ``run_sharded``.
TRANSPORTS = ("auto", "pickle", "shm")


def resolve_transport(transport: str) -> str:
    """Validate a transport name; returns it unchanged.

    >>> resolve_transport("auto")
    'auto'
    """
    if transport not in TRANSPORTS:
        known = ", ".join(TRANSPORTS)
        raise ValueError(
            f"unknown transport {transport!r}; known transports: {known}"
        )
    return transport


def pickled_payload_bytes(result: Any) -> int:
    """Bytes the pickle channel ships for one shard result (bench metric)."""
    return len(pickle.dumps(result))


@dataclass(frozen=True)
class BernoulliLayout:
    """Row layout for ``BernoulliResult`` shards: ``[successes, trials]``."""

    confidence: float

    kind = "bernoulli"

    def row_width(self, max_shard_trials: int) -> int:
        return 2

    def pack(self, result: Any, row: np.ndarray) -> bool:
        row[0] = result.successes
        row[1] = result.trials
        return True

    def unpack(self, row: np.ndarray) -> Any:
        from .montecarlo import BernoulliResult

        return BernoulliResult(int(row[0]), int(row[1]), self.confidence, None)


@dataclass(frozen=True)
class CategoricalLayout:
    """Row layout for ``CategoricalResult`` shards.

    ``[trials, pairs, category_0, count_0, ..., category_{p-1},
    count_{p-1}]`` — ``capacity`` bounds the number of distinct
    categories a row can hold (the engine's categorical supports are
    small integer outcomes: final counter values, window growths).  A
    shard observing more falls back to pickle transport on its own.
    """

    confidence: float
    capacity: int = 64

    kind = "categorical"

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    def row_width(self, max_shard_trials: int) -> int:
        return 2 + 2 * self.capacity

    def pack(self, result: Any, row: np.ndarray) -> bool:
        counts = result.counts
        if len(counts) > self.capacity:
            return False
        row[0] = result.trials
        row[1] = len(counts)
        offset = 2
        for category in sorted(counts):
            row[offset] = category
            row[offset + 1] = counts[category]
            offset += 2
        return True

    def unpack(self, row: np.ndarray) -> Any:
        from .montecarlo import CategoricalResult

        pairs = int(row[1])
        counts = {int(row[2 + 2 * index]): int(row[3 + 2 * index])
                  for index in range(pairs)}
        return CategoricalResult(counts, int(row[0]), self.confidence, None)


@dataclass(frozen=True)
class WindowLayout:
    """Row layout for window-measurement shards (``_WindowShard``).

    ``[overlap_trials, manifest_trials, manifest_without_overlap,
    durations_count, durations...]`` — each shard contributes one window
    duration per (trial, thread), so rows are sized
    ``4 + max_shard_trials * threads``.
    """

    threads: int

    kind = "window"

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")

    def row_width(self, max_shard_trials: int) -> int:
        return 4 + max_shard_trials * self.threads

    def pack(self, result: Any, row: np.ndarray) -> bool:
        durations = result.durations
        if 4 + durations.size > row.size:
            return False
        row[0] = result.overlap_trials
        row[1] = result.manifest_trials
        row[2] = result.manifest_without_overlap
        row[3] = durations.size
        row[4:4 + durations.size] = durations
        return True

    def unpack(self, row: np.ndarray) -> Any:
        from repro.sim.measurement import _WindowShard

        count = int(row[3])
        return _WindowShard(
            durations=np.array(row[4:4 + count], dtype=np.int64),
            overlap_trials=int(row[0]),
            manifest_trials=int(row[1]),
            manifest_without_overlap=int(row[2]),
        )


@dataclass(frozen=True)
class Packed:
    """Marker a :class:`ShardWriter` returns instead of a packed result.

    ``row`` is the table row the real result was written to; the parent
    swaps the marker for ``layout.unpack(table.row(row))``.  Riding the
    existing result channel (rather than a side signal) keeps retry,
    checkpoint, and observability semantics untouched: a marker only
    exists for a shard whose row is fully written.
    """

    row: int


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without enrolling it for cleanup.

    Only the creating parent owns the segment's lifetime.  Python 3.13+
    exposes ``track=False`` to keep an attachment out of the resource
    tracker; earlier interpreters register attachments too (bpo-38119),
    but pool workers share the parent's tracker process, so the re-
    registration is a set no-op and the parent's ``unlink`` (which
    unregisters) remains the single balancing removal — unregistering
    here by hand would leave the tracker's ledger short and make that
    final unlink raise inside the tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg; see docstring
        return shared_memory.SharedMemory(name=name)


class ShardTable:
    """A parent-owned shared-memory table: one ``int64`` row per shard.

    The parent creates it before fan-out and must :meth:`close` it (which
    also unlinks the segment) when the run finishes — ``run_sharded``
    does so in a ``finally``.  Rows are read through :meth:`row`, a
    zero-copy view; callers that keep unpacked results past ``close``
    copy out (the layouts' ``unpack`` methods already do).
    """

    def __init__(self, rows: int, width: int):
        if rows < 1 or width < 1:
            raise ValueError(f"table needs positive rows/width, got {rows}x{width}")
        self.rows = rows
        self.width = width
        self._segment = shared_memory.SharedMemory(
            create=True, size=rows * width * np.dtype(np.int64).itemsize
        )
        self._table = np.ndarray((rows, width), dtype=np.int64,
                                 buffer=self._segment.buf)
        self._table.fill(0)
        self.name = self._segment.name

    def row(self, index: int) -> np.ndarray:
        return self._table[index]

    def close(self) -> None:
        """Release the mapping and remove the segment (idempotent)."""
        if self._segment is None:
            return
        self._table = None
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._segment = None

    def __enter__(self) -> "ShardTable":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ShardWriter:
    """The picklable worker-side wrapper of the shared-memory transport.

    Runs the *unchanged* shard kernel, then packs its result into this
    task's table row and returns a :class:`Packed` marker — or the result
    itself when the layout cannot hold it (the automatic pickle
    fallback).  The wrapper deliberately wraps only the result's route
    home: the kernel sees exactly the ``(source, count)`` call it sees
    under pickle transport, so the transports are bit-identical for any
    fixed ``(seed, shards)``.
    """

    def __init__(self, kernel: Callable[..., Any], layout: Any, name: str,
                 width: int):
        self.kernel = kernel
        self.layout = layout
        self.name = name
        self.width = width

    def __call__(self, source: Any, count: int, row: int) -> Any:
        result = self.kernel(source, count)
        segment = _attach(self.name)
        try:
            view = np.ndarray((self.width,), dtype=np.int64,
                              buffer=segment.buf,
                              offset=row * self.width * np.dtype(np.int64).itemsize)
            packed = self.layout.pack(result, view)
            del view  # the buffer must be unreferenced before close()
        finally:
            segment.close()
        return Packed(row) if packed else result
