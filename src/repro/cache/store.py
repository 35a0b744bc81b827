"""Content-addressed on-disk store of completed shard results.

The paper's evaluation re-estimates the same quantities over and over —
per memory model, per γ, per thread count — and every one of those runs
shards into pure functions of ``(seed, shards, i, kernel)``.  A shard
computed once is therefore valid forever, and this store makes that
durable: each completed shard is written under a key derived from the
run's corrected v2 checkpoint identity (:func:`repro.stats.checkpoint.
plan_key`, which folds in the kernel fingerprint) plus the shard index
and its trial count.  Re-runs and overlapping sweep points fetch their
finished shards instead of recomputing them — bit-identically, because
the key *is* the computation's identity.

Layout and guarantees:

* **Sharded directories** — entry ``k`` lives at ``<root>/<k[:2]>/<k>.pkl``
  so no single directory grows unboundedly.
* **Integrity header** — every file starts with
  ``repro-cache:1:<key>:<sha256(payload)>`` followed by the pickled
  payload; :meth:`ShardStore.get` re-verifies the digest on read and
  treats any mismatch as a miss (deleting the corrupt entry), so a torn
  or tampered file can never produce a wrong number.
* **Atomic writes** — entries are written to a temp file and
  ``os.replace``d into place; readers never observe a partial entry.
* **Size-capped LRU eviction** — reads bump an entry's mtime; writes
  that push the store past ``max_bytes`` evict oldest-mtime entries
  first, never the entry just written.  The store keeps a running byte
  total: it scans its directory at its first ``put`` and again only
  when the total passes ``max_bytes``, so a write under the cap costs
  no directory scan.  Entries another process (or another store on the
  same root) writes are counted at this store's next scan.
* **In-process memo tier** — a small ``OrderedDict`` LRU in front of the
  disk tier makes repeated probes within one process (tight sweep
  loops) free.

This package imports nothing from the rest of the library — the engine
(:func:`repro.stats.parallel.run_sharded`) imports *it*, lazily, so the
cache sits below the stats layer and can never perturb seeding.  Like
the checkpoint journal, entries are pickles: only point the store at
directories you trust.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MEMO_ENTRIES",
    "CacheStats",
    "ShardStore",
    "default_cache_root",
    "resolve_cache",
    "shard_entry_key",
]

#: Default on-disk size cap (512 MiB): generous for shard aggregates
#: (kilobytes each), bounded for shared developer machines.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Default in-process memo capacity (entries, not bytes).
DEFAULT_MEMO_ENTRIES = 256

_HEADER_PREFIX = b"repro-cache:1:"

#: Store registry: one :class:`ShardStore` per resolved root, so every
#: ``cache="auto"`` caller in a process shares one memo tier and one set
#: of hit/miss counters.
_STORES: dict[Path, "ShardStore"] = {}


def shard_entry_key(run_key: str, shard: int, trials: int) -> str:
    """The content address of one shard's result.

    ``run_key`` is the v2 :func:`repro.stats.checkpoint.plan_key` — it
    already encodes trials, shards, seed, label, and the kernel
    fingerprint — and the shard index plus its trial count pin the entry
    to one pure computation.  Components are colon-separated with
    fixed-format integers, so distinct triples cannot collide
    structurally.
    """
    payload = f"shard:{run_key}:{int(shard)}:{int(trials)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def default_cache_root() -> Path:
    """The default store location: ``$REPRO_CACHE_DIR`` or ``~/.cache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "shards"


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one store (disk scan + process counters)."""

    root: str
    entries: int
    total_bytes: int
    max_bytes: int | None
    hits: int
    misses: int
    stored: int
    evictions: int


class ShardStore:
    """Two-tier (memo + disk) content-addressed cache of shard results.

    ``max_bytes=None`` disables eviction; ``memo_entries=0`` disables the
    in-process tier.  ``hits``/``misses``/``stored``/``evictions`` are
    process-lifetime counters (the obs layer reports per-run deltas).
    """

    def __init__(self, root: str | Path,
                 max_bytes: int | None = DEFAULT_MAX_BYTES,
                 memo_entries: int = DEFAULT_MEMO_ENTRIES):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.memo_entries = memo_entries
        self._memo: OrderedDict[str, Any] = OrderedDict()
        # Bytes on disk as of the last scan plus this store's writes since
        # (None: not counted yet).  It may over-count, which only brings
        # the next scan forward; the lock keeps concurrent puts exact.
        self._total: int | None = None
        self._total_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # The get/put surface the engine uses
    # ------------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for ``key``, or ``default`` on a miss.

        Disk hits verify the integrity digest (mismatch == miss, and the
        corrupt file is removed), bump the entry's mtime for LRU, and
        populate the memo tier.
        """
        if self.memo_entries and key in self._memo:
            self._memo.move_to_end(key)
            self.hits += 1
            return self._memo[key]
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return default
        value = _decode_entry(raw, key)
        if value is _CORRUPT:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
            self.misses += 1
            return default
        try:
            os.utime(path)  # LRU recency
        except OSError:  # pragma: no cover - entry evicted underfoot
            pass
        self._memoise(key, value)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> int:
        """Store ``value`` under ``key`` atomically; returns evictions made."""
        payload = pickle.dumps(value)
        digest = hashlib.sha256(payload).hexdigest()
        header = _HEADER_PREFIX + f"{key}:{digest}".encode("ascii") + b"\n"
        entry = header + payload
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            replaced = path.stat().st_size  # an overwrite is not counted twice
        except OSError:
            replaced = 0
        scratch = path.with_name(path.name + f".tmp{os.getpid()}")
        scratch.write_bytes(entry)
        os.replace(scratch, path)
        self._memoise(key, value)
        self.stored += 1
        evicted = self._evict(keep=key, added=len(entry) - replaced)
        self.evictions += evicted
        return evicted

    def _memoise(self, key: str, value: Any) -> None:
        if not self.memo_entries:
            return
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    def _iter_entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.pkl"))

    def _evict(self, keep: str, added: int) -> int:
        """Count ``added`` bytes; past ``max_bytes``, rescan the directory
        and drop oldest-mtime entries until the store fits."""
        if self.max_bytes is None:
            return 0
        with self._total_lock:
            if self._total is not None:
                self._total += added
                if self._total <= self.max_bytes:
                    return 0
            entries = []
            total = 0
            for path in self._iter_entries():
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - racing eviction
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            evicted = 0
            for _, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                if path.stem == keep:
                    continue  # never evict the entry just written
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing eviction
                    continue
                self._memo.pop(path.stem, None)
                total -= size
                evicted += 1
            self._total = total
            return evicted

    # ------------------------------------------------------------------
    # Maintenance surface (the ``repro cache`` CLI)
    # ------------------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._iter_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        self._memo.clear()
        with self._total_lock:
            self._total = None  # the next put counts from a fresh scan
        return removed

    def verify(self) -> tuple[int, list[Path]]:
        """Re-hash every entry; returns ``(ok_count, corrupt_paths)``.

        An entry is corrupt when its header is malformed, its embedded
        key disagrees with its filename, or its payload digest no longer
        matches.  Corrupt entries are left in place for inspection
        (``clear`` or a ``get`` removes them).
        """
        ok = 0
        corrupt: list[Path] = []
        for path in self._iter_entries():
            try:
                raw = path.read_bytes()
            except OSError:
                corrupt.append(path)
                continue
            if _decode_entry(raw, path.stem) is _CORRUPT:
                corrupt.append(path)
            else:
                ok += 1
        return ok, corrupt

    def stats(self) -> CacheStats:
        """Disk usage plus this process's hit/miss/store/evict counters."""
        entries = self._iter_entries()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing eviction
                pass
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=total,
            max_bytes=self.max_bytes,
            hits=self.hits,
            misses=self.misses,
            stored=self.stored,
            evictions=self.evictions,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardStore(root={str(self.root)!r}, max_bytes={self.max_bytes})"


_CORRUPT = object()


def _decode_entry(raw: bytes, key: str) -> Any:
    """Decode one entry file; the ``_CORRUPT`` sentinel on any mismatch."""
    if not raw.startswith(_HEADER_PREFIX):
        return _CORRUPT
    newline = raw.find(b"\n")
    if newline < 0:
        return _CORRUPT
    header = raw[len(_HEADER_PREFIX):newline].decode("ascii", "replace")
    payload = raw[newline + 1:]
    parts = header.split(":")
    if len(parts) != 2 or parts[0] != key:
        return _CORRUPT
    if hashlib.sha256(payload).hexdigest() != parts[1]:
        return _CORRUPT
    try:
        return pickle.loads(payload)
    except Exception:
        return _CORRUPT


def resolve_cache(cache: Any) -> ShardStore | None:
    """Normalise the estimators' ``cache=`` argument to a store (or None).

    ``None``/``False`` disable caching; an existing :class:`ShardStore`
    is used as-is; ``True`` or ``"auto"`` select the default root
    (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/shards``); any other
    string/path is used as the store root.  Repeated resolutions of the
    same root return the same instance (shared memo tier and counters).
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, ShardStore):
        return cache
    if cache is True or cache == "auto":
        root = default_cache_root()
    elif isinstance(cache, (str, Path)):
        root = Path(cache)
    else:
        raise TypeError(
            f"cache must be None, bool, 'auto', a path, or a ShardStore; "
            f"got {type(cache).__name__}"
        )
    root = root.expanduser()
    store = _STORES.get(root)
    if store is None:
        store = ShardStore(root)
        _STORES[root] = store
    return store
