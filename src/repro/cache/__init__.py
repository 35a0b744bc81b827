"""``repro.cache`` — the content-addressed shard result cache.

Built on the corrected v2 checkpoint keys (``trials``/``shards``/``seed``
/label **plus the kernel fingerprint**), the cache lets re-runs and
overlapping sweep points fetch completed shards instead of recomputing
them.  Pass ``config=RunConfig(cache="auto")`` (or a directory, or a
:class:`ShardStore`) to any sharded estimator, or use the ``--cache``
CLI flag; inspect and
manage the store with ``repro cache {stats,clear,verify}``.  Semantics,
key derivation, and the v1 → v2 migration note live in
``docs/CACHING.md``.

This package imports nothing from the rest of the library (the engine
imports it lazily), so the cache layer can never perturb the seeding
discipline.
"""

from .store import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MEMO_ENTRIES,
    CacheStats,
    ShardStore,
    default_cache_root,
    resolve_cache,
    shard_entry_key,
)

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MEMO_ENTRIES",
    "CacheStats",
    "ShardStore",
    "default_cache_root",
    "resolve_cache",
    "shard_entry_key",
]
