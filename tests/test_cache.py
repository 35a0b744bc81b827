"""The content-addressed shard result cache (:mod:`repro.cache`).

Three layers of contract:

* **The store itself** — roundtrip, integrity (a torn or tampered entry
  is a miss, never a wrong number), atomic layout, LRU eviction under a
  byte cap, the in-process memo tier, and the maintenance surface the
  ``repro cache`` CLI drives (``clear``/``verify``/``stats``).
* **Key injectivity** — the v2 :func:`plan_key` and
  :func:`shard_entry_key` must separate *every* axis a shard's bytes
  depend on: kernel fingerprint (and hence the machine), trials, shards,
  seed, label, shard index.  Property-tested with hypothesis.
* **Engine integration** — ``cache=`` makes warm re-runs fetch their
  shards (hit counters prove it) while staying **bit-identical** to
  both the cold run and an uncached run, at 1 and 4 workers; a
  ``checkpoint=`` directory is a store of the same format, so a corrupt
  checkpoint entry is a miss whose shard re-executes.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig
from repro.cache import (
    CacheStats,
    ShardStore,
    default_cache_root,
    resolve_cache,
    shard_entry_key,
)
from repro.stats import run_bernoulli_trials
from repro.stats.checkpoint import kernel_fingerprint, plan_key
from repro.stats.parallel import ShardPlan, run_sharded


def _coin(source):
    return source.bernoulli(0.5)


def _heads_biased(source):
    return source.bernoulli(0.9)


def _sum_kernel(source, batch):
    return sum(1 for _ in range(batch) if source.bernoulli(0.5))


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------


class TestShardStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = ShardStore(tmp_path / "c")
        assert store.get("a" * 32) is None
        store.put("a" * 32, {"shard": 3, "value": (1, 2.5, "x")})
        assert store.get("a" * 32) == {"shard": 3, "value": (1, 2.5, "x")}
        stats = store.stats()
        assert isinstance(stats, CacheStats)
        assert (stats.entries, stats.hits, stats.misses, stats.stored) == (1, 1, 1, 1)

    def test_entries_live_in_sharded_directories(self, tmp_path):
        store = ShardStore(tmp_path)
        key = shard_entry_key("deadbeef", 0, 100)
        store.put(key, 1)
        assert (tmp_path / key[:2] / f"{key}.pkl").is_file()

    def test_disk_hit_survives_a_new_store_instance(self, tmp_path):
        ShardStore(tmp_path).put("b" * 32, [1, 2, 3])
        assert ShardStore(tmp_path).get("b" * 32) == [1, 2, 3]

    @pytest.mark.parametrize("vandalise", [
        lambda raw: raw[:-3],                          # torn payload
        lambda raw: raw.replace(b"repro-cache:1:", b"repro-cache:9:"),
        lambda raw: b"not an entry at all",
        lambda raw: raw.replace(b":", b";", 1),        # malformed header
    ])
    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path, vandalise):
        store = ShardStore(tmp_path, memo_entries=0)
        store.put("c" * 32, 42)
        path = tmp_path / "cc" / ("c" * 32 + ".pkl")
        path.write_bytes(vandalise(path.read_bytes()))
        assert store.get("c" * 32, default="MISS") == "MISS"
        assert not path.exists()

    def test_entry_under_wrong_filename_is_corrupt(self, tmp_path):
        store = ShardStore(tmp_path, memo_entries=0)
        store.put("d" * 32, 42)
        src = tmp_path / "dd" / ("d" * 32 + ".pkl")
        dst = tmp_path / "ee" / ("e" * 32 + ".pkl")
        dst.parent.mkdir()
        dst.write_bytes(src.read_bytes())   # key inside disagrees with name
        assert store.get("e" * 32) is None

    def test_verify_reports_but_keeps_corrupt_entries(self, tmp_path):
        store = ShardStore(tmp_path, memo_entries=0)
        store.put("a" * 32, 1)
        store.put("b" * 32, 2)
        path = tmp_path / "bb" / ("b" * 32 + ".pkl")
        path.write_bytes(path.read_bytes()[:-1])
        ok, corrupt = store.verify()
        assert ok == 1
        assert corrupt == [path]
        assert path.exists()    # verify never deletes

    def test_clear_removes_everything(self, tmp_path):
        store = ShardStore(tmp_path)
        for i in range(5):
            store.put(f"{i:032d}", i)
        assert store.clear() == 5
        assert store.stats().entries == 0
        assert store.get("0" * 32) is None  # memo tier cleared too

    def test_lru_evicts_oldest_first_and_get_bumps_recency(self, tmp_path):
        payload = b"x" * 256
        probe = ShardStore(tmp_path / "probe", max_bytes=None)
        probe.put("p" * 32, payload)
        entry_size = (tmp_path / "probe" / "pp" / ("p" * 32 + ".pkl")).stat().st_size
        store = ShardStore(tmp_path / "main", max_bytes=3 * entry_size,
                           memo_entries=0)
        keys = [f"{i:032d}" for i in range(3)]
        import os as _os
        for t, key in enumerate(keys):
            store.put(key, payload)
            path = tmp_path / "main" / key[:2] / f"{key}.pkl"
            _os.utime(path, (1_000_000 + t, 1_000_000 + t))
        # Touch the oldest so the *middle* entry is now LRU.
        assert store.get(keys[0]) == payload
        evicted = store.put(f"{9:032d}", payload)
        assert evicted >= 1
        assert store.get(keys[1]) is None          # evicted
        assert store.get(keys[0]) == payload       # recency saved it
        assert store.evictions == evicted

    def test_memo_tier_serves_hits_without_disk(self, tmp_path):
        store = ShardStore(tmp_path)
        store.put("f" * 32, "memoised")
        (tmp_path / "ff" / ("f" * 32 + ".pkl")).unlink()
        assert store.get("f" * 32) == "memoised"
        assert ShardStore(tmp_path).get("f" * 32) is None

    def test_memo_tier_is_capped(self, tmp_path):
        store = ShardStore(tmp_path, memo_entries=2)
        for i in range(4):
            store.put(f"{i:032d}", i)
        assert len(store._memo) == 2

    def test_two_threads_putting_one_entry_both_succeed(self, tmp_path,
                                                        monkeypatch):
        # Two service jobs running one computation put the same entries.
        # Both threads write their temp file before either replaces: a
        # temp name shared by the process lets one thread's replace move
        # the other's file, and the other then raises FileNotFoundError.
        store = ShardStore(tmp_path, memo_entries=0)
        both_written = threading.Barrier(2)
        real_replace = os.replace

        def replace(source, target):
            both_written.wait(timeout=30)
            return real_replace(source, target)

        monkeypatch.setattr("repro.cache.store.os.replace", replace)
        errors = []

        def writer():
            try:
                store.put("a" * 32, PAYLOAD)
            except Exception as error:  # the race under test
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.verify() == (1, [])
        assert sorted(path.name for path in tmp_path.rglob("*")
                      if path.is_file()) == ["a" * 32 + ".pkl"]


PAYLOAD = b"x" * 256


def _entry_size(tmp_path) -> int:
    probe = ShardStore(tmp_path / "probe", max_bytes=None)
    probe.put("p" * 32, PAYLOAD)
    return (tmp_path / "probe" / "pp" / ("p" * 32 + ".pkl")).stat().st_size


def _disk_bytes(root) -> int:
    return sum(path.stat().st_size for path in root.glob("??/*.pkl"))


def _age(root, key, mtime) -> None:
    os.utime(root / key[:2] / f"{key}.pkl", (mtime, mtime))


@pytest.fixture
def scans(monkeypatch):
    """The directory scans every store makes (``_iter_entries`` calls)."""
    calls = []
    real = ShardStore._iter_entries

    def counting(store):
        calls.append(store.root)
        return real(store)

    monkeypatch.setattr(ShardStore, "_iter_entries", counting)
    return calls


class TestRunningTotal:
    """A store counts the bytes it writes and scans its directory only at
    its first put and whenever that count passes ``max_bytes``."""

    def test_puts_under_the_cap_never_scan_after_the_first(self, tmp_path,
                                                           scans):
        root = tmp_path / "c"
        store = ShardStore(root, max_bytes=1 << 20)
        for index in range(20):
            store.put(f"{index:032d}", PAYLOAD)
        store.put(f"{3:032d}", PAYLOAD)  # an overwrite adds no bytes
        assert scans == [root]
        assert store._total == _disk_bytes(root) == 20 * _entry_size(tmp_path)

    def test_over_the_cap_evicts_oldest_mtime_first(self, tmp_path, scans):
        size = _entry_size(tmp_path)
        root = tmp_path / "c"
        store = ShardStore(root, max_bytes=4 * size + size // 2,
                           memo_entries=0)
        keys = [f"{index:032d}" for index in range(6)]
        for key, mtime in zip(keys, (30, 10, 40, 20)):
            store.put(key, PAYLOAD)
            _age(root, key, 1_000_000 + mtime)
        assert len(scans) == 1
        assert store.put(keys[4], PAYLOAD) == 1
        assert store.get(keys[1]) is None
        assert store.put(keys[5], PAYLOAD) == 1
        assert store.get(keys[3]) is None
        assert len(scans) == 3
        assert store._total == _disk_bytes(root) <= store.max_bytes
        assert all(store.get(key) == PAYLOAD for key in (keys[0], keys[2],
                                                          keys[4], keys[5]))

    def test_never_evicts_the_entry_just_written(self, tmp_path):
        size = _entry_size(tmp_path)
        store = ShardStore(tmp_path / "c", max_bytes=size // 2,
                           memo_entries=0)
        assert store.put("a" * 32, PAYLOAD) == 0
        assert store.put("b" * 32, PAYLOAD) == 1
        assert store.get("a" * 32) is None
        assert store.get("b" * 32) == PAYLOAD

    def test_a_second_store_is_counted_at_the_next_scan(self, tmp_path,
                                                        scans):
        size = _entry_size(tmp_path)
        root = tmp_path / "c"
        first = ShardStore(root, max_bytes=6 * size, memo_entries=0)
        second = ShardStore(root, max_bytes=None, memo_entries=0)
        first.put("a" * 32, PAYLOAD)
        _age(root, "a" * 32, 2_000_000)
        theirs = [f"{index:032d}" for index in range(4)]
        for index, key in enumerate(theirs):
            second.put(key, PAYLOAD)
            _age(root, key, 1_000_000 + index)
        ours = [letter * 32 for letter in "bcdef"]
        for key in ours:
            first.put(key, PAYLOAD)
        # Ten entries on disk, six counted: no scan since the first put.
        assert len(scans) == 1 and first._total == 6 * size
        assert first.put("9" * 32, PAYLOAD) == 5
        assert len(scans) == 2
        assert first._total == _disk_bytes(root) == 6 * size
        assert all(first.get(key) is None for key in theirs + ["a" * 32])

    def test_clear_resets_the_total(self, tmp_path):
        root = tmp_path / "c"
        store = ShardStore(root, max_bytes=1 << 20)
        for index in range(3):
            store.put(f"{index:032d}", PAYLOAD)
        store.clear()
        store.put("z" * 32, PAYLOAD)
        assert store._total == _disk_bytes(root) == _entry_size(tmp_path)

    def test_concurrent_puts_never_under_count(self, tmp_path, monkeypatch):
        # The service's --job-workers share one store.  Writers that race
        # a slow scan must not lose their bytes: an under-count would let
        # the directory pass the cap unscanned (an over-count is safe).
        real = ShardStore._iter_entries

        def slow_scan(store):
            entries = real(store)
            time.sleep(0.02)  # a large directory
            return entries

        monkeypatch.setattr(ShardStore, "_iter_entries", slow_scan)
        root = tmp_path / "c"
        store = ShardStore(root, max_bytes=1 << 20, memo_entries=0)
        start = threading.Barrier(8)

        def writer(offset):
            start.wait(timeout=30)
            for index in range(25):
                store.put(f"{offset + index:032d}", PAYLOAD)

        threads = [threading.Thread(target=writer, args=(100 * worker,))
                   for worker in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert _disk_bytes(root) == 200 * _entry_size(tmp_path)
        assert store._total >= _disk_bytes(root)


class TestResolveCache:
    def test_none_and_false_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_store_passes_through(self, tmp_path):
        store = ShardStore(tmp_path)
        assert resolve_cache(store) is store

    def test_auto_uses_env_root_and_registry_is_shared(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "auto"))
        assert default_cache_root() == tmp_path / "auto"
        first = resolve_cache("auto")
        assert first.root == tmp_path / "auto"
        assert resolve_cache(True) is first
        assert resolve_cache(str(tmp_path / "auto")) is first

    def test_path_becomes_root(self, tmp_path):
        assert resolve_cache(tmp_path / "explicit").root == tmp_path / "explicit"

    def test_garbage_is_rejected(self):
        with pytest.raises(TypeError, match="cache must be"):
            resolve_cache(3.14)


# ---------------------------------------------------------------------------
# Key injectivity
# ---------------------------------------------------------------------------

_labels = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
    max_size=30,
)
_fingerprints = st.text(alphabet="0123456789abcdef", min_size=0, max_size=16)


class TestKeyInjectivity:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.tuples(st.integers(1, 10**7), st.integers(1, 512),
                    st.integers(0, 2**32), _labels, _fingerprints),
        b=st.tuples(st.integers(1, 10**7), st.integers(1, 512),
                    st.integers(0, 2**32), _labels, _fingerprints),
    )
    def test_plan_key_separates_every_axis(self, a, b):
        if a != b:
            assert plan_key(*a) != plan_key(*b)
        else:
            assert plan_key(*a) == plan_key(*b)

    def test_spawn_plan_keys_are_byte_compatible(self):
        # 3.x appended an rng_plan suffix only for non-default plans, so
        # every key of a default-plan run is still minted verbatim: its
        # journals and cache entries stay valid across the upgrade.
        assert plan_key(1000, 8, 0, "thm62", "abc123") == "94339ab0f95306e8"
        assert plan_key(1000, 8, None) == "24359725f3e046dc"

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.tuples(st.text("0123456789abcdef", min_size=16, max_size=16),
                    st.integers(0, 511), st.integers(1, 10**6)),
        b=st.tuples(st.text("0123456789abcdef", min_size=16, max_size=16),
                    st.integers(0, 511), st.integers(1, 10**6)),
    )
    def test_shard_entry_key_separates_run_shard_and_trials(self, a, b):
        if a != b:
            assert shard_entry_key(*a) != shard_entry_key(*b)
        else:
            assert shard_entry_key(*a) == shard_entry_key(*b)

    def test_fingerprint_separates_kernels_end_to_end(self):
        keys = {
            plan_key(1000, 8, 0, "", kernel_fingerprint(kernel))
            for kernel in (_coin, _heads_biased, _sum_kernel)
        }
        assert len(keys) == 3

    def test_backends_get_distinct_fingerprints(self):
        # run_canonical_bug's two machines, as the driver binds them.
        from repro.sim.executor import _race_kernel

        scalar, vectorized = (
            _race_kernel("TSO", 2, 100, 8, None, False, False, 0.99,
                         backend, {})
            for backend in ("scalar", "vectorized"))
        assert scalar.func is not vectorized.func
        assert kernel_fingerprint(scalar) != kernel_fingerprint(vectorized)


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_cold_warm_uncached_are_bit_identical(self, tmp_path, workers):
        store = ShardStore(tmp_path / "cache")
        plain = RunConfig(shards=8, workers=workers)
        cached = RunConfig(shards=8, workers=workers, cache=store)
        uncached = run_bernoulli_trials(_coin, 8_000, seed=42, config=plain)
        cold = run_bernoulli_trials(_coin, 8_000, seed=42, config=cached)
        assert store.stats().hits == 0
        assert store.stats().stored == 8
        warm = run_bernoulli_trials(_coin, 8_000, seed=42, config=cached)
        assert store.stats().hits == 8
        assert cold == uncached
        assert warm == uncached     # bit-identical, not statistically close

    def test_overlapping_runs_share_entries_but_kernels_do_not(self, tmp_path):
        store = ShardStore(tmp_path)
        config = RunConfig(shards=8, cache=store)
        run_bernoulli_trials(_coin, 4_000, seed=7, config=config)
        run_bernoulli_trials(_heads_biased, 4_000, seed=7, config=config)
        assert store.stats().hits == 0      # different fingerprints, no reuse
        assert store.stats().entries == 16

    def test_cache_hits_are_journaled_back_into_the_checkpoint(self, tmp_path):
        store = ShardStore(tmp_path / "cache")
        plan = ShardPlan(trials=4_000, shards=8, seed=5)
        first = run_sharded(_sum_kernel, plan, config=RunConfig(cache=store))
        root = tmp_path / "run.ckpt"
        second = run_sharded(_sum_kernel, plan,
                             config=RunConfig(cache=store, checkpoint=root))
        assert second == first
        run_key = plan_key(plan.trials, plan.shards, plan.seed, "",
                           kernel_fingerprint(_sum_kernel))
        checkpoint = ShardStore(root, max_bytes=None)
        assert [checkpoint.get(shard_entry_key(run_key, shard, trials))
                for shard, trials in enumerate(plan.shard_trials())] == first
        # The checkpoint alone now resumes the run: hits were written through.
        store.clear()
        assert run_sharded(_sum_kernel, plan, config=RunConfig(
            checkpoint=root, manifest=tmp_path / "m.json")) == first
        record = json.loads((tmp_path / "m.json").read_text())["runs"][0]
        assert record["execution"]["executed_shards"] == 0

    def test_manifest_and_metrics_record_cache_traffic(self, tmp_path):
        store = ShardStore(tmp_path / "cache")
        for name in ("cold", "warm"):
            run_bernoulli_trials(_coin, 4_000, seed=3, config=RunConfig(
                shards=8, cache=store, manifest=tmp_path / f"{name}.json"))
        cold = json.loads((tmp_path / "cold.json").read_text())["runs"][0]
        warm = json.loads((tmp_path / "warm.json").read_text())["runs"][0]
        assert cold["metrics"]["run.cache_stored"]["value"] == 8
        assert cold["metrics"]["run.cache_hits"]["value"] == 0
        assert warm["metrics"]["run.cache_hits"]["value"] == 8
        assert all(s["cached"] and s["resumed"] for s in warm["shards"])
        assert all(not s["cached"] for s in cold["shards"])
        assert warm["result"] == cold["result"]

    def test_corrupt_checkpoint_entry_is_a_miss_and_re_executes(self, tmp_path):
        path = tmp_path / "run.ckpt"
        baseline = run_bernoulli_trials(
            _coin, 4_000, seed=11, config=RunConfig(shards=8, checkpoint=path))
        entries = sorted(path.glob("??/*.pkl"))
        assert len(entries) == 8
        raw = bytearray(entries[3].read_bytes())
        raw[-1] ^= 0xFF     # flip a payload byte
        entries[3].write_bytes(bytes(raw))
        assert ShardStore(path).verify() == (7, [entries[3]])
        resumed = run_bernoulli_trials(
            _coin, 4_000, seed=11, config=RunConfig(
                shards=8, checkpoint=path, manifest=tmp_path / "m.json"))
        assert resumed == baseline      # the corrupt shard re-executed
        record = json.loads((tmp_path / "m.json").read_text())["runs"][0]
        assert record["execution"]["executed_shards"] == 1
        assert record["execution"]["resumed_shards"] == 7
        assert ShardStore(path).verify() == (8, [])
