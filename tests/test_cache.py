"""Tests for the persistent eval cache (``repro.eval.cache``).

Pins the ISSUE's acceptance properties: cache-warm runs are byte-identical
to cache-cold and ``--no-cache`` runs at any ``--jobs`` count, corrupted or
schema-mismatched entries read as misses (quarantined, never a crash),
concurrent writers racing one key both succeed and leave one valid entry,
and the LRU sweep evicts deterministically under a size cap.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.eval.cache import (
    DEFAULT_CACHE_DIR,
    EvalCache,
    SCHEMA_VERSION,
    describe_stats,
    json_digest,
    merge_stats,
    normalize_source,
    open_cache,
    pipeline_fingerprint,
    source_digest,
)
from repro.eval.dataset import (
    dataset_from_json,
    dataset_to_json,
    entry_from_json,
    generated_entries,
)
from repro.eval.mutate import Mutator
from repro.eval.score import score_dataset
from repro.testing.native import have_native_toolchain

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)


# ---------------------------------------------------------------------------
# Keys and normalization
# ---------------------------------------------------------------------------


def test_keys_are_stable_and_distinct(tmp_path):
    cache = EvalCache(tmp_path)
    assert cache.key("a", 1) == cache.key("a", 1)
    assert cache.key("a", 1) != cache.key("a", 2)
    assert cache.key("a", 1) != cache.key("a")
    # Keys are full sha256 digests (the fingerprint itself is one too).
    assert len(cache.key("x")) == 64
    assert len(pipeline_fingerprint()) == 64


def test_normalize_source_is_formatting_insensitive():
    a = "int f(int x) { return x + 1; }"
    b = "int f(int x)\n{\n    return x   + 1;\n}\n"
    assert normalize_source(a) == normalize_source(b)
    assert source_digest(a) == source_digest(b)
    # Different token streams stay distinct.
    assert source_digest(a) != source_digest("int f(int x) { return x + 2; }")


def test_normalize_source_unlexable_never_collides():
    broken = "int f() { return `; }"
    assert normalize_source(broken).startswith("\x00unlexable\x00")
    assert normalize_source(broken) != normalize_source("int f ( ) { return ; }")


def test_json_digest_is_order_canonical():
    assert json_digest({"a": 1, "b": 2}) == json_digest({"b": 2, "a": 1})
    assert json_digest([1, 2]) != json_digest([2, 1])


# ---------------------------------------------------------------------------
# Round-trips, envelopes, stats
# ---------------------------------------------------------------------------


def test_put_get_round_trip_preserves_dict_order(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("order")
    payload = {"zeta": 1, "alpha": {"x86-O0": ".text", "arm-O0": ".arm"}}
    cache.put("entry", key, payload)
    loaded = cache.get("entry", key)
    assert loaded == payload
    # Insertion order is part of the payload: no silent alphabetization.
    assert list(loaded) == ["zeta", "alpha"]
    assert list(loaded["alpha"]) == ["x86-O0", "arm-O0"]


def test_miss_then_hit_counters(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("counts")
    assert cache.get("verdict", key) is None
    cache.put("verdict", key, {"verdict": "io_equivalent"})
    assert cache.get("verdict", key) == {"verdict": "io_equivalent"}
    summary = cache.stats_summary()
    assert summary["hits"] == 1
    assert summary["misses"] == 1
    assert summary["stores"] == 1
    assert summary["layers"]["verdict"]["hits"] == 1
    assert "verdict 1/2" in describe_stats(summary)


def test_binary_round_trip_is_executable(tmp_path):
    cache = EvalCache(tmp_path / "cache")
    source = tmp_path / "tool.sh"
    source.write_text("#!/bin/sh\nexit 0\n")
    key = cache.key("bin")
    assert not cache.get_file("binary", key, tmp_path / "missing")
    cache.put_file("binary", key, source)
    destination = tmp_path / "restored.sh"
    assert cache.get_file("binary", key, destination)
    assert destination.read_text() == source.read_text()
    assert os.access(destination, os.X_OK)


def test_absorb_and_merge_stats(tmp_path):
    cache = EvalCache(tmp_path)
    cache._bump("verdict", "hits")
    cache.absorb(
        {
            "evictions": 2,
            "layers": {
                "verdict": {"hits": 3, "misses": 1, "stores": 1, "corrupt": 0},
                "asm": {"hits": 1, "misses": 0, "stores": 0, "corrupt": 0},
            },
        }
    )
    summary = cache.stats_summary()
    assert summary["layers"]["verdict"]["hits"] == 4
    assert summary["layers"]["asm"]["hits"] == 1
    assert summary["evictions"] == 2
    merged = merge_stats({}, summary)
    merged = merge_stats(merged, summary)
    assert merged["hits"] == 2 * summary["hits"]


def test_open_cache_none_means_disabled(tmp_path):
    assert open_cache(None) is None
    cache = open_cache(tmp_path / "c")
    assert isinstance(cache, EvalCache)
    assert (tmp_path / "c").is_dir()
    assert DEFAULT_CACHE_DIR == ".repro-cache"


# ---------------------------------------------------------------------------
# Corruption and schema mismatch: always a miss, never a crash
# ---------------------------------------------------------------------------


def _stored_paths(cache):
    return [
        path
        for path in cache.root.rglob("*")
        if path.is_file() and not path.name.startswith(".tmp-")
    ]


@pytest.mark.parametrize(
    "damage",
    [
        b"",  # truncated to nothing
        b'{"schema": 1, "payl',  # truncated mid-envelope
        b"\xff\xfenot json at all",  # garbage bytes
        b'["schema", 1]',  # JSON but not an envelope
        json.dumps({"schema": SCHEMA_VERSION + 1, "payload": 1}).encode(),  # future
        json.dumps({"schema": SCHEMA_VERSION}).encode(),  # no payload
    ],
)
def test_corrupt_entry_is_quarantined_miss(tmp_path, damage):
    cache = EvalCache(tmp_path)
    key = cache.key("damage")
    cache.put("entry", key, {"ok": True})
    [path] = _stored_paths(cache)
    path.write_bytes(damage)
    assert cache.get("entry", key) is None  # miss, not an exception
    assert _stored_paths(cache) == []  # quarantined in place
    summary = cache.stats_summary()
    assert summary["corrupt"] == 1
    assert summary["misses"] == 1
    # The slot is usable again immediately.
    cache.put("entry", key, {"ok": True})
    assert cache.get("entry", key) == {"ok": True}


def test_corruption_in_dataset_layer_recomputes(tmp_path):
    """End-to-end: a corrupted entry payload forces a rebuild, same bytes."""
    cache = EvalCache(tmp_path)
    [entry] = generated_entries(3, 1, max_stmts=5, cache=cache)
    for path in _stored_paths(cache):
        path.write_bytes(b"\x00 corrupt \x00")
    cache_after = EvalCache(tmp_path)
    [rebuilt] = generated_entries(3, 1, max_stmts=5, cache=cache_after)
    assert rebuilt.to_json() == entry.to_json()
    assert cache_after.stats_summary()["corrupt"] >= 1


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------


def _race_writer(args):
    root, key = args
    cache = EvalCache(Path(root))
    # Both workers write the same bytes a hundred times while the other
    # reads: the reader must only ever observe a complete envelope.
    payload = {"value": "x" * 4096}
    outcomes = []
    for _ in range(100):
        cache.put("entry", key, payload)
        got = cache.get("entry", key)
        outcomes.append(got == payload)
    return all(outcomes), cache.stats_summary()["corrupt"]


def test_concurrent_writers_one_valid_entry(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("race")
    with multiprocessing.Pool(processes=2) as pool:
        results = pool.map(_race_writer, [(str(tmp_path), key)] * 2)
    assert all(ok for ok, _ in results)
    assert all(corrupt == 0 for _, corrupt in results)
    # Exactly one published file, valid, and no leaked temp files.
    assert cache.get("entry", key) == {"value": "x" * 4096}
    assert len(_stored_paths(cache)) == 1
    assert not list(cache.root.glob(".tmp-*"))


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


def test_sweep_evicts_lru_first_deterministically(tmp_path):
    cache = EvalCache(tmp_path, max_bytes=0)
    keys = [cache.key("evict", index) for index in range(4)]
    for index, key in enumerate(keys):
        cache.put("entry", key, {"index": index, "pad": "p" * 512})
        path = cache._path("entry", key, ".json")
        os.utime(path, ns=(1_000_000 + index, 1_000_000 + index))
    # A hit refreshes recency: key 0 becomes the newest entry.
    assert cache.get("entry", keys[0]) is not None
    survivor_budget = cache._path("entry", keys[0], ".json").stat().st_size
    evicted = cache.sweep(max_bytes=survivor_budget)
    assert evicted == 3
    assert cache.get("entry", keys[0]) is not None
    for key in keys[1:]:
        assert cache.get("entry", key) is None
    assert cache.evictions == 3


def test_sweep_tie_break_is_by_path(tmp_path):
    cache = EvalCache(tmp_path)
    keys = [cache.key("tie", index) for index in range(3)]
    for key in keys:
        cache.put("entry", key, {"pad": "p" * 128})
        os.utime(cache._path("entry", key, ".json"), ns=(5, 5))
    keep_two = sum(cache._path("entry", key, ".json").stat().st_size for key in keys) - 1
    assert cache.sweep(max_bytes=keep_two) == 1
    expected_victim = min(str(cache._path("entry", key, ".json")) for key in keys)
    assert not Path(expected_victim).exists()


def test_sweep_under_cap_is_a_no_op(tmp_path):
    cache = EvalCache(tmp_path)
    cache.put("entry", cache.key("keep"), {"ok": True})
    assert cache.sweep() == 0
    assert cache.total_bytes() > 0


# ---------------------------------------------------------------------------
# Dataset JSON round-trip
# ---------------------------------------------------------------------------


def test_dataset_json_round_trip_is_lossless():
    entries = generated_entries(5, 2, max_stmts=5)
    document = dataset_to_json(entries)
    reloaded = dataset_from_json(json.loads(json.dumps(document)))
    assert [e.to_json() for e in reloaded] == [e.to_json() for e in entries]
    # Loaded entries carry no context; consumers rebuild it lazily.
    assert all(e.context is None for e in reloaded)


def test_dataset_schema_mismatch_is_rejected():
    from repro.eval.dataset import DatasetError

    with pytest.raises(DatasetError):
        dataset_from_json({"schema": 99, "entries": []})


def test_entry_cache_hit_round_trips_through_builder(tmp_path):
    cache = EvalCache(tmp_path)
    [cold] = generated_entries(7, 1, max_stmts=5, cache=cache)
    warm_cache = EvalCache(tmp_path)
    [warm] = generated_entries(7, 1, max_stmts=5, cache=warm_cache)
    assert warm.to_json() == cold.to_json()
    assert warm_cache.stats_summary()["layers"]["entry"]["hits"] == 1


def test_loaded_entries_feed_the_mutator():
    [entry] = generated_entries(11, 1, max_stmts=5)
    [reloaded] = dataset_from_json(dataset_to_json([entry]))
    cold = Mutator(entry.seed).candidates(entry, 4)
    warm = Mutator(entry.seed).candidates(reloaded, 4)
    assert [vars(c) for c in cold] == [vars(c) for c in warm]


# ---------------------------------------------------------------------------
# Byte-identity and memo effectiveness (the tentpole acceptance property)
# ---------------------------------------------------------------------------


def _score_report(entries, candidate_sets, cache=None, jobs=1):
    report = score_dataset(
        entries,
        candidate_sets,
        backend="x86" if have_native_toolchain() else "none",
        jobs=jobs,
        cache=cache,
    )
    return json.dumps(report, indent=2, sort_keys=True)


def _small_grid(seed=13, functions=3, candidates=4, cache=None):
    entries = generated_entries(
        seed, functions, max_stmts=6, isas=("x86",), opt_levels=("O0",), cache=cache
    )
    sets = [
        Mutator(entry.seed).candidates(entry, candidates, cache=cache)
        for entry in entries
    ]
    return entries, sets


def test_reports_byte_identical_cold_warm_nocache(tmp_path):
    entries, sets = _small_grid()
    nocache = _score_report(entries, sets, cache=None)

    cold_cache = EvalCache(tmp_path)
    cold = _score_report(entries, sets, cache=cold_cache)
    assert cold == nocache
    assert cold_cache.stats_summary()["layers"]["verdict"]["stores"] > 0

    warm_cache = EvalCache(tmp_path)
    warm = _score_report(entries, sets, cache=warm_cache)
    assert warm == nocache
    verdict = warm_cache.stats_summary()["layers"]["verdict"]
    assert verdict["misses"] == 0  # every candidate came from the memo
    assert verdict["hits"] > 0


def test_reports_byte_identical_across_jobs(tmp_path):
    entries, sets = _small_grid()
    cache = EvalCache(tmp_path)
    sequential = _score_report(entries, sets, cache=cache, jobs=1)
    parallel = _score_report(entries, sets, cache=EvalCache(tmp_path), jobs=2)
    assert sequential == parallel


def test_warm_dataset_build_skips_generation(tmp_path):
    cold_cache = EvalCache(tmp_path)
    _small_grid(cache=cold_cache)
    warm_cache = EvalCache(tmp_path)
    _small_grid(cache=warm_cache)
    summary = warm_cache.stats_summary()
    assert summary["layers"]["entry"]["misses"] == 0
    assert summary["layers"]["candidates"]["misses"] == 0
    assert summary["misses"] == 0


# ---------------------------------------------------------------------------
# Temp-file hygiene (the _publish cleanup + stale-reap bugfix)
# ---------------------------------------------------------------------------


def _tmp_files(cache: EvalCache):
    return sorted(cache.root.glob(".tmp-*"))


def test_publish_cleans_tmp_on_writer_exception(tmp_path):
    """A writer failing with anything (not just OSError) must not strand
    its temp file; the exception itself still propagates."""
    cache = EvalCache(tmp_path / "cache")

    def bad_writer(tmp):
        raise ValueError("boom")

    with pytest.raises(ValueError):
        cache._publish(bad_writer, cache.root / "layer" / "ab" / "abcd.json")
    assert _tmp_files(cache) == []


def test_publish_swallows_oserror_but_cleans_tmp(tmp_path):
    """Best-effort semantics for environmental failures: the write is
    dropped silently, and the temp file is dropped with it."""
    cache = EvalCache(tmp_path / "cache")

    def disk_full(tmp):
        raise OSError("no space left on device")

    cache._publish(disk_full, cache.root / "layer" / "ab" / "abcd.json")
    assert _tmp_files(cache) == []


def test_publish_interrupt_cleans_tmp(tmp_path):
    """KeyboardInterrupt mid-write (the report's original repro) cleans up
    and propagates — it is not swallowed like an OSError."""
    cache = EvalCache(tmp_path / "cache")

    def interrupted(tmp):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cache._publish(interrupted, cache.root / "layer" / "ab" / "abcd.json")
    assert _tmp_files(cache) == []


def test_stale_tmp_reaped_on_init_and_sweep(tmp_path):
    """Temp files stranded by an older code version (or SIGKILL) are
    reaped by cache open and by sweep(); fresh ones — possibly a live
    concurrent writer's — are left alone."""
    root = tmp_path / "cache"
    cache = EvalCache(root)
    stale = root / ".tmp-stale"
    fresh = root / ".tmp-fresh"
    stale.write_bytes(b"dead")
    fresh.write_bytes(b"alive")
    old = time.time() - 2 * EvalCache.STALE_TMP_SECONDS
    os.utime(stale, (old, old))

    reopened = EvalCache(root)
    assert not stale.exists()
    assert fresh.exists()

    os.utime(fresh, (old, old))
    reopened.sweep()
    assert not fresh.exists()
