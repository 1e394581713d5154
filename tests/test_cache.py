"""Tests for the persistent eval cache (``repro.eval.cache``).

Pins the cache's contract: cache-warm runs are byte-identical to
cache-cold and ``--no-cache`` runs at any ``--jobs`` count, damaged or
schema-mismatched rows read as misses (deleted, never a crash), a
``cache.sqlite`` that is not a database is replaced, concurrent processes
and threads racing one store all succeed and leave one valid row per key,
and the LRU sweep evicts deterministically under a size cap and shrinks
the file.
"""

import hashlib
import json
import multiprocessing
import os
import pickle
import sqlite3
import sys
import threading
from contextlib import closing, contextmanager
from pathlib import Path

import pytest

from repro.eval import cache as cache_module
from repro.eval.cache import (
    DEFAULT_CACHE_DIR,
    EvalCache,
    SCHEMA_VERSION,
    describe_stats,
    json_digest,
    open_cache,
    pipeline_fingerprint,
)
from repro.eval.dataset import (
    _entry_cache_key,
    build_entry,
    dataset_from_json,
    dataset_to_json,
    entry_from_json,
    generated_entries,
)
from repro.eval.mutate import Candidate, Mutator
from repro.eval.score import (
    _entry_key_parts,
    _verdict_key,
    score_candidates,
    score_dataset,
)
from repro.testing.native import have_native_toolchain

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def test_keys_are_stable_and_distinct(tmp_path):
    cache = EvalCache(tmp_path)
    assert cache.key("a", 1) == cache.key("a", 1)
    assert cache.key("a", 1) != cache.key("a", 2)
    assert cache.key("a", 1) != cache.key("a")
    # Keys are full sha256 digests (the fingerprint itself is one too).
    assert len(cache.key("x")) == 64
    assert len(pipeline_fingerprint()) == 64


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


def test_counters_are_exact_under_thread_contention(tmp_path):
    """The daemon's worker threads share one cache's counters: concurrent
    bumps, each switching threads as often as the interpreter allows,
    lose no update."""
    cache = EvalCache(tmp_path)
    threads, bumps = 4, 20000

    def bump():
        for _ in range(bumps):
            cache._bump("verdict", "hits")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert cache.stats_summary()["layers"]["verdict"]["hits"] == threads * bumps


def test_failed_write_is_counted_dropped_and_never_raises(tmp_path, monkeypatch):
    """A write the store refuses (disk full) is dropped, counted per layer
    and in the total, and shown by describe_stats."""
    cache = EvalCache(tmp_path)

    class FullDisk:
        def execute(self, *args):
            raise sqlite3.OperationalError("database or disk is full")

    monkeypatch.setattr(cache, "_db", lambda: FullDisk())
    cache.put("verdict", cache.key("full"), {"verdict": "io_equivalent"})
    cache.put_file("binary", cache.key("full"), Path(__file__))
    summary = cache.stats_summary()
    assert summary["layers"]["verdict"]["dropped"] == 1
    assert summary["layers"]["binary"]["dropped"] == 1
    assert summary["dropped"] == 2 and summary["stores"] == 0
    assert "2 dropped" in describe_stats(summary)


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


def test_absorb_folds_worker_stats(tmp_path):
    cache = EvalCache(tmp_path)
    cache._bump("verdict", "hits")
    cache.absorb(
        {
            "evictions": 2,
            "layers": {
                "verdict": {"hits": 3, "misses": 1, "stores": 1, "corrupt": 0},
                "binary": {"hits": 1, "misses": 0, "stores": 0, "corrupt": 0},
            },
        }
    )
    summary = cache.stats_summary()
    assert summary["layers"]["verdict"]["hits"] == 4
    assert summary["layers"]["binary"]["hits"] == 1
    assert summary["evictions"] == 2
    # A second worker's summary accumulates on top of the first.
    cache.absorb(summary)
    assert cache.stats_summary()["hits"] == 2 * summary["hits"]


def test_open_cache_none_means_disabled(tmp_path):
    assert open_cache(None) is None
    cache = open_cache(tmp_path / "c")
    assert isinstance(cache, EvalCache)
    assert (tmp_path / "c").is_dir()
    assert DEFAULT_CACHE_DIR == ".repro-cache"


# ---------------------------------------------------------------------------
# Corruption and schema mismatch: always a miss, never a crash
# ---------------------------------------------------------------------------


def _execute(cache, sql, params=()):
    """Run one committed statement past the cache's own connection."""
    with closing(sqlite3.connect(cache.path)) as db, db:
        return db.execute(sql, params).fetchall()


def _rows(cache):
    """Every stored ``(layer, key)``."""
    return _execute(cache, "SELECT layer, key FROM entries ORDER BY layer, key")


def _store_files(root):
    """The cache dir's files: the database and its WAL companions only."""
    return sorted(path.name for path in Path(root).rglob("*"))


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
def test_corrupt_row_is_deleted_miss(tmp_path, damage):
    cache = EvalCache(tmp_path)
    key = cache.key("damage")
    cache.put("entry", key, {"ok": True})
    _execute(cache, "UPDATE entries SET value = ?", (damage,))
    assert cache.get("entry", key) is None  # miss, not an exception
    assert _rows(cache) == []  # the damaged row is gone
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
    _execute(cache, "UPDATE entries SET value = ?", (b"\x00 corrupt \x00",))
    cache_after = EvalCache(tmp_path)
    [rebuilt] = generated_entries(3, 1, max_stmts=5, cache=cache_after)
    assert rebuilt.to_json() == entry.to_json()
    assert cache_after.stats_summary()["corrupt"] >= 1


def test_garbage_database_file_is_replaced(tmp_path):
    """A ``cache.sqlite`` that is not a database is replaced on open: the
    first lookup misses and the store works from then on."""
    (tmp_path / "cache.sqlite").write_bytes(b"\xde\xad not an sqlite file " * 64)
    cache = EvalCache(tmp_path)
    key = cache.key("garbage")
    assert cache.get("entry", key) is None
    assert cache.stats_summary()["misses"] == 1
    cache.put("entry", key, {"ok": True})
    assert EvalCache(tmp_path).get("entry", key) == {"ok": True}


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
    # Exactly one row, valid, and nothing in the dir but the database.
    assert cache.get("entry", key) == {"value": "x" * 4096}
    assert _rows(cache) == [("entry", key)]
    assert set(_store_files(tmp_path)) <= {"cache.sqlite", "cache.sqlite-wal", "cache.sqlite-shm"}


def _pickled_worker(cache):
    cache.stats = {}
    got = cache.get("entry", cache.key("from-parent"))
    cache.put("entry", cache.key("from-worker"), {"by": os.getpid()})
    return got, cache.stats_summary()


def test_pickled_cache_reads_and_writes_in_a_worker(tmp_path):
    """``--jobs`` workers get pickled copies: each opens its own
    connection (the parent's is open, and must not cross the fork)."""
    cache = EvalCache(tmp_path)
    cache.put("entry", cache.key("from-parent"), {"by": "parent"})
    with multiprocessing.Pool(processes=1) as pool:
        [(got, summary)] = pool.map(_pickled_worker, [cache])
    assert got == {"by": "parent"}
    assert summary["hits"] == 1 and summary["stores"] == 1
    written = cache.get("entry", cache.key("from-worker"))
    assert written is not None and written["by"] != os.getpid()
    # The parent's own connection still works after the fork.
    cache.put("entry", cache.key("after"), {"ok": True})
    assert cache.get("entry", cache.key("after")) == {"ok": True}


def test_threads_share_one_cache(tmp_path):
    """The daemon's worker threads share one ``EvalCache``; each thread
    gets its own connection and sees every other thread's rows."""
    cache = EvalCache(tmp_path)
    errors = []

    def work(thread):
        try:
            for index in range(50):
                key = cache.key("thread", thread, index)
                cache.put("verdict", key, {"thread": thread, "index": index})
                assert cache.get("verdict", key) == {"thread": thread, "index": index}
                cache.put("verdict", cache.key("shared"), {"same": "bytes"})
        except BaseException as error:  # surfaced on the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(_rows(cache)) == 4 * 50 + 1
    assert cache.get("verdict", cache.key("thread", 3, 49)) == {"thread": 3, "index": 49}
    assert cache.get("verdict", cache.key("shared")) == {"same": "bytes"}


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


def _size(cache, key):
    [(size,)] = _execute(cache, "SELECT size FROM entries WHERE key = ?", (key,))
    return size


def test_sweep_evicts_lru_first_deterministically(tmp_path):
    cache = EvalCache(tmp_path)
    keys = [cache.key("evict", index) for index in range(4)]
    for index, key in enumerate(keys):
        cache.put("entry", key, {"index": index, "pad": "p" * 512})
        _execute(cache, "UPDATE entries SET last_used = ? WHERE key = ?", (1_000 + index, key))
    # A hit refreshes recency: key 0 becomes the newest entry.
    assert cache.get("entry", keys[0]) is not None
    evicted = cache.sweep(max_bytes=_size(cache, keys[0]))
    assert evicted == 3
    assert cache.get("entry", keys[0]) is not None
    for key in keys[1:]:
        assert cache.get("entry", key) is None
    assert cache.evictions == 3


def test_sweep_tie_break_is_by_path(tmp_path):
    """Equal ``last_used``: the row with the smallest ``(layer, key)``
    address goes first."""
    cache = EvalCache(tmp_path)
    keys = [cache.key("tie", index) for index in range(3)]
    for key in keys:
        cache.put("entry", key, {"pad": "p" * 128})
    _execute(cache, "UPDATE entries SET last_used = 5")
    keep_two = sum(_size(cache, key) for key in keys) - 1
    assert cache.sweep(max_bytes=keep_two) == 1
    assert [key for _, key in _rows(cache)] == sorted(keys)[1:]


def test_sweep_under_cap_is_a_no_op(tmp_path):
    cache = EvalCache(tmp_path)
    cache.put("entry", cache.key("keep"), {"ok": True})
    assert cache.sweep() == 0
    assert cache.total_bytes() > 0


def test_sweep_shrinks_the_file(tmp_path):
    """Evicted rows give their pages back: the database and its WAL
    shrink, not just the row count."""
    cache = EvalCache(tmp_path)
    blob = tmp_path / "blob.bin"
    blob.write_bytes(os.urandom(16 * 1024))
    for index in range(200):
        cache.put_file("binary", cache.key("blob", index), blob)

    def on_disk():
        return sum(path.stat().st_size for path in tmp_path.glob("cache.sqlite*"))

    full = on_disk()
    assert full > 200 * 16 * 1024
    assert cache.sweep(max_bytes=16 * 1024) == 199
    assert on_disk() < full / 10


# ---------------------------------------------------------------------------
# The in-process tier and batched recency
# ---------------------------------------------------------------------------


@contextmanager
def _traced(cache):
    """Every SQL statement the cache's own connection runs in the block."""
    statements = []
    db = cache._db()
    db.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        db.set_trace_callback(None)


def _writes(statements):
    return [s for s in statements if not s.lstrip().upper().startswith("SELECT")]


def test_tier_hit_runs_no_sql(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("tier")
    cache.put("verdict", key, {"verdict": "io_equivalent"})
    # A store hit reads its row and writes nothing: its recency is recorded.
    with _traced(cache) as statements:
        first = cache.get("verdict", key)
    assert first == {"verdict": "io_equivalent"}
    assert len(statements) == 1 and _writes(statements) == []
    # A repeat is answered from the tier: no SQL at all.
    with _traced(cache) as statements:
        second = cache.get("verdict", key)
    assert statements == []
    assert second == first and second is not first  # each hit decodes its own copy
    second["verdict"] = "aliased"
    assert cache.get("verdict", key) == {"verdict": "io_equivalent"}
    layer = cache.stats_summary()["layers"]["verdict"]
    assert (layer["hits"], layer["misses"], layer["stores"]) == (3, 0, 1)


def test_puts_do_not_fill_the_tier(tmp_path):
    cache = EvalCache(tmp_path)
    cache.put("verdict", cache.key("cold"), {"ok": True})
    assert not cache._tier


def test_put_replaces_a_tier_row(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("replace")
    cache.put("entry", key, {"version": 1})
    assert cache.get("entry", key) == {"version": 1}
    cache.put("entry", key, {"version": 2})
    assert cache.get("entry", key) == {"version": 2}


def test_tier_byte_cap_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "TIER_MAX_BYTES", 3000)
    cache = EvalCache(tmp_path)
    keys = [cache.key("cap", index) for index in range(8)]
    for index, key in enumerate(keys):
        cache.put("entry", key, {"index": index, "pad": "p" * 900})
        assert cache.get("entry", key)["index"] == index
        assert cache._tier_bytes == sum(len(raw) for raw in cache._tier.values()) <= 3000
    # The most recently read rows stay; older ones are read from the store.
    assert list(cache._tier) == [("entry", key) for key in keys[-3:]]
    with _traced(cache) as statements:
        cache.get("entry", keys[-1])
    assert statements == []
    with _traced(cache) as statements:
        cache.get("entry", keys[0])
    assert len(statements) == 1
    # A row larger than the whole tier is never kept.
    big = cache.key("big")
    cache.put("entry", big, {"pad": "p" * 4000})
    assert cache.get("entry", big) is not None
    assert ("entry", big) not in cache._tier


def test_sweep_eviction_empties_the_tier(tmp_path):
    cache = EvalCache(tmp_path)
    keys = [cache.key("swept", index) for index in range(3)]
    for key in keys:
        cache.put("entry", key, {"pad": "p" * 256})
        assert cache.get("entry", key) is not None
    assert cache.sweep(max_bytes=0) == 3
    for key in keys:
        assert cache.get("entry", key) is None
    assert cache.stats_summary()["layers"]["entry"]["misses"] == 3


def test_deleted_corrupt_row_stays_a_miss(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("corrupt-tier")
    cache.put("entry", key, {"ok": True})
    _execute(cache, "UPDATE entries SET value = ?", (b"not json",))
    assert cache.get("entry", key) is None
    assert cache.get("entry", key) is None
    assert ("entry", key) not in cache._tier
    summary = cache.stats_summary()["layers"]["entry"]
    assert (summary["hits"], summary["misses"], summary["corrupt"]) == (0, 2, 1)


def test_pickled_copy_starts_with_an_empty_tier(tmp_path):
    cache = EvalCache(tmp_path)
    key = cache.key("pickled")
    cache.put("entry", key, {"ok": True})
    assert cache.get("entry", key) == {"ok": True}
    assert cache._tier and cache._recent
    copy = pickle.loads(pickle.dumps(cache))
    assert not copy._tier and not copy._recent and copy._tier_bytes == 0
    with _traced(copy) as statements:
        assert copy.get("entry", key) == {"ok": True}
    assert len(statements) == 1  # read from the store, not from the parent's tier


def test_tier_and_recency_hold_under_thread_contention(tmp_path, monkeypatch):
    """The daemon's threads share the tier and the recorded reads: with
    more threads than cores switching as often as the interpreter allows,
    every read returns its own row, the tier's byte count matches its rows
    and stays under the cap, and every read row's recency reaches the
    store."""
    monkeypatch.setattr(cache_module, "TIER_MAX_BYTES", 4000)
    monkeypatch.setattr(cache_module, "RECENCY_FLUSH_ROWS", 5)
    cache = EvalCache(tmp_path)
    keys = [cache.key("contended", index) for index in range(12)]
    for index, key in enumerate(keys):
        cache.put("verdict", key, {"index": index, "pad": "p" * 400})
    _execute(cache, "UPDATE entries SET last_used = 1")
    errors = []

    def work(thread):
        try:
            for step in range(300):
                index = (thread * 5 + step) % len(keys)
                assert cache.get("verdict", keys[index])["index"] == index
        except BaseException as error:  # surfaced on the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache._tier_bytes == sum(len(raw) for raw in cache._tier.values()) <= 4000
    assert cache.stats_summary()["layers"]["verdict"]["hits"] == 6 * 300
    cache.flush()
    assert all(used > 1 for (used,) in _execute(cache, "SELECT last_used FROM entries"))


def test_reads_flush_recency_in_one_transaction(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "RECENCY_FLUSH_ROWS", 3)
    cache = EvalCache(tmp_path)
    keys = [cache.key("recent", index) for index in range(3)]
    for key in keys:
        cache.put("entry", key, {"ok": True})
    _execute(cache, "UPDATE entries SET last_used = 7")
    with _traced(cache) as statements:
        cache.get("entry", keys[0])
        cache.get("entry", keys[0])  # the same row twice is one recorded read
        cache.get("entry", keys[1])
    assert _writes(statements) == []
    with _traced(cache) as statements:
        cache.get("entry", keys[2])  # the third distinct row fills the set
    writes = _writes(statements)
    assert writes[0] == "BEGIN IMMEDIATE" and writes[-1] == "COMMIT"
    assert sum(w.startswith("UPDATE") for w in writes) == 3
    assert all(used > 7 for (used,) in _execute(cache, "SELECT last_used FROM entries"))


def test_flush_keeps_a_newer_put(tmp_path):
    """A row put after it was read keeps the put's ``last_used``."""
    cache = EvalCache(tmp_path)
    key = cache.key("newer")
    cache.put("entry", key, {"version": 1})
    assert cache.get("entry", key) is not None
    cache.put("entry", key, {"version": 2})
    [(put_at,)] = _execute(cache, "SELECT last_used FROM entries")
    cache.flush()
    assert _execute(cache, "SELECT last_used FROM entries") == [(put_at,)]


def test_key_formulas_are_unchanged(tmp_path):
    """The verdict and entry keys hash exactly these parts, in this order;
    both name their source by its raw text."""
    reference = "int f(int a, int b)\n{ return a + b; }"
    inputs = [(1, 2), (-3, 4)]
    entry = build_entry(
        reference, "f", inputs, "uid", "test", isas=("x86",), opt_levels=("O0",)
    )
    cache = EvalCache(tmp_path)

    def formula(*parts):
        digest = hashlib.sha256(f"schema={SCHEMA_VERSION}".encode())
        digest.update(b"\x00" + pipeline_fingerprint().encode())
        for part in parts:
            digest.update(b"\x00" + str(part).encode("utf-8"))
        return digest.hexdigest()

    text = "int f(int a, int b) { return b + a; }"
    expected = formula(
        "verdict",
        text,
        reference,
        "f",
        json.dumps([list(args) for args in inputs]),
        json_digest([obs.to_json() for obs in entry.reference]),
        "x86",
        "O0",
        "10.0",
    )
    parts = _entry_key_parts(entry)
    assert _verdict_key(cache, entry, text, "x86", "O0", 10.0, parts) == expected
    assert _entry_cache_key(cache, reference, "f", inputs, ("x86",), ("O0",)) == formula(
        "entry", reference, "f", json.dumps([[1, 2], [-3, 4]]), "x86", "O0"
    )


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


def test_entry_hit_is_the_callers_own_formatting(tmp_path):
    """The entry layer is keyed by the raw reference text.  A reference that
    differs from a cached one in formatting alone builds its own entry, so
    its ``source`` and the similarity of a candidate the lexer rejects
    (measured on whitespace tokens, where formatting counts) are the cold
    answers."""
    inputs = [(1,), (5,)]
    spaced = "int f(int x) { return x + 1; }"
    tight = "int f(int x){return x+1;}"
    unlexable = [Candidate("int f(int x) { return x + 1; } @", "", "", "")]

    def build(source, cache=None):
        return build_entry(
            source, "f", inputs, "uid", "test", isas=("x86",), opt_levels=("O0",),
            cache=cache,
        )

    [cold] = score_candidates(build(tight), unlexable, backend="none")
    assert cold.similarity == 0.2

    cache = EvalCache(tmp_path)
    build(spaced, cache)
    entry = build(tight, cache)
    assert entry.source == tight
    [warm] = score_candidates(entry, unlexable, backend="none", cache=cache)
    assert warm.to_json() == cold.to_json()


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
