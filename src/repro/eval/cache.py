"""Content-addressed artifact & verdict cache: warm starts for ``repro.eval``.

One SQLite file, ``cache.sqlite`` inside the cache dir (default
``.repro-cache/``), holds every layer the ``repro.eval`` entry points
reuse instead of recomputing:

* **dataset entries** — built (assembly, reference C, IO-vector) triples
  and certified candidate sets, keyed by their content;
* **linked binaries** — batch executables (stored as blobs), keyed by
  their full translation units;
* **verdict memos** — ``(candidate, reference, substrate) →``
  :class:`~repro.eval.score.CandidateScore` payloads, so one execution
  serves every byte-identical candidate across rounds, beams and campaigns.

Every key that names a source uses its raw text, as the caller spelled
it: a hit returns what the miss path computes from that very text, so the
cache needs no notion of which spellings are equivalent.

Correctness properties:

* **Self-invalidating keys.**  Every key mixes in :data:`SCHEMA_VERSION`
  and :func:`pipeline_fingerprint`, a digest of every ``.py`` file in the
  ``repro`` package, so a stale cache can never resurrect verdicts the
  current code would not produce.  A hit returns exactly what the miss
  path would have computed and stored, so reports are byte-identical
  cache-cold, cache-warm and under ``--no-cache``.
* **Crash- and race-safe writes.**  A put is one autocommitted row in a
  WAL-mode database: ``--jobs`` workers, daemon threads and parallel CI
  legs sharing a cache dir never see a partial entry, and racing writers
  of one key store the same bytes.  Writes are best-effort: a locked,
  full or read-only store drops the write.
* **Corruption is a miss, never a crash.**  A row whose envelope does not
  decode, or names another schema, is deleted, counted ``corrupt`` and
  read as a miss.  A ``cache.sqlite`` that is not a database is replaced.
* **Bounded size.**  :meth:`EvalCache.sweep` evicts least-recently-used
  rows (every read refreshes ``last_used``; ties go by ``(layer, key)``)
  until the store fits its cap, then gives the freed pages back to the
  file system.

Warm reads stay in the process:

* **A bounded in-process tier.**  :meth:`EvalCache.get` keeps the raw
  bytes of rows it has read from the store, up to :data:`TIER_MAX_BYTES`
  shared by the process's threads, and answers a repeated read from them
  without SQL; each hit decodes its own copy.  Puts do not fill the tier,
  so a cold batch run holds nothing extra.  A row leaves the tier when
  ``get`` deletes it as corrupt, when ``put`` replaces it, and when
  ``sweep`` evicts anything; pickled copies start empty.
* **Batched recency.**  Reads record their row's ``last_used`` in memory;
  the recorded rows go out in one transaction once
  :data:`RECENCY_FLUSH_ROWS` distinct rows are waiting, and always before
  ``sweep`` picks its victims, so within a process the LRU order a sweep
  sees is that of a write per read.  Two caveats, neither of which can
  change a verdict, because every key is content-addressed and
  fingerprinted: another process's sweep sees this process's reads only
  after its next flush, and a process that crashes (or ends without a
  sweep or :meth:`EvalCache.flush`) loses the recency it had not flushed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when any cached payload's shape or meaning changes; part of every
#: key *and* checked in every stored envelope, so schema-mismatched rows
#: read as misses even if the key somehow collides.
SCHEMA_VERSION = 1

#: Default cache location (relative to the working directory) used by the
#: ``--cache-dir`` CLI flags.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default size cap applied by the CLI-level eviction sweep.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Page cache per connection, in KiB.  Lookups are point reads by primary
#: key, so a small cache costs no speed, and every process and daemon
#: thread holds its own connection.
PAGE_CACHE_KIB = 64

#: How long a writer waits for another connection's lock before the
#: (best-effort) operation gives up.
BUSY_TIMEOUT_S = 30.0

#: Byte cap of the in-process tier of raw rows :meth:`EvalCache.get` has
#: read from the store.  The 18 repeat functions of a 30 s perfbench
#: ``serve`` run take 123 KB of it (90 entry and verdict rows).
TIER_MAX_BYTES = 4 << 20

#: Distinct rows whose reads are recorded before their ``last_used``
#: refresh is written, in one transaction.
RECENCY_FLUSH_ROWS = 256

# ``size`` and ``last_used`` precede the value so the sweep reads them
# without touching a large blob's overflow pages.  auto_vacuum must be set
# before the table exists to take effect.
_SETUP = f"""
PRAGMA auto_vacuum = INCREMENTAL; PRAGMA journal_mode = WAL;
PRAGMA synchronous = NORMAL; PRAGMA cache_size = -{PAGE_CACHE_KIB};
CREATE TABLE IF NOT EXISTS entries (layer TEXT NOT NULL, key TEXT NOT NULL,
    size INTEGER NOT NULL, last_used INTEGER NOT NULL, value BLOB NOT NULL,
    PRIMARY KEY (layer, key));
"""

# Every row outside the newest run of rows whose sizes sum to at most the
# cap: the oldest ``(last_used, layer, key)`` first, one statement.
_EVICT = """
DELETE FROM entries WHERE rowid IN (SELECT rowid FROM (
    SELECT rowid, SUM(size) OVER (ORDER BY last_used DESC, layer DESC, key DESC) AS kept
    FROM entries) WHERE kept > ?)
"""

#: Connections inherited across ``fork()``: SQLite forbids touching them
#: in the child, and closing one counts, so they are kept referenced.
_inherited: List[threading.local] = []

_fingerprint: Optional[str] = None


def pipeline_fingerprint() -> str:
    """Digest of every ``.py`` file in the ``repro`` package, cached.

    This is the self-invalidation component of every cache key: any edit
    to the generator, front end, compiler, interpreter, native harness or
    scorer yields a different fingerprint and therefore a cold cache —
    the safe default for a codebase where all of those define what the
    cached bytes *mean*.
    """
    global _fingerprint
    if _fingerprint is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _fingerprint = digest.hexdigest()
    return _fingerprint


def json_digest(payload: Any) -> str:
    """sha256 hex digest of a canonical JSON rendering of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counter() -> Dict[str, int]:
    return {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0, "dropped": 0}


class EvalCache:
    """One content-addressed store with named layers.

    A *layer* names a kind of payload (``entry``, ``candidates``,
    ``binary``, ``verdict``); a *key* is a hex digest computed by
    :meth:`key`, which always mixes in the schema version and the pipeline
    fingerprint.  JSON payloads are stored in an envelope that repeats the
    schema version so damaged or legacy rows are detected on read; linked
    binaries are stored as raw blobs.

    The database connection is opened lazily, one per process and thread:
    pickled copies (``--jobs`` workers) and the daemon's worker threads
    each open their own.  The counters, the in-process tier and the
    recorded reads are shared by those threads, so they are updated and
    read under one lock.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "cache.sqlite"
        self.stats: Dict[str, Dict[str, int]] = {}
        self.evictions = 0
        self._init_process_state()

    def _init_process_state(self) -> None:
        self._local = threading.local()
        self._pid = os.getpid()
        self._lock = threading.Lock()
        #: ``(layer, key) -> raw row`` in least-recently-read order.
        self._tier: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self._tier_bytes = 0
        #: ``(layer, key) -> time.time_ns()`` of its latest unflushed read.
        self._recent: Dict[Tuple[str, str], int] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # The connection, lock, tier and recorded reads are per process.
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in ("_local", "_pid", "_lock", "_tier", "_tier_bytes", "_recent")
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._init_process_state()

    # -- the connection -------------------------------------------------------

    def _db(self) -> sqlite3.Connection:
        """This thread's connection, opened on first use."""
        if self._pid != os.getpid():
            _inherited.append(self._local)
            self._local = threading.local()
            self._pid = os.getpid()
        db = getattr(self._local, "db", None)
        if db is None:
            try:
                db = self._connect()
            except sqlite3.DatabaseError as error:
                if isinstance(error, sqlite3.OperationalError):
                    raise  # locked or unwritable: the caller's operation fails
                # Not a database at all: start over with an empty store.
                for suffix in ("", "-wal", "-shm"):
                    Path(f"{self.path}{suffix}").unlink(missing_ok=True)
                db = self._connect()
            self._local.db = db
        return db

    def _connect(self) -> sqlite3.Connection:
        db = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None)
        try:
            db.executescript(_SETUP)
        except BaseException:
            db.close()
            raise
        return db

    # -- keys -----------------------------------------------------------------

    def key(self, *parts: Any) -> str:
        """A cache key from string-able parts + schema + fingerprint."""
        digest = hashlib.sha256()
        digest.update(f"schema={SCHEMA_VERSION}".encode())
        digest.update(b"\x00")
        digest.update(pipeline_fingerprint().encode())
        for part in parts:
            digest.update(b"\x00")
            digest.update(str(part).encode("utf-8"))
        return digest.hexdigest()

    # -- bookkeeping ----------------------------------------------------------

    def _bump(self, layer: str, field: str) -> None:
        with self._lock:
            self.stats.setdefault(layer, _counter())[field] += 1

    def absorb(self, summary: Dict[str, Any]) -> None:
        """Fold a worker process's :meth:`stats_summary` into this cache.

        ``--jobs`` workers operate on pickled copies of the cache object;
        their hit/miss counters come back with their results and are
        accumulated here so the parent's summary covers the whole run.
        """
        with self._lock:
            for layer, counts in summary.get("layers", {}).items():
                target = self.stats.setdefault(layer, _counter())
                for field in target:
                    target[field] += counts.get(field, 0)
            self.evictions += summary.get("evictions", 0)

    def stats_summary(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = dict(_counter(), evictions=self.evictions, layers={})
        with self._lock:
            for layer, counts in sorted(self.stats.items()):
                summary["layers"][layer] = dict(counts)
                for field in counts:
                    summary[field] += counts[field]
        return summary

    # -- rows -----------------------------------------------------------------

    def _read(self, layer: str, key: str) -> Optional[bytes]:
        """The stored value, or None; counts misses.

        A hit only records the read (:meth:`_note_read`): its ``last_used``
        refresh goes out with the next :meth:`flush`, so a read issues no
        write statement of its own.
        """
        try:
            row = self._db().execute(
                "SELECT value FROM entries WHERE layer = ? AND key = ?", (layer, key)
            ).fetchone()
        except sqlite3.DatabaseError:
            row = None
        if row is None:
            self._bump(layer, "misses")
            return None
        self._note_read(layer, key)
        return row[0]

    def _note_read(self, layer: str, key: str) -> None:
        with self._lock:
            self._recent[(layer, key)] = time.time_ns()
            full = len(self._recent) >= RECENCY_FLUSH_ROWS
        if full:
            self.flush()

    def flush(self) -> None:
        """Write the recorded reads' ``last_used`` in one transaction.

        ``MAX`` keeps a row's newer ``last_used``: a put (here or in another
        process) after the read refreshed it already.  Best-effort, like
        every write: a locked or damaged store loses the recency.
        """
        with self._lock:
            recent, self._recent = self._recent, {}
        if not recent:
            return
        rows = [(used, layer, key) for (layer, key), used in recent.items()]
        try:
            db = self._db()
            db.execute("BEGIN IMMEDIATE")
            try:
                db.executemany(
                    "UPDATE entries SET last_used = MAX(last_used, ?) "
                    "WHERE layer = ? AND key = ?",
                    rows,
                )
                db.execute("COMMIT")
            except BaseException:
                if db.in_transaction:
                    db.execute("ROLLBACK")
                raise
        except sqlite3.DatabaseError:
            pass

    def _write(self, layer: str, key: str, value: bytes) -> None:
        """Store one row, best-effort: a locked, full or damaged store drops
        it, counted ``dropped``."""
        self._forget(layer, key)
        try:
            self._db().execute(
                "INSERT OR REPLACE INTO entries (layer, key, size, last_used, value) "
                "VALUES (?, ?, ?, ?, ?)",
                (layer, key, len(value), time.time_ns(), value),
            )
        except sqlite3.DatabaseError:
            self._bump(layer, "dropped")
            return
        self._bump(layer, "stores")

    # -- the in-process tier --------------------------------------------------

    def _tier_get(self, layer: str, key: str) -> Optional[bytes]:
        with self._lock:
            raw = self._tier.get((layer, key))
            if raw is not None:
                self._tier.move_to_end((layer, key))
        return raw

    def _tier_put(self, layer: str, key: str, raw: bytes) -> None:
        if len(raw) > TIER_MAX_BYTES:
            return
        with self._lock:
            old = self._tier.pop((layer, key), None)
            if old is not None:
                self._tier_bytes -= len(old)
            self._tier[(layer, key)] = raw
            self._tier_bytes += len(raw)
            while self._tier_bytes > TIER_MAX_BYTES:
                _, evicted = self._tier.popitem(last=False)
                self._tier_bytes -= len(evicted)

    def _forget(self, layer: str, key: str) -> None:
        with self._lock:
            old = self._tier.pop((layer, key), None)
            if old is not None:
                self._tier_bytes -= len(old)

    # -- JSON payloads --------------------------------------------------------

    def get(self, layer: str, key: str) -> Optional[Any]:
        """The stored payload, or None (miss).  Damage reads as a miss.

        A row read from the store before is answered from the in-process
        tier, without SQL; the read is recorded for recency either way.
        """
        raw = self._tier_get(layer, key)
        from_store = raw is None
        if from_store:
            raw = self._read(layer, key)
            if raw is None:
                return None
        else:
            self._note_read(layer, key)
        try:
            envelope = json.loads(raw)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != SCHEMA_VERSION
                or "payload" not in envelope
            ):
                raise ValueError("bad cache envelope")
        except (ValueError, UnicodeDecodeError):
            # Deleted, so the damage cannot fail a second reader.
            self._bump(layer, "corrupt")
            self._bump(layer, "misses")
            self._forget(layer, key)
            try:
                self._db().execute("DELETE FROM entries WHERE layer = ? AND key = ?", (layer, key))
            except sqlite3.DatabaseError:
                pass
            return None
        if from_store:
            self._tier_put(layer, key, raw)
        self._bump(layer, "hits")
        return envelope["payload"]

    def put(self, layer: str, key: str, payload: Any) -> None:
        envelope = {"schema": SCHEMA_VERSION, "payload": payload}
        # Insertion order is part of the payload (e.g. a dataset entry's
        # assembly grid keeps its build order through the JSON round-trip),
        # so no sort_keys here — canonical sorting is for digests only.
        self._write(layer, key, json.dumps(envelope).encode("utf-8"))

    # -- binary payloads (linked batch/case executables) ----------------------

    def get_file(self, layer: str, key: str, destination: Path) -> bool:
        """Write a cached binary to ``destination`` (executable); False = miss."""
        blob = self._read(layer, key)
        if blob is None:
            return False
        try:
            Path(destination).write_bytes(blob)
            os.chmod(destination, 0o755)
        except OSError:
            self._bump(layer, "misses")
            return False
        self._bump(layer, "hits")
        return True

    def put_file(self, layer: str, key: str, source: Path) -> None:
        try:
            blob = Path(source).read_bytes()
        except OSError:
            return
        self._write(layer, key, blob)

    # -- eviction -------------------------------------------------------------

    def total_bytes(self) -> int:
        """The summed size of every stored value."""
        try:
            return self._db().execute("SELECT COALESCE(SUM(size), 0) FROM entries").fetchone()[0]
        except sqlite3.DatabaseError:
            return 0

    def sweep(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used rows until the store fits the cap.

        Rows go oldest ``last_used`` first (reads refresh it, making this
        LRU; this process's recorded reads are flushed first), ties broken
        by ``(layer, key)`` so the order is deterministic, in one
        transaction; the freed pages are then returned to the file system.
        A sweep that has to evict empties the in-process tier.  Returns the
        number of rows evicted.
        """
        self.flush()
        cap = DEFAULT_MAX_BYTES if max_bytes is None else max_bytes
        if self.total_bytes() <= cap:
            return 0  # the common case, without the eviction query's sort
        with self._lock:
            self._tier.clear()
            self._tier_bytes = 0
        try:
            db = self._db()
            evicted = db.execute(_EVICT, (cap,)).rowcount
            if evicted:
                # executescript steps the vacuum to completion; execute()
                # would free a single page.
                db.executescript("PRAGMA incremental_vacuum; PRAGMA wal_checkpoint(TRUNCATE);")
        except sqlite3.DatabaseError:
            return 0
        self.evictions += evicted
        return evicted


def open_cache(cache_dir: Optional[object]) -> Optional[EvalCache]:
    """An :class:`EvalCache` at ``cache_dir``, or None when disabled."""
    if cache_dir is None:
        return None
    return EvalCache(Path(os.fspath(cache_dir)))


def describe_stats(summary: Dict[str, Any]) -> str:
    """One human line for the CLI ``cache`` section."""
    layers = ", ".join(
        f"{layer} {counts['hits']}/{counts['hits'] + counts['misses']}"
        for layer, counts in sorted(summary.get("layers", {}).items())
    )
    line = (
        f"{summary.get('hits', 0)} hits, {summary.get('misses', 0)} misses, "
        f"{summary.get('stores', 0)} stores, {summary.get('corrupt', 0)} corrupt, "
        f"{summary.get('dropped', 0)} dropped, {summary.get('evictions', 0)} evicted"
    )
    return f"{line} [{layers}]" if layers else line


def add_cache_arguments(parser) -> None:
    """The shared ``--cache-dir`` / ``--no-cache`` CLI surface."""
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed cache directory for built entries, compiled "
        f"artifacts and verdict memos (default {DEFAULT_CACHE_DIR}/; results "
        "are byte-identical with or without it)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cache entirely (cold-start every layer)",
    )


def cache_from_args(args) -> Optional[EvalCache]:
    return None if args.no_cache else open_cache(args.cache_dir)


__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "EvalCache",
    "SCHEMA_VERSION",
    "add_cache_arguments",
    "cache_from_args",
    "describe_stats",
    "json_digest",
    "open_cache",
    "pipeline_fingerprint",
]
