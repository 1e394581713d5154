"""Scoring as a service: a long-running HTTP/JSON daemon over the warm cache.

Every ``python -m repro.eval.score`` invocation cold-starts the world and
exits.  This module turns the scorer into infrastructure: one persistent
process that keeps the :class:`repro.eval.cache.EvalCache` verdict memo
and the per-worker build directories warm across requests, so scoring a
model's sampled candidates at volume pays the toolchain cost once per
*unique* candidate, not once per request.

Stdlib only — the server is ``http.server.ThreadingHTTPServer``; no web
framework, no new runtime dependency.  Requests are bounded (16 MiB body, 100
headers, 64 KiB header lines, 60 s read deadline); bad framing gets a JSON error.

Endpoints
---------

``POST /score``
    One scoring request (or ``{"requests": [...]}`` for several), answered
    synchronously: the request is queued to the worker pool and the
    response carries one verdict payload per candidate.
``POST /jobs`` / ``GET /jobs/<id>``
    The same request shape, asynchronously: ``POST`` journals and enqueues
    the job and returns its deterministic id immediately; ``GET`` polls
    status and (when done) the result.
``GET /stats``
    Cache hit/miss counters, queue depth, job counts, worker utilization.
``GET /healthz`` / ``POST /shutdown``
    Liveness probe and graceful stop.

Request shape (one scoring unit)::

    {
      "candidates": ["int f(int a){...}", {"text": "...", "kind": "...",
                     "label": "...", "expected": "..."}, ...],
      # Either a pre-built dataset triple (DatasetEntry.to_json(), with
      # reference observations — nothing is re-derived server-side):
      "entry": { ... },
      # ...or the raw ingredients; the server builds the triple (and
      # caches it) by compiling + interpreting the reference:
      "name": "f", "reference": "int f(int a){...}", "inputs": [[1], [2]],
      # Substrate (all optional):
      "backend": "x86" | "arm" | "none", "opt_level": "O0" | "O3",
      "lint": true, "run_timeout": 10.0
    }

Determinism
-----------

Verdicts go through :func:`repro.eval.score.score_entry_sets` — the exact
seam one ``--jobs`` worker runs — so a service verdict is byte-identical
to the CLI's for the same triple.  The ``score-grid`` client in this
module rebuilds the fixed-seed dataset locally, scores it over HTTP and
assembles the report with :func:`repro.eval.score.build_report`: the
written file is byte-identical to ``python -m repro.eval.score`` output
(CI ``cmp``s them).  The job journal is JSON lines with no timestamps;
replaying it after a restart re-enqueues unfinished jobs, which re-score
deterministically — the same discipline as ``repair --resume``.
"""

from __future__ import annotations

import argparse
import http.server
import json
import os
import queue
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.eval.cache import (
    EvalCache,
    add_cache_arguments,
    cache_from_args,
    describe_stats,
    json_digest,
)
from repro.eval.dataset import (
    DatasetEntry,
    DatasetError,
    build_entry,
    entry_from_json,
    generated_entries,
)
from repro.eval.mutate import Candidate, Mutator
from repro.eval.score import (
    CandidateScore,
    _resolve_backend,
    build_report,
    score_entry_sets,
    score_from_payload,
    score_to_payload,
)

DEFAULT_PORT = 8731

#: Largest accepted request body, read whole into memory.  The largest
#: single request of the 50x8 grid is 27.7 KB and the whole grid as one
#: ``{"requests": [...]}`` batch is 655 KB, so 16 MiB is ample headroom.
MAX_BODY_BYTES = 16 << 20

#: Read deadline (the handler's socket timeout): a client that stalls this
#: long mid-request or on an idle keep-alive connection is disconnected.  It
#: may not be short: perfbench's warm-fill connection idles for a third of
#: ``--seconds`` (10 s at the benchmark's 30 s) before it sends ``/stats``
#: and ``/shutdown``; a shorter deadline fails every serve round.
REQUEST_TIMEOUT_S = 60.0


class ServiceError(Exception):
    """A request the service rejects (HTTP 400)."""


# ---------------------------------------------------------------------------
# Jobs and the journal
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One queued scoring request and its lifecycle."""

    id: str
    seq: int
    request: Dict[str, Any]
    #: Journaled jobs (``POST /jobs``) persist across restarts; synchronous
    #: ``POST /score`` submissions do not.
    journaled: bool
    status: str = "pending"  # "pending" | "running" | "done" | "error"
    result: Optional[Any] = None
    error: str = ""
    #: Set when the job reaches a terminal status.
    done_event: threading.Event = field(default_factory=threading.Event)

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"id": self.id, "seq": self.seq, "status": self.status}
        if self.status == "done":
            out["result"] = self.result
        elif self.status == "error":
            out["error"] = self.error
        return out


class JobJournal:
    """Append-only JSON-lines journal of jobs and their results.

    Two record types: ``{"type": "job", "seq", "id", "request"}`` written
    at submission, and ``{"type": "result", **Job.to_json()}`` written at
    completion.  No timestamps, no RNG: replaying the journal after a
    restart reconstructs exactly the jobs that were in flight, and
    re-scoring them is deterministic, so a restarted daemon converges on
    byte-identical results.  A truncated tail line (crash mid-append) is
    skipped on replay rather than poisoning the journal.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def replay(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    try:  # blank or torn lines fail to parse and are skipped
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        records.append(record)
        except FileNotFoundError:
            pass
        return records


def job_id_for(seq: int, request: Dict[str, Any]) -> str:
    """Deterministic job id: submission order + request content digest."""
    return f"job-{seq}-{json_digest(request)[:12]}"


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class ScoringService:
    """The daemon: HTTP front end, worker pool, journal, shared cache.

    Workers are threads (scoring is subprocess-bound: the GIL is released
    in ``select``/``communicate`` waits), each owning a persistent build
    directory so fork-server groups and compiled artifacts are not
    re-materialised per request.  ``workers=0`` starts no workers — jobs
    queue up and persist, which is how the restart tests freeze a job
    in-flight.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        backend: str = "x86",
        cache: Optional[EvalCache] = None,
        journal: Optional[Path] = None,
        workdir: Optional[Path] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = max(0, workers)
        self.backend = backend
        self.cache = cache
        self.journal = JobJournal(journal) if journal is not None else None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if workdir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="minic-service-")
            workdir = Path(self._tmp.name)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

        self.jobs: Dict[str, Job] = {}
        self._jobs_order: List[str] = []
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._busy: List[bool] = [False] * self.workers
        self._seq = 0
        self._lock = threading.Lock()
        self._request_counts: Dict[str, int] = {}
        self._stopped = False

        self.bound_port: Optional[int] = None
        self._server: Optional[_Server] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

        if self.journal is not None:
            self._replay_journal()

    # -- journal replay -------------------------------------------------------

    def _replay_journal(self) -> None:
        assert self.journal is not None
        for record in self.journal.replay():
            kind = record.get("type")
            if kind == "job" and isinstance(record.get("request"), dict):
                job = Job(
                    id=str(record["id"]),
                    seq=int(record["seq"]),
                    request=record["request"],
                    journaled=True,
                )
                if job.id in self.jobs:
                    continue
                self.jobs[job.id] = job
                self._jobs_order.append(job.id)
                self._seq = max(self._seq, job.seq + 1)
            elif kind == "result" and record.get("id") in self.jobs:
                job = self.jobs[str(record["id"])]
                job.status = str(record.get("status", "error"))
                job.result = record.get("result")
                job.error = str(record.get("error", ""))
                job.done_event.set()
        # Unfinished jobs (no result record: the previous daemon died with
        # them queued or mid-run) are re-enqueued in submission order.
        for job_id in self._jobs_order:
            job = self.jobs[job_id]
            if job.status in ("pending", "running"):
                job.status = "pending"
                self._queue.put(job)

    # -- request parsing ------------------------------------------------------

    def _validate_unit(self, request: Any) -> None:
        """Cheap shape validation at submission time (HTTP 400 on failure);
        expensive failures (a reference that will not build) surface as the
        job's error status instead."""
        if not isinstance(request, dict):
            raise ServiceError("request body must be a JSON object")
        candidates = request.get("candidates")
        if not isinstance(candidates, list) or not candidates:
            raise ServiceError("'candidates' must be a non-empty list")
        for spec in candidates:
            if isinstance(spec, str):
                continue
            if not isinstance(spec, dict) or not isinstance(spec.get("text"), str):
                raise ServiceError(
                    "each candidate must be a source string or an object "
                    "with a 'text' field"
                )
        if "entry" in request:
            if not isinstance(request["entry"], dict):
                raise ServiceError("'entry' must be a DatasetEntry JSON object")
            for key in ("uid", "name", "source", "inputs", "reference"):
                if key not in request["entry"]:
                    raise ServiceError(f"'entry' is missing {key!r}")
        else:
            if not isinstance(request.get("name"), str) or not isinstance(
                request.get("reference"), str
            ):
                raise ServiceError(
                    "request needs either a prebuilt 'entry' or "
                    "'name' + 'reference' + 'inputs'"
                )
            if not isinstance(request.get("inputs"), list):
                raise ServiceError("'inputs' must be a list of argument vectors")
        backend = request.get("backend", self.backend)
        if backend not in ("x86", "arm", "none"):
            raise ServiceError(f"unknown backend {backend!r}")
        if request.get("opt_level", "O0") not in ("O0", "O3"):
            raise ServiceError("opt_level must be 'O0' or 'O3'")

    def _validate(self, request: Any) -> None:
        if isinstance(request, dict) and "requests" in request:
            units = request["requests"]
            if not isinstance(units, list) or not units:
                raise ServiceError("'requests' must be a non-empty list")
            for unit in units:
                self._validate_unit(unit)
            return
        self._validate_unit(request)

    def _parse_unit(
        self, request: Dict[str, Any]
    ) -> Tuple[DatasetEntry, List[Candidate], Dict[str, Any]]:
        backend = request.get("backend", self.backend)
        opt_level = request.get("opt_level", "O0")
        lint = bool(request.get("lint", True))
        run_timeout = float(request.get("run_timeout", 10.0))
        candidates: List[Candidate] = []
        for spec in request["candidates"]:
            if isinstance(spec, str):
                candidates.append(Candidate(spec, "", "", ""))
            else:
                candidates.append(
                    Candidate(
                        text=spec["text"],
                        label=str(spec.get("label", "")),
                        kind=str(spec.get("kind", "")),
                        expected=str(spec.get("expected", "")),
                    )
                )
        if "entry" in request:
            entry = entry_from_json(request["entry"])
        else:
            isa = backend if backend != "none" else "x86"
            uid = request.get("uid") or f"req-{json_digest(request)[:12]}"
            entry = build_entry(
                request["reference"],
                request["name"],
                [tuple(args) for args in request["inputs"]],
                uid=str(uid),
                origin="service",
                isas=(isa,),
                opt_levels=(opt_level,),
                cache=self.cache,
            )
        kwargs = {
            "backend": backend,
            "opt_level": opt_level,
            "lint": lint,
            "run_timeout": run_timeout,
        }
        return entry, candidates, kwargs

    # -- execution (worker side) ---------------------------------------------

    def _execute_unit(self, request: Dict[str, Any], workdir: Path) -> Dict[str, Any]:
        entry, candidates, kwargs = self._parse_unit(request)
        scores: List[CandidateScore] = score_entry_sets(
            [entry], [candidates], self.cache, workdir=workdir, **kwargs
        )[0]
        return {
            "schema": 1,
            "uid": entry.uid,
            "name": entry.name,
            "backend": kwargs["backend"],
            "opt_level": kwargs["opt_level"],
            "candidates": [
                {"index": score.index, **score_to_payload(score)} for score in scores
            ],
        }

    def _execute_request(self, request: Dict[str, Any], workdir: Path) -> Any:
        if "requests" in request:
            return {
                "schema": 1,
                "results": [
                    self._execute_unit(unit, workdir) for unit in request["requests"]
                ],
            }
        return self._execute_unit(request, workdir)

    def _worker_loop(self, index: int) -> None:
        workdir = self.workdir / f"worker{index}"
        workdir.mkdir(parents=True, exist_ok=True)
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._busy[index] = True
            job.status = "running"
            try:
                job.result = self._execute_request(job.request, workdir)
                job.status = "done"
            except (ServiceError, DatasetError) as exc:
                job.error = str(exc)
                job.status = "error"
            except Exception as exc:  # an infrastructure failure, not a verdict
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "error"
            finally:
                self._busy[index] = False
            if job.journaled and self.journal is not None:
                self.journal.append({"type": "result", **job.to_json()})
            job.done_event.set()

    def _start_workers(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"scoring-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _stop_workers(self) -> None:
        with self._lock:
            self._stopped = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads = []

    # -- submission -----------------------------------------------------------

    def _submit(self, request: Dict[str, Any], journaled: bool) -> Optional[Job]:
        with self._lock:
            if self._stopped:  # a job behind the workers' stop sentinels never runs
                return None
            seq = self._seq
            self._seq += 1
            job = Job(job_id_for(seq, request), seq, request, journaled)
            self.jobs[job.id] = job
            self._jobs_order.append(job.id)
        if journaled and self.journal is not None:
            self.journal.append(
                {"type": "job", "seq": job.seq, "id": job.id, "request": request}
            )
        self._queue.put(job)
        return job

    # -- stats ----------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        counts = {"pending": 0, "running": 0, "done": 0, "error": 0}
        with self._lock:
            for job in self.jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            requests = dict(sorted(self._request_counts.items()))
        return {
            "schema": 1,
            "backend": self.backend,
            "queue_depth": self._queue.qsize(),
            "jobs": counts,
            "workers": {"configured": self.workers, "busy": sum(self._busy)},
            "requests": requests,
            "cache": self.cache.stats_summary() if self.cache is not None else None,
            "journal": str(self.journal.path) if self.journal is not None else None,
        }

    # -- HTTP layer -----------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, Any]:
        route = path if not path.startswith("/jobs/") else "/jobs/<id>"
        with self._lock:
            key = f"{method} {route}"
            self._request_counts[key] = self._request_counts.get(key, 0) + 1
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/stats":
            return 200, self.stats()
        if method == "GET" and path.startswith("/jobs/"):
            job = self.jobs.get(path[len("/jobs/") :])
            if job is None:
                return 404, {"error": "no such job"}
            return 200, job.to_json()
        if method == "POST" and path == "/shutdown":
            # The handler stops the server once this answer is written.
            return 200, {"ok": True, "shutting_down": True}
        if method == "POST" and path in ("/score", "/jobs"):
            try:
                request = json.loads(body or b"null")
            except ValueError as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
            try:
                self._validate(request)
            except ServiceError as exc:
                return 400, {"error": str(exc)}
            if path == "/score" and self.workers == 0:
                return 503, {"error": "no workers configured; use POST /jobs"}
            job = self._submit(request, journaled=path == "/jobs")
            if job is None:
                return 503, {"error": "the service is shutting down"}
            if path == "/jobs":
                return 202, {"id": job.id, "seq": job.seq, "status": job.status}
            job.done_event.wait()
            if job.status != "done":
                return 500, {"error": job.error or "scoring failed"}
            return 200, job.result
        return 404, {"error": f"no route for {method} {path}"}

    # -- lifecycle ------------------------------------------------------------

    def run(self) -> None:
        """Serve until shut down; blocks the calling thread."""
        self._start_workers()
        try:
            with _Server((self.host, self.port), _Handler) as server:
                server.service, self._server = self, server
                self.bound_port = server.server_address[1]
                self._ready.set()
                server.serve_forever(poll_interval=0.05)  # shutdown() waits one interval
        finally:
            self._stop_workers()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None

    def start_in_thread(self, timeout: float = 60.0) -> int:
        """Run the daemon in a daemon thread; returns the bound port."""
        self._thread = threading.Thread(target=self.run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise RuntimeError("service did not come up in time")
        assert self.bound_port is not None
        return self.bound_port

    def stop(self, timeout: float = 60.0) -> None:
        if self._server is not None:
            self._server.shutdown()  # returns at once if already shut down
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None


class _Server(http.server.ThreadingHTTPServer):
    #: stop() does not wait for idle keep-alive connections: their daemon
    #: threads end when the client hangs up or the read deadline passes.
    block_on_close = False
    service: ScoringService


class _Handler(http.server.BaseHTTPRequestHandler):
    """One keep-alive connection: each request goes to ``_dispatch``, and
    every answer, errors included, is JSON."""

    protocol_version = "HTTP/1.1"
    #: Head and body go out as two sends; with Nagle on, the client's
    #: delayed ACK holds every keep-alive answer for ~40 ms.
    disable_nagle_algorithm = True
    server: _Server

    def setup(self) -> None:
        self.timeout = REQUEST_TIMEOUT_S  # read per connection, so tests can patch it
        super().setup()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client went away; not worth socketserver's traceback

    def log_message(self, format: str, *args: Any) -> None:
        pass

    def do_GET(self) -> None:
        # Chunked bodies are not decoded; every error here closes the connection.
        length = self.headers.get("Content-Length", "0")
        if "Transfer-Encoding" in self.headers:
            return self.send_error(501, "Transfer-Encoding is not supported")
        if not (length.isascii() and length.isdigit()):
            return self.send_error(400, f"invalid Content-Length {length!r}")
        if int(length) > MAX_BODY_BYTES:
            return self.send_error(413, "request body too large")
        body = self.rfile.read(int(length))  # handle_one_request closes on TimeoutError
        if len(body) < int(length):
            self.close_connection = True  # the client hung up mid-body
            return
        path = self.path.split("?", 1)[0]
        status, payload = self.server.service._dispatch(self.command, path, body)
        self._reply(status, payload)
        if (self.command, path) == ("POST", "/shutdown"):
            self.server.shutdown()  # after the answer; not the serve_forever thread

    do_POST = do_GET

    def send_error(self, code: int, message: Optional[str] = None, explain: Any = None) -> None:
        # Also http.server's own rejections (400, 414, 431, 501): JSON, then close.
        self.close_connection = True
        self._reply(code, {"error": message or self.responses[code][0]})

    def _reply(self, status: int, payload: Any) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class ServiceClient:
    """Thin stdlib HTTP client for the daemon (used by tests and the
    ``score-grid`` CLI; any HTTP client works just as well)."""

    def __init__(self, url: str, timeout: float = 600.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, payload: Optional[Any] = None) -> Any:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            raise ServiceError(f"HTTP {exc.code} on {method} {path}: {detail}")

    def score(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/score", request)

    def submit_job(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._request("POST", "/jobs", request)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def wait_job(self, job_id: str, deadline: float = 600.0) -> Dict[str, Any]:
        """Poll until the job reaches a terminal status."""
        waited = 0.0
        while True:
            state = self.job(job_id)
            if state["status"] in ("done", "error"):
                return state
            if waited >= deadline:
                raise ServiceError(f"job {job_id} still {state['status']}")
            time.sleep(0.05)
            waited += 0.05

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")


def build_grid_requests(
    seed: int,
    functions: int,
    candidates: int,
    max_stmts: int = 10,
    backend: str = "x86",
    opt_level: str = "O0",
    lint: bool = True,
    cache: Optional[EvalCache] = None,
) -> Tuple[List[DatasetEntry], List[List[Candidate]], List[Dict[str, Any]]]:
    """The score CLI's fixed-seed grid, rendered as ``/score`` requests.

    Entries and candidate sets are built exactly as ``repro.eval.score``'s
    ``main()`` builds them (same seeds, same trap-label rule), then each
    entry is serialized as a prebuilt triple so the server re-derives
    nothing.  Returns (entries, candidate sets, request bodies) — the
    first two are what :func:`repro.eval.score.build_report` needs to
    assemble the byte-identical report client-side.
    """
    entries = generated_entries(
        seed,
        functions,
        max_stmts=max_stmts,
        isas=("arm",) if backend == "arm" else ("x86",),
        opt_levels=(opt_level,),
        cache=cache,
    )
    candidate_sets = [
        Mutator(
            entry.seed if entry.seed is not None else seed,
            allow_trap_labels=backend != "arm" and opt_level == "O0",
        ).candidates(entry, candidates, cache=cache)
        for entry in entries
    ]
    requests = [
        {
            "entry": entry.to_json(),
            "candidates": [
                {
                    "text": candidate.text,
                    "label": candidate.label,
                    "kind": candidate.kind,
                    "expected": candidate.expected,
                }
                for candidate in candidate_set
            ],
            "backend": backend,
            "opt_level": opt_level,
            "lint": lint,
        }
        for entry, candidate_set in zip(entries, candidate_sets)
    ]
    return entries, candidate_sets, requests


def score_grid_via_service(
    client: ServiceClient,
    seed: int,
    functions: int,
    candidates: int,
    max_stmts: int = 10,
    backend: str = "x86",
    opt_level: str = "O0",
    lint: bool = True,
    cache: Optional[EvalCache] = None,
) -> Dict[str, Any]:
    """Score the fixed-seed grid over HTTP and build the aggregate report.

    The report is byte-identical to what ``score_dataset`` produces for
    the same grid: verdict payloads come back over the wire, are rebuilt
    into :class:`CandidateScore` lists with the client-side candidate
    metadata, and go through the same :func:`build_report`.
    """
    entries, candidate_sets, requests = build_grid_requests(
        seed,
        functions,
        candidates,
        max_stmts=max_stmts,
        backend=backend,
        opt_level=opt_level,
        lint=lint,
        cache=cache,
    )
    all_scores: List[List[CandidateScore]] = []
    for request, candidate_set in zip(requests, candidate_sets):
        response = client.score(request)
        payloads = response["candidates"]
        if len(payloads) != len(candidate_set):
            raise ServiceError(
                f"server returned {len(payloads)} verdicts "
                f"for {len(candidate_set)} candidates"
            )
        all_scores.append(
            [
                score_from_payload(payload, payload["index"], candidate)
                for payload, candidate in zip(payloads, candidate_set)
            ]
        )
    return build_report(
        entries,
        candidate_sets,
        all_scores,
        backend=backend,
        opt_level=opt_level,
        lint=lint,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _serve_main(args: argparse.Namespace) -> int:
    backend = _resolve_backend(args.backend)
    cache = cache_from_args(args)
    service = ScoringService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=backend,
        cache=cache,
        journal=Path(args.journal) if args.journal else None,
        workdir=Path(args.workdir).resolve() if args.workdir else None,
    )
    pending = sum(1 for job in service.jobs.values() if job.status == "pending")
    print(
        f"scoring service on http://{args.host}:{args.port} "
        f"(backend {backend!r}, {args.workers} worker(s), "
        f"cache {'off' if cache is None else str(cache.root)}, "
        f"{pending} journaled job(s) replayed)",
        flush=True,
    )
    service.run()
    if cache is not None:
        cache.sweep()
    print("scoring service stopped", flush=True)
    return 0


def _score_grid_main(args: argparse.Namespace) -> int:
    backend = _resolve_backend(args.backend)
    cache = cache_from_args(args)
    client = ServiceClient(args.url, timeout=args.timeout)
    client.healthz()
    started = time.time()
    report = score_grid_via_service(
        client,
        args.seed,
        args.functions,
        args.candidates,
        max_stmts=args.max_stmts,
        backend=backend,
        opt_level=args.opt_level,
        lint=not args.no_lint,
        cache=cache,
    )
    elapsed = time.time() - started
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    aggregate = report["aggregate"]
    print(f"wrote {args.output}")
    print(
        "  verdicts: "
        + ", ".join(f"{k}={v}" for k, v in aggregate["verdict_counts"].items())
    )
    print(
        f"  ground-truth agreement: {aggregate['ground_truth_agreement']:.1%} "
        f"({len(aggregate['mismatches'])} mismatches)"
    )
    rate = aggregate["candidates"] / max(1e-9, elapsed)
    print(f"  throughput: {rate:.1f} candidates/s over HTTP ({elapsed:.1f}s)")
    if cache is not None:
        cache.sweep()
        print("  client cache: " + describe_stats(cache.stats_summary()))
    for mismatch in aggregate["mismatches"][:10]:
        print(
            f"  MISMATCH {mismatch['uid']} candidate {mismatch['candidate']} "
            f"({mismatch['kind']}): expected {mismatch['expected']}, "
            f"got {mismatch['verdict']} — {mismatch['detail']}",
            file=sys.stderr,
        )
    return 1 if aggregate["mismatches"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.service",
        description="Candidate-scoring HTTP daemon over the warm eval cache.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the scoring daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--workers", type=int, default=2, help="scoring worker threads (default 2)"
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "x86", "arm", "none"),
        default="auto",
        help="default substrate for requests that don't name one",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help="JSON-lines job journal; jobs in it are replayed on startup "
        "(omit for a journal-less daemon)",
    )
    serve.add_argument(
        "--workdir",
        default=None,
        help="persistent build directory for the worker pool "
        "(default: a temporary directory)",
    )
    add_cache_arguments(serve)

    grid = commands.add_parser(
        "score-grid",
        help="score the fixed-seed grid over HTTP and write the CLI-identical "
        "report",
    )
    grid.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}")
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--functions", type=int, default=20)
    grid.add_argument("--candidates", type=int, default=8)
    grid.add_argument("--max-stmts", type=int, default=10)
    grid.add_argument(
        "--backend", choices=("auto", "x86", "arm", "none"), default="auto"
    )
    grid.add_argument("--opt-level", choices=("O0", "O3"), default="O0")
    grid.add_argument("--no-lint", action="store_true")
    grid.add_argument("--timeout", type=float, default=600.0)
    grid.add_argument("--output", default="eval_report_service.json")
    add_cache_arguments(grid)

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _serve_main(args)
    return _score_grid_main(args)


__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobJournal",
    "ScoringService",
    "ServiceClient",
    "ServiceError",
    "build_grid_requests",
    "job_id_for",
    "score_grid_via_service",
]


if __name__ == "__main__":
    raise SystemExit(main())
