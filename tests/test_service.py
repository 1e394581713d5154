"""Tests for the scoring service (``repro.eval.service``).

Pins the ISSUE's acceptance properties: the HTTP wire format is stable
(schema pin), service verdicts are byte-identical to the ``score``
CLI's for the same fixed-seed grid, journaled jobs survive a daemon
restart and replay deterministically, and shutting the daemon down
leaves no orphaned fork-server/qemu children behind.

Everything except the explicitly toolchain-gated tests runs on the
interpreter backend (``"none"``), so this module needs no compiler.
"""

import contextlib
import http.client
import json
import os
import socket
import statistics
import time
from pathlib import Path

import pytest

from repro.eval import service as service_module
from repro.eval.cache import EvalCache
from repro.eval.dataset import generated_entries
from repro.eval.mutate import Mutator
from repro.eval.score import score_dataset
from repro.eval.service import (
    MAX_BODY_BYTES,
    JobJournal,
    ScoringService,
    ServiceClient,
    ServiceError,
    build_grid_requests,
    job_id_for,
    score_grid_via_service,
)
from repro.testing.native import have_native_toolchain

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)

REFERENCE = "int f(int a, int b) { return a + b; }"
INPUTS = [[1, 2], [3, 4], [-5, 9]]


def _request(**overrides):
    request = {
        "name": "f",
        "reference": REFERENCE,
        "inputs": INPUTS,
        "backend": "none",
        "candidates": [
            REFERENCE,  # identical: io_equivalent
            "int f(int a, int b) { return a - b; }",  # io_mismatch
            "int f(int a, int b { return a; }",  # parse_error
        ],
    }
    request.update(overrides)
    return request


@contextlib.contextmanager
def _service(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("backend", "none")
    service = ScoringService(**kwargs)
    port = service.start_in_thread()
    try:
        yield service, ServiceClient(f"http://127.0.0.1:{port}")
    finally:
        service.stop()


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_score_endpoint_schema_pin():
    """The response shape is API: exactly these keys, these verdicts."""
    with _service() as (_, client):
        response = client.score(_request())
    assert set(response) == {
        "schema",
        "uid",
        "name",
        "backend",
        "opt_level",
        "candidates",
    }
    assert response["schema"] == 1
    assert response["name"] == "f"
    assert response["backend"] == "none"
    verdicts = [c["verdict"] for c in response["candidates"]]
    assert verdicts == ["io_equivalent", "io_mismatch", "parse_error"]
    for payload in response["candidates"]:
        assert set(payload) == {
            "index",
            "verdict",
            "similarity",
            "detail",
            "agreement",
            "lint_flagged",
            "lint_prefilter",
        }
    assert [c["index"] for c in response["candidates"]] == [0, 1, 2]


def test_batched_requests_and_candidate_objects():
    """``{"requests": [...]}`` scores several units in one round trip, and
    candidates may carry metadata objects instead of bare strings."""
    unit = _request(
        candidates=[{"text": REFERENCE, "kind": "identity", "label": "equivalent"}]
    )
    with _service() as (_, client):
        response = client.score({"requests": [unit, _request()]})
    assert response["schema"] == 1
    assert len(response["results"]) == 2
    assert response["results"][0]["candidates"][0]["verdict"] == "io_equivalent"
    assert len(response["results"][1]["candidates"]) == 3


def test_malformed_requests_rejected():
    with _service() as (_, client):
        for bad in [
            [],  # not an object
            {},  # no candidates
            {"candidates": []},  # empty candidates
            {"candidates": ["int f() { return 0; }"]},  # no entry/reference
            _request(backend="sparc"),  # unknown backend
            _request(opt_level="O7"),  # unknown opt level
            {"requests": []},  # empty batch
            {"candidates": [{"kind": "oops"}], "name": "f",
             "reference": REFERENCE, "inputs": INPUTS},  # candidate without text
        ]:
            with pytest.raises(ServiceError) as excinfo:
                client.score(bad)
            assert "HTTP 400" in str(excinfo.value)


def test_unknown_routes_and_jobs():
    with _service() as (_, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999-nope")
        assert "HTTP 404" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/frobnicate")
        assert "HTTP 404" in str(excinfo.value)


def test_unbuildable_reference_is_a_scoring_error_not_a_crash():
    """A reference that fails to build surfaces as HTTP 500 with the
    dataset error, and the daemon keeps serving afterwards."""
    with _service() as (_, client):
        with pytest.raises(ServiceError) as excinfo:
            client.score(_request(reference="int f(int a, int b) { return }"))
        assert "HTTP 500" in str(excinfo.value)
        assert client.score(_request())["candidates"][0]["verdict"] == "io_equivalent"


def test_stats_schema_pin():
    with _service() as (_, client):
        client.score(_request())
        stats = client.stats()
    assert set(stats) == {
        "schema",
        "backend",
        "queue_depth",
        "jobs",
        "workers",
        "requests",
        "cache",
        "journal",
    }
    assert stats["jobs"]["done"] == 1
    assert stats["workers"] == {"configured": 1, "busy": 0}
    assert stats["requests"]["POST /score"] == 1
    assert stats["cache"] is None  # no cache mounted in this service


def test_stats_reports_cache_counters(tmp_path):
    """With a cache mounted, a repeated request is answered from the
    verdict memo — visible in /stats as hits."""
    cache = EvalCache(tmp_path / "cache")
    with _service(cache=cache) as (_, client):
        first = client.score(_request())
        second = client.score(_request())
        stats = client.stats()
    assert first == second
    counters = stats["cache"]["layers"]["verdict"]
    assert counters["stores"] == 3  # one memo entry per candidate
    assert counters["hits"] >= 3  # the whole second request memo-hits


# ---------------------------------------------------------------------------
# HTTP framing and connections
# ---------------------------------------------------------------------------


def _raw_exchange(port, data):
    """Send ``data`` on a fresh socket and read until the daemon closes it;
    returns (status, head, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        received = b""
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed with request bytes it never read; the answer came first
    head, _, body = received.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, json.loads(body)


def _post_head(length):
    return b"POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n" % length


@pytest.mark.parametrize(
    "data, status",
    [
        (_post_head(b"12abc"), 400),
        (b"GET /" + b"a" * (70 << 10) + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (70 << 10) + b"\r\n\r\n", 431),
        (
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-Header-%d: v\r\n" % i for i in range(101))
            + b"\r\n",
            431,
        ),
        (
            b"POST /score HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
            501,
        ),
        (_post_head(b"%d" % (MAX_BODY_BYTES + 1)), 413),
    ],
    ids=[
        "bad-content-length",
        "long-request-line",
        "long-header-line",
        "too-many-headers",
        "chunked",
        "too-large",
    ],
)
def test_malformed_framing_gets_json_error_and_close(data, status):
    """Framing the daemon cannot trust gets a JSON error and a closed
    connection, and the daemon keeps serving."""
    with _service() as (service, client):
        got, head, body = _raw_exchange(service.bound_port, data)
        assert got == status
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert set(body) == {"error"}
        assert client.healthz() == {"ok": True}


def test_stalled_client_is_disconnected(monkeypatch):
    """A client that stops mid-body is dropped after the read deadline,
    and other clients are served meanwhile and afterwards."""
    monkeypatch.setattr(service_module, "REQUEST_TIMEOUT_S", 0.5)
    with _service() as (service, client):
        with socket.create_connection(("127.0.0.1", service.bound_port), timeout=10) as stalled:
            stalled.sendall(_post_head(b"100") + b'{"candidates": ')
            assert client.score(_request())["candidates"][0]["verdict"] == "io_equivalent"
            assert stalled.recv(1024) == b""  # closed without an answer
        assert client.score(_request())["candidates"][0]["verdict"] == "io_equivalent"


def test_keep_alive_and_quiet_shutdown(tmp_path, capfd, caplog):
    """Requests on one connection are answered on that connection without
    the ~40 ms Nagle/delayed-ACK stall; clients that hang up early and a
    stop() with a keep-alive connection open leave no traceback, and
    that connection is refused work afterwards."""
    service = ScoringService(port=0, workers=1, backend="none", cache=EvalCache(tmp_path / "cache"))
    port = service.start_in_thread()
    body = json.dumps(_request()).encode()
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(_post_head(b"100") + b"{")  # hangs up mid-body
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(_post_head(b"%d" % len(body)) + body)  # hangs up before the answer
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        round_trips, sockets = [], []
        for _ in range(20):
            started = time.perf_counter()
            conn.request("POST", "/score", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            round_trips.append(time.perf_counter() - started)
            sockets.append(conn.sock)
            assert response.status == 200
            assert payload["candidates"][0]["verdict"] == "io_equivalent"
        assert all(sock is sockets[0] for sock in sockets)
        assert statistics.median(round_trips) < 0.020
        started = time.monotonic()
        service.stop()  # with ``conn`` still open
        assert time.monotonic() - started < 10
        # A request on that connection now is refused: no worker would run it.
        conn.request("POST", "/score", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 503
        assert "shutting down" in json.loads(response.read())["error"]
        conn.close()
    finally:
        service.stop()
    # socketserver prints tracebacks to stderr; asyncio logged them.
    assert "Traceback" not in capfd.readouterr().err
    assert "Traceback" not in caplog.text


# ---------------------------------------------------------------------------
# Determinism: the service is the CLI, over a socket
# ---------------------------------------------------------------------------


def test_grid_report_byte_identical_to_cli_path(tmp_path):
    """The acceptance criterion: scoring the fixed-seed grid through the
    daemon produces a report byte-identical to ``score_dataset``'s (the
    CLI writes exactly ``json.dumps(report, indent=2)``)."""
    entries = generated_entries(
        0, 4, max_stmts=8, isas=("x86",), opt_levels=("O0",), cache=None
    )
    candidate_sets = [
        Mutator(entry.seed, allow_trap_labels=True).candidates(entry, 4, cache=None)
        for entry in entries
    ]
    baseline = score_dataset(entries, candidate_sets, backend="none", opt_level="O0")
    with _service(workers=2, cache=EvalCache(tmp_path / "cache")) as (service, client):
        report = score_grid_via_service(
            client, 0, 4, 4, max_stmts=8, backend="none", cache=service.cache
        )
    assert json.dumps(report, indent=2) == json.dumps(baseline, indent=2)


def test_build_grid_requests_matches_cli_dataset():
    """The grid client feeds the server *prebuilt* triples — the exact
    entries and candidate texts the score CLI would build locally."""
    entries, candidate_sets, requests = build_grid_requests(
        0, 3, 4, max_stmts=8, backend="none"
    )
    assert len(entries) == len(candidate_sets) == len(requests) == 3
    for entry, candidate_set, request in zip(entries, candidate_sets, requests):
        assert request["entry"] == entry.to_json()
        assert [c["text"] for c in request["candidates"]] == [
            c.text for c in candidate_set
        ]
        assert request["backend"] == "none"


# ---------------------------------------------------------------------------
# Jobs and the journal
# ---------------------------------------------------------------------------


def test_job_ids_are_deterministic():
    request = _request()
    assert job_id_for(7, request) == job_id_for(7, dict(request))
    assert job_id_for(7, request) != job_id_for(8, request)
    assert job_id_for(0, request).startswith("job-0-")


def test_jobs_survive_restart(tmp_path):
    """The restart discipline: a job frozen in flight (workerless daemon)
    replays from the journal and completes after a restart; a third
    restart serves the finished result straight from the journal with no
    recompute (again workerless: nothing *could* recompute it)."""
    journal = tmp_path / "journal.jsonl"
    request = _request()

    with _service(workers=0, journal=journal) as (_, client):
        submitted = client.submit_job(request)
        assert client.job(submitted["id"])["status"] == "pending"
        # Synchronous scoring is refused rather than hanging forever.
        with pytest.raises(ServiceError) as excinfo:
            client.score(request)
        assert "HTTP 503" in str(excinfo.value)

    with _service(workers=1, journal=journal) as (_, client):
        finished = client.wait_job(submitted["id"], deadline=60)
    assert finished["status"] == "done"
    verdicts = [c["verdict"] for c in finished["result"]["candidates"]]
    assert verdicts == ["io_equivalent", "io_mismatch", "parse_error"]

    with _service(workers=0, journal=journal) as (_, client):
        replayed = client.job(submitted["id"])
    assert replayed["status"] == "done"
    assert replayed["result"] == finished["result"]


def test_journal_replay_tolerates_garbage_tail(tmp_path):
    """A crash mid-append leaves a truncated last line; replay skips it
    instead of refusing the whole journal."""
    journal = JobJournal(tmp_path / "journal.jsonl")
    journal.append({"type": "job", "seq": 0, "id": "job-0-abc", "request": {}})
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "job", "seq": 1, "id": "job-1-trunc')
    records = journal.replay()
    assert len(records) == 1
    assert records[0]["id"] == "job-0-abc"


def test_async_jobs_complete_without_polling_race(tmp_path):
    """POST /jobs + wait_job on a live worker pool: the common async path."""
    with _service(workers=2, journal=tmp_path / "j.jsonl") as (_, client):
        ids = [client.submit_job(_request())["id"] for _ in range(3)]
        assert len(set(ids)) == 3  # distinct seq -> distinct ids
        for job_id in ids:
            assert client.wait_job(job_id, deadline=60)["status"] == "done"


# ---------------------------------------------------------------------------
# Process hygiene
# ---------------------------------------------------------------------------


def _pids_mentioning(needle: str):
    """PIDs whose command line mentions ``needle`` (psutil-free)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = (Path("/proc") / entry / "cmdline").read_bytes()
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append(int(entry))
    return found


@needs_toolchain
def test_native_service_verdicts_match_direct_scoring(tmp_path):
    """On the real toolchain the daemon's verdicts equal score_dataset's
    (fork-server groups and all), and shutting it down leaves no process
    whose command line points into the service workdir."""
    workdir = tmp_path / "service-work"
    entries = generated_entries(
        1, 2, max_stmts=6, isas=("x86",), opt_levels=("O0",), cache=None
    )
    candidate_sets = [
        Mutator(entry.seed, allow_trap_labels=True).candidates(entry, 3, cache=None)
        for entry in entries
    ]
    baseline = score_dataset(entries, candidate_sets, backend="x86", opt_level="O0")
    with _service(backend="x86", workdir=workdir) as (service, client):
        report = score_grid_via_service(client, 1, 2, 3, max_stmts=6, backend="x86")
    assert json.dumps(report, indent=2) == json.dumps(baseline, indent=2)
    deadline = time.monotonic() + 10.0
    while _pids_mentioning(str(workdir)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _pids_mentioning(str(workdir)) == []
