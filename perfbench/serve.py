"""The ``serve`` workload: the scoring daemon under an open-loop load.

Each round starts ``python -m repro.eval.service serve --workers 2`` (through
``serve_launcher.py``) over a fresh cache directory and workdir, waits for
``/healthz``, warm-fills the repeat population, then drives a seeded
schedule: requests fall due at a fixed rate whether or not earlier ones have
been answered (an open loop: independent model-eval clients do not wait for
each other), and go out over at most two keep-alive connections.  Latency is
measured from when a request was due, so a stall also charges the requests
queued behind it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import socket
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import procs
import spans
from repro.eval.dataset import build_entry, front_end_gate
from repro.eval.mutate import Candidate, repair_neighbors
from repro.eval.score import score_entry_sets, score_to_payload
from repro.lang.interpreter import CInterpreterError, Interpreter, RuntimeLimitExceeded
from workloads import MAX_CHARS, generated_cases, without_while

#: Offered load: a fresh request took ~200 ms and a repeat ~6 ms on a 2-core
#: VM, so 25 req/s keeps the two workers busy well under half the time.
RATE = 25.0
#: A repeat that arrives while a fresh request holds the interpreter lock or
#: a core waits behind it.  At 10% fresh some fresh work was in flight about
#: half the time, so the median sat between the two repeat populations and
#: moved by 2x between runs; at 5% the median is a plain repeat and the tail
#: (11th slowest of ~25 fresh requests per run) is mid-fresh.
FRESH_SHARE = 0.05
#: Size of the repeat population per 20 s of ``--seconds``.
REPEATS = 12
NEIGHBORS = 3  # candidates per request: the reference plus this many edits
CONNECTIONS = 2
#: A request answered later than this (from when it was due) has failed.
LATENCY_LIMIT_S = 1.0
#: Each run starts this many daemons.  They get the same schedule (due
#: times and repeat picks), but each round's fresh requests are functions of
#: its own, so the tail samples 3x as many gcc links.
ROUNDS = 3
#: Interpreter step budget used to screen out neighbors that never finish.
SCREEN_STEPS = 20_000
#: A request sent this much after its due time was late.
LATE_S = 0.005


def _terminates(text: str, name: str, inputs) -> bool:
    gate = front_end_gate(text, name)
    if isinstance(gate[0], str):
        return True  # rejected by the front end: never executed
    program, checker = gate
    for args in inputs:
        try:
            Interpreter(program, max_steps=SCREEN_STEPS, checker=checker).run_function(
                name, tuple(args)
            )
        except RuntimeLimitExceeded:
            return False
        except CInterpreterError:
            pass
    return True


def _unit(case) -> Dict[str, Any]:
    candidates = [case.source]
    for _, text in repair_neighbors(case.source, case.name):
        if len(candidates) > NEIGHBORS:
            break
        if _terminates(text, case.name, case.inputs):
            candidates.append(text)
    return {
        "name": case.name,
        "reference": case.source,
        "inputs": [list(args) for args in case.inputs],
        "candidates": candidates,
    }


def prepare(seed: int, seconds: float) -> Dict[str, Any]:
    """Units (repeat population first, then one per fresh request of every
    round) and one seeded schedule per round of the run: ``(due time,
    unit)`` pairs that differ between rounds only in the fresh units."""
    duration = max(1.0, seconds / ROUNDS)
    count = max(10, round(RATE * duration))
    fresh = max(1, round(FRESH_SHARE * count))
    repeats = max(3, round(REPEATS * seconds / 20.0))
    picked = generated_cases(
        seed, repeats + ROUNDS * fresh, without_while(MAX_CHARS["serve"])
    )
    units = [_unit(case) for _, _, case in picked]
    rng = random.Random(seed)
    fresh_at = sorted(rng.sample(range(count), fresh))
    picks = [None if i in fresh_at else rng.randrange(repeats) for i in range(count)]
    schedules = []
    for index in range(ROUNDS):
        own = dict(zip(fresh_at, range(repeats + index * fresh, repeats + (index + 1) * fresh)))
        schedules.append([(i / RATE, own.get(i, unit)) for i, unit in enumerate(picks)])
    return {"units": units, "repeats": repeats, "schedules": schedules}


def expected_payloads(units: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """What in-process, uncached ``score_entry_sets`` answers per unit."""
    entries = [
        build_entry(
            unit["reference"],
            unit["name"],
            [tuple(args) for args in unit["inputs"]],
            uid=f"expected-{k}",
            origin="service",
            isas=("x86",),
            opt_levels=("O0",),
        )
        for k, unit in enumerate(units)
    ]
    sets = [[Candidate(text, "", "", "") for text in unit["candidates"]] for unit in units]
    scores = score_entry_sets(entries, sets, None, backend="x86", opt_level="O0")
    return [[{"index": s.index, **score_to_payload(s)} for s in row] for row in scores]


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _call(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    conn.request(method, path, body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _body(unit: Dict[str, Any], uid: str) -> bytes:
    return json.dumps({"uid": uid, **unit}).encode()


def _wait_healthy(port: int, proc: subprocess.Popen, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with status {proc.returncode}")
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                if _call(conn, "GET", "/healthz")[0] == 200:
                    return
            finally:
                conn.close()
        except OSError:
            pass
        time.sleep(0.02)
    raise RuntimeError("daemon did not answer /healthz in time")


def _drive(port: int, plan: Dict[str, Any], schedule, tag: str, sample: bool):
    """The open loop over ``CONNECTIONS`` sender threads: each takes the next
    request in schedule order, sleeps until it falls due and sends it, so a
    request goes out late only when both connections are still waiting on
    earlier answers."""
    bodies = [
        (f"{tag}-{i}", _body(plan["units"][unit], f"{tag}-{i}"))
        for i, (_, unit) in enumerate(schedule)
    ]
    records: List[Optional[Dict[str, Any]]] = [None] * len(bodies)
    samples: List[Dict[str, Any]] = []
    stop = threading.Event()
    claim = itertools.count()  # next() is atomic under the interpreter lock
    start = time.monotonic() + 0.05  # let every thread start first

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        for i in iter(lambda: next(claim), None):
            if i >= len(bodies):
                break
            uid, body = bodies[i]
            due = start + schedule[i][0]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            try:
                status, data = _call(conn, "POST", "/score", body)
            except (OSError, http.client.HTTPException) as exc:
                status, data = None, str(exc).encode()
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            records[i] = {
                "uid": uid,
                "unit": schedule[i][1],
                "due": due,
                "sent": sent,
                "done": time.monotonic(),
                "status": status,
                "data": data.decode("utf-8", "replace"),
            }
        conn.close()

    def sampler() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        while not stop.wait(0.05):
            try:
                stats = json.loads(_call(conn, "GET", "/stats")[1])
            except (OSError, http.client.HTTPException, ValueError):
                continue
            samples.append(
                {
                    "queue_depth": stats["queue_depth"],
                    "busy": stats["workers"]["busy"] / stats["workers"]["configured"],
                }
            )
        conn.close()

    # Daemon threads, so an interrupted run exits without waiting for them.
    senders = [threading.Thread(target=sender, daemon=True) for _ in range(CONNECTIONS)]
    watcher = threading.Thread(target=sampler, daemon=True)
    for thread in senders:
        thread.start()
    if sample:
        watcher.start()
    for thread in senders:
        thread.join()
    end = time.monotonic()
    stop.set()
    if sample:
        watcher.join()
    return start, end, records, samples


def run_round(
    plan: Dict[str, Any], schedule, round_dir: Path, traced: bool, command: List[str], env
) -> Dict[str, Any]:
    """Start a daemon, warm-fill it, drive ``schedule``, stop it, and scan
    for leftover processes.  ``setup_s`` runs from spawn to the end of the
    warm fill."""
    port = _free_port()
    spans_out = round_dir / "daemon-spans.jsonl"
    argv = list(command)
    if traced:
        argv += ["--spans-out", str(spans_out)]
    argv += [
        "serve", "--host", "127.0.0.1", "--port", str(port), "--workers", "2",
        "--backend", "x86", "--cache-dir", str(round_dir / "cache"),
        "--workdir", str(round_dir / "work"),
    ]
    errors: List[str] = []
    result: Dict[str, Any] = {"errors": errors}
    log = open(round_dir / "daemon.log", "wb")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=round_dir
    )
    try:
        _wait_healthy(port, proc, timeout=60)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        for k in range(plan["repeats"]):
            status, data = _call(conn, "POST", "/score", _body(plan["units"][k], f"warm-{k}"))
            if status != 200:
                raise RuntimeError(f"warm fill request {k}: HTTP {status} {data[:200]!r}")
        result["setup_s"] = time.monotonic() - spawned
        stats_before = json.loads(_call(conn, "GET", "/stats")[1])
        cpu_before = procs.tree_cpu_s(proc.pid)
        bytes_before = procs.dir_bytes(round_dir / "cache")
        start, end, records, samples = _drive(
            port, plan, schedule, round_dir.name, traced
        )
        result.update(
            timed_s=end - start,
            cpu_s=procs.tree_cpu_s(proc.pid) - cpu_before,
            peak_rss_mb=procs.peak_rss_mb(proc.pid),
            records=records,
            samples=samples,
            bytes_written=procs.dir_bytes(round_dir / "cache") - bytes_before,
        )
        stats_after = json.loads(_call(conn, "GET", "/stats")[1])
        result["cache_delta"] = _stats_delta(stats_before["cache"], stats_after["cache"])
        _call(conn, "POST", "/shutdown")
        conn.close()
        proc.wait(timeout=60)
    except (OSError, RuntimeError, http.client.HTTPException, subprocess.TimeoutExpired) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if proc.poll() is None:
            errors.append("daemon still running after shutdown; killed")
            proc.kill()
            proc.wait()
        log.close()
        leftovers = procs.kill_leftovers(str(round_dir))
        if leftovers:
            errors.append(f"leftover processes: {leftovers}")
    if traced and not errors:
        result["daemon_spans"] = str(spans_out)
    return result


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    layers = {}
    for layer, counts in after.get("layers", {}).items():
        old = before.get("layers", {}).get(layer, {})
        layers[layer] = {k: v - old.get(k, 0) for k, v in counts.items()}
    return {"layers": layers}


# ---------------------------------------------------------------------------
# Checks and per-layer metrics
# ---------------------------------------------------------------------------


def judge(records, expected) -> List[bool]:
    """Per request: answered with HTTP 200 within the latency limit, with
    verdict payloads equal to the in-process uncached ones."""
    good = []
    for record in records:
        ok = (
            record is not None
            and record["status"] == 200
            and record["done"] - record["due"] <= LATENCY_LIMIT_S
        )
        if ok:
            try:
                ok = json.loads(record["data"])["candidates"] == expected[record["unit"]]
            except (ValueError, KeyError, TypeError):
                ok = False
        good.append(ok)
    return good


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced round, joined on request uid: client
    records give each request's latency; daemon spans tagged with the same
    uid give the time spent inside the daemon's layers."""
    records = [r for r in result["records"] if r is not None]
    uids = {r["uid"] for r in records}
    loaded, counts = spans.load(result["daemon_spans"])
    timed = [span for span in loaded if span.rid in uids]
    latency_s = sum(r["done"] - r["due"] for r in records)
    merged: Dict[str, int] = {}
    for rid, per_rid in counts.items():
        if rid in uids:
            for key, value in per_rid.items():
                merged[key] = merged.get(key, 0) + value
    calls, self_s, _ = spans.span_summary(timed)
    out = spans.layer_metrics(calls, self_s, merged, latency_s)
    out.update(spans.cache_metrics(result["cache_delta"]))
    out["eval.cache.bytes_written"] = result["bytes_written"]
    executed = {
        span.rid: span.end - span.start for span in timed if span.name == "eval.service:execute"
    }
    overhead = sum(r["done"] - r["sent"] - executed.get(r["uid"], 0.0) for r in records)
    samples = result["samples"]
    out.update(
        {
            "eval.service.overhead_frac": overhead / latency_s,
            "eval.service.queue_depth_max": max((s["queue_depth"] for s in samples), default=0),
            "eval.service.busy_frac": sum(s["busy"] for s in samples) / len(samples)
            if samples
            else 0.0,
            "loadgen.sent": len(records),
            "loadgen.late_frac": sum(1 for r in records if r["sent"] - r["due"] > LATE_S)
            / len(records),
            "trace.unattributed_frac": self_s.get("eval.service:execute", 0.0) / latency_s,
        }
    )
    return out
