"""The repo's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {repair,serve,fuzz} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it needs ``src/repro`` beside ``perfbench/``
and writes only under ``.perfbench/`` there.  Every round is a fresh process
with a fresh cache directory and workdir, and a run has a number of rounds
fixed by ``--seconds``, sized so their timed phases add up to about it.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` one untraced and two traced rounds run on the
same inputs and the JSON carries the per-layer metrics instead.  The exit
code is non-zero when any output fails its correctness check.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

WORKLOADS = ("repair", "serve", "fuzz")
ROUND_TIMEOUT_S = 150
#: Setup-only spawns of ``child.py`` before each untraced batch round.  One
#: ~0.2 s interpreter start swings by half on a shared host, so setup_s is
#: the median over these and the rounds' own.
SETUP_PROBES = 2

#: End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it; with
    fewer than eleven samples (a batch run's rounds), the upper quartile,
    since the slowest of a handful of rounds mostly measures the host."""
    ordered = sorted(values)
    if len(ordered) > 10:
        return ordered[len(ordered) - 11]
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=4, method="inclusive")[2]


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(tmp)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ---------------------------------------------------------------------------
# The round loop and its summary, shared by every workload
# ---------------------------------------------------------------------------


def run_rounds(args, count: int, play) -> Dict[str, Any]:
    """Play ``count`` untraced rounds or, traced, one untraced and two traced
    rounds, stopping at the first round with errors; then summarize them.

    ``play(index, traced)`` runs one round and returns its ``errors``,
    ``ops``, ``failed``, ``setup_s``, ``setup_samples`` (its own setup time
    and any setup-only spawns'), ``timed_s``, ``cpu_s``, ``peak_rss_mb``,
    ``latencies_ms`` and, when traced, ``layers``; a
    ``digest`` of its output is compared across the rounds of a traced run,
    which all get the same inputs.
    """
    plan = [False, True, True] if args.trace else [False] * count
    rounds: List[Dict[str, Any]] = []
    for index, traced in enumerate(plan):
        result = play(index, traced)
        result["traced"] = traced
        rounds.append(result)
        if result["errors"]:
            break

    errors = [e for r in rounds for e in r["errors"]]
    done = [r for r in rounds if not r["errors"]]
    if args.trace and len({r.get("digest") for r in done}) > 1:
        errors.append("outputs differ between rounds on the same inputs")
    summary = {
        "rounds": len(rounds),
        "errors": errors,
        # A round that failed a check still counts its ops; one that crashed
        # has none.
        "attempted": sum(r.get("ops", 0) for r in rounds) or 1,
        "failed": sum(r.get("failed", 0) for r in rounds),
    }
    untraced = [r for r in done if not r["traced"]]
    if untraced:
        latencies = [ms for r in untraced for ms in r["latencies_ms"]]
        summary["metrics"] = {
            "setup_s": statistics.median(s for r in untraced for s in r["setup_samples"]),
            "ops_per_s": statistics.median(
                (r["ops"] - r["failed"]) / r["timed_s"] for r in untraced
            ),
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail(latencies),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        summary["latency_samples"] = len(latencies)
    p50 = [statistics.median(r["latencies_ms"]) for r in done]
    summary["per_round"] = [
        {"setup_s": r["setup_s"], "timed_s": r["timed_s"], "cpu_s": r["cpu_s"],
         "ops": r["ops"], "p50_ms": ms}
        for r, ms in zip(done, p50)
    ]  # fmt: skip
    if args.trace and len(done) == len(plan):
        summary["layers"] = merge_traced([r["layers"] for r in done[1:]], errors)
        summary["layers"]["trace.overhead_frac"] = statistics.mean(p50[1:]) / p50[0] - 1.0
    return summary


def merge_traced(layers: List[Dict[str, float]], errors: List[str]) -> Dict[str, float]:
    """Mean of the traced rounds' per-layer metrics; the counts in
    ``spans.EXACT_COUNTS`` must agree exactly between them."""
    import spans

    first, second = layers
    for name in spans.EXACT_COUNTS:
        if first.get(name, 0) != second.get(name, 0):
            errors.append(
                f"count {name} differs between traced rounds: "
                f"{first.get(name, 0)} != {second.get(name, 0)}"
            )
    return {name: (first[name] + second[name]) / 2 for name in first}


# ---------------------------------------------------------------------------
# Batch workloads: one child process per round
# ---------------------------------------------------------------------------


def spawn_child(spec: Dict[str, Any], round_dir: Path) -> Tuple[Dict[str, Any], List[str]]:
    """Run ``child.py`` on ``spec`` in the fresh ``round_dir``; returns its
    result (with ``setup_s``) and the errors, if any."""
    import procs

    (round_dir / "tmp").mkdir(parents=True)
    result_path = round_dir / "result.json"
    spec = {**spec, "round_dir": str(round_dir), "result": str(result_path)}
    (round_dir / "spec.json").write_text(json.dumps(spec))
    errors: List[str] = []
    try:
        with open(round_dir / "child.log", "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(round_dir / "spec.json")],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(round_dir / "tmp"),
                cwd=round_dir,
            )
            try:
                proc.wait(timeout=ROUND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors.append("round timed out")
            finally:
                if proc.poll() is None:
                    proc.kill()
                code = proc.wait()
    finally:
        leftovers = procs.kill_leftovers(str(round_dir))
    if leftovers:
        errors.append(f"leftover processes: {leftovers}")
    if code != 0 or not result_path.exists():
        text = (round_dir / "child.log").read_text(errors="replace")[-2000:]
        return {}, errors + [f"round exited with status {code}: {text}"]
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["timed_start"] - spawned - result["load_s"]
    return result, errors


def batch_round(workload, inputs, round_dir: Path, traced: bool) -> Dict[str, Any]:
    import workloads

    spec = {
        **inputs,
        "workload": workload,
        "traced": traced,
        "spans_out": str(STATE / "traces" / f"{workload}-{round_dir.name}.jsonl"),
    }
    setup_samples = []
    for index in range(0 if traced else SETUP_PROBES):
        probe, errors = spawn_child({**spec, "setup_only": True}, round_dir / f"setup{index}")
        if errors:
            return {"errors": errors}
        setup_samples.append(probe["setup_s"])
    result, errors = spawn_child(spec, round_dir / "round")
    if not result:
        return {"errors": errors}
    result["setup_samples"] = setup_samples + [result["setup_s"]]
    result["latencies_ms"] = [result["timed_s"] * 1000.0]
    errors += result.pop("problems", [])
    if workload == "repair":
        misses = workloads.check_repaired(Path(inputs["inputs_dir"]), result["campaign"])
        result["failed"] += len(misses)
        errors += misses
    result["errors"] = errors
    return result


def run_batch(args, run_dir: Path) -> Dict[str, Any]:
    """``round_count`` rounds, each on its own seeded inputs; traced, all
    three rounds get the inputs of round 0."""
    import workloads

    rounds = workloads.round_count(args.seconds)
    size = workloads.round_size(args.workload, args.seconds)
    inputs = [
        workloads.prepare(
            args.workload, workloads.round_seed(args.workload, args.seed, index, rounds),
            size, run_dir / f"inputs{index}",
        )
        for index in range(1 if args.trace else rounds)
    ]  # fmt: skip
    return run_rounds(
        args,
        rounds,
        lambda index, traced: batch_round(
            args.workload, inputs[index % len(inputs)], run_dir / f"round{index}", traced
        ),
    )


# ---------------------------------------------------------------------------
# The serve workload: the daemon is the program, this process is the client
# ---------------------------------------------------------------------------


def run_serve(args, run_dir: Path) -> Dict[str, Any]:
    import serve

    plan = serve.prepare(args.seed, args.seconds)
    expected = serve.expected_payloads(plan["units"])
    command = [sys.executable, str(HERE / "serve_launcher.py")]

    def play(index: int, traced: bool) -> Dict[str, Any]:
        round_dir = run_dir / f"round{index}"
        (round_dir / "tmp").mkdir(parents=True)
        # Traced, every round replays round 0's schedule.
        schedule = plan["schedules"][0 if args.trace else index]
        result = serve.run_round(
            plan, schedule, round_dir, traced, command, child_env(round_dir / "tmp")
        )
        if result["errors"]:
            return result
        good = serve.judge(result["records"], expected)
        result.update(
            setup_samples=[result["setup_s"]],
            ops=len(good),
            failed=len(good) - sum(good),
            latencies_ms=[
                (rec["done"] - rec["due"]) * 1000.0 for rec in result["records"] if rec
            ],
        )
        if traced:
            result["layers"] = serve.layer_metrics(result)
        return result

    return run_rounds(args, serve.ROUNDS, play)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "eval" / "score.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so each round's cleanup stops the
    # processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tmp = STATE / "tmp"
    for folder in (tmp, STATE / "runs", STATE / "traces"):
        folder.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # Byte-compile once per checkout, before anything is timed, so the
    # first run after a checkout does not pay for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    sys.path[:0] = [str(SRC), str(HERE)]
    from procs import host_probe_ms

    probe_ms = host_probe_ms()

    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "runs"))
    try:
        if args.workload == "serve":
            summary = run_serve(args, run_dir)
        else:
            summary = run_batch(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import spans

    correct = not summary["errors"] and summary["failed"] == 0
    if args.trace:
        wanted = [(name, unit) for name, unit, _ in spans.PER_LAYER]
        values = {}
        if "layers" in summary:
            # A layer the workload never reaches reads 0.
            layers = {**summary["layers"], "host.probe_ms": probe_ms}
            values = {name: layers.get(name, 0.0) for name, _ in wanted}
    else:
        wanted = END_TO_END
        values = summary.get("metrics", {})
    if any(values.get(name) is None for name, _ in wanted):
        correct = False
    for index, result in enumerate(summary.get("per_round", [])):
        print(f"  round {index}: " + ", ".join(f"{k}={v:.3f}" for k, v in result.items()))
    for error in summary["errors"][:20]:
        print(f"ERROR: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{summary['rounds']} rounds, {summary['attempted']} ops attempted, "
        f"fail_frac={summary['failed'] / summary['attempted']:.4f}, "
        f"latency samples={summary.get('latency_samples', 0)}, "
        f"host.probe_ms={probe_ms:.1f}"
    )
    if not correct:
        print(json.dumps({"correct": False, "attempted": summary["attempted"],
                          "failed": max(1, summary["failed"]), "metrics": {}}))
        return 1
    for name, unit in wanted:
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
