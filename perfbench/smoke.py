"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--seconds 3`` (two small
rounds instead of the usual six) on seed 2, once
untraced and once traced, and checks that each run exits 0, passes its
correctness checks and prints exactly the metric names and units declared
there.  Then checks that, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``, the benchmark exits non-zero without printing a result.
Exits non-zero on the first mismatch.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        command
        + ["--workload", workload, "--seed", str(SEED), "--seconds", "3"]
        + ["--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no JSON result\n{proc.stderr[-2000:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: failed\n{proc.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(got.items() ^ want.items())}")
            print(f"{label}: exit {proc.returncode}, {len(got)} metrics", flush=True)

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
