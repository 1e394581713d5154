"""Pipeline benchmark harness: ``python -m repro.perf.bench``.

Times every stage of the corpus pipeline on fixed-seed generated programs —

* **generator**   — seeded program + argument-vector sampling (including the
  printer/parser/typechecker round-trip the sampler performs);
* **frontend**    — parse + typecheck of already-rendered sources;
* **interpreter** — the reference-leg evaluator, one run per input vector;
* **lint**        — the UB/dataflow linter (:mod:`repro.analysis.lint`)
  over the already-typechecked ASTs, the same pass the eval scorer runs
  as its pre-filter;
* **lowering**    — AST opt + lowering + IR opt at both -O0 and -O3;
* **backends**    — x86-64 and AArch64 emission from shared lowered IR;
* **fuzz end-to-end** — the differential campaign itself, one native
  build and one fork server per backend per batch;
* **eval** — decompilation-candidate scoring throughput
  (:mod:`repro.eval.score`): N mutation-derived candidates per function
  pushed through parse → typecheck → compile → batched native execution,
  reported as candidates/s, cold and against a warm cache;
* **repair** — the repair campaign's attempts/s

— and writes the numbers to ``BENCH_pipeline.json``.  The committed copy at
the repo root is the performance trajectory future PRs regress against:
``--compare BENCH_pipeline.json`` exits non-zero when the measured fuzz or
eval end-to-end throughput drops more than ``--tolerance`` (default 30%)
below the committed number, which is what the CI ``bench-smoke`` job
gates on.

Typical invocations::

    python -m repro.perf.bench --quick                      # CI smoke
    python -m repro.perf.bench --output BENCH_pipeline.json # refresh baseline
    python -m repro.perf.bench --quick --compare BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.compiler.driver import emit_from_lowered, lower_for_backend
from repro.testing.frontend import CaseContext
from repro.testing.fuzz import FuzzConfig, case_seed, run_campaign
from repro.testing.generator import GeneratedCase, ProgramGenerator
from repro.testing.native import have_native_toolchain
from repro.lang.parser import parse_program
from repro.lang.typecheck import TypeChecker

def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; CI runners and cgroup-limited
    containers routinely pin the process to a subset, and that subset is
    what every scaling number in the report was really measured against.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux hosts
        return os.cpu_count() or 1


def _rate(count: int, seconds: float) -> float:
    return round(count / seconds, 2) if seconds > 0 else float("inf")


def _stage(count_label: str, count: int, seconds: float) -> Dict:
    return {
        count_label: count,
        "seconds": round(seconds, 3),
        f"{count_label}_per_second": _rate(count, seconds),
    }


def bench_generator(seed: int, count: int) -> Dict:
    started = time.perf_counter()
    for index in range(count):
        ProgramGenerator(case_seed(seed, index)).generate()
    return _stage("cases", count, time.perf_counter() - started)


def _make_cases(seed: int, count: int) -> List[GeneratedCase]:
    return [
        ProgramGenerator(case_seed(seed, index)).generate() for index in range(count)
    ]


def bench_frontend(cases: List[GeneratedCase]) -> Dict:
    started = time.perf_counter()
    for case in cases:
        program = parse_program(case.source)
        TypeChecker(program).check()
    return _stage("cases", len(cases), time.perf_counter() - started)


def bench_interpreter(cases: List[GeneratedCase]) -> Dict:
    contexts = [
        CaseContext(case.source, case.name, program=case.program, checker=case.checker)
        for case in cases
    ]
    runs = 0
    started = time.perf_counter()
    for case, context in zip(cases, contexts):
        for args in case.inputs:
            context.interpreter().run_function(case.name, args)
            runs += 1
    return _stage("runs", runs, time.perf_counter() - started)


def bench_lint(cases: List[GeneratedCase]) -> Dict:
    from repro.analysis.lint import lint_program

    findings = 0
    started = time.perf_counter()
    for case in cases:
        findings += len(lint_program(case.program, name=case.name))
    out = _stage("cases", len(cases), time.perf_counter() - started)
    out["findings"] = findings
    return out


def bench_lowering(cases: List[GeneratedCase]) -> Dict:
    started = time.perf_counter()
    for case in cases:
        for opt_level in ("O0", "O3"):
            lower_for_backend(
                case.program, name=case.name, opt_level=opt_level, checker=case.checker
            )
    return _stage("lowerings", 2 * len(cases), time.perf_counter() - started)


def bench_backends(cases: List[GeneratedCase]) -> Dict:
    lowered = [
        lower_for_backend(
            case.program, name=case.name, opt_level=opt, checker=case.checker
        )
        for case in cases
        for opt in ("O0", "O3")
    ]
    emissions = 0
    started = time.perf_counter()
    for item in lowered:
        for isa in ("x86", "arm"):
            emit_from_lowered(item, isa)
            emissions += 1
    return _stage("emissions", emissions, time.perf_counter() - started)


def bench_fuzz(
    seed: int, count: int, jobs: int, jobs_curve: Optional[List[int]] = None
) -> Dict:
    backends = ("x86",) if have_native_toolchain() else ()
    config = FuzzConfig(backends=backends)
    started = time.perf_counter()
    results = run_campaign(config, seed, count, jobs=jobs)
    batched = _stage("cases", count, time.perf_counter() - started)
    batched["jobs"] = jobs
    out = {
        "legs": ["interp", "ir-O3"]
        + [f"{b}-{o}" for b in backends for o in ("O0", "O3")],
        "all_cases_clean": all(not r.failed for r in results),
        "batched": batched,
    }
    if jobs_curve:
        out["jobs_curve"] = bench_jobs_curve(config, seed, count, jobs_curve)
    return out


def bench_jobs_curve(
    config: FuzzConfig, seed: int, count: int, jobs_values: List[int]
) -> List[Dict]:
    """The batched campaign timed at each worker count.

    Each point carries its speedup over the curve's jobs=1 point (or the
    smallest measured point when 1 is not in the list) — the number the CI
    multi-core gate checks.
    """
    points: List[Dict] = []
    for jobs in jobs_values:
        started = time.perf_counter()
        run_campaign(config, seed, count, jobs=jobs)
        point = _stage("cases", count, time.perf_counter() - started)
        point["jobs"] = jobs
        points.append(point)
    base = min(points, key=lambda p: p["jobs"])["cases_per_second"]
    for point in points:
        point["speedup_vs_jobs1"] = round(
            point["cases_per_second"] / max(1e-9, base), 2
        )
    return points


def bench_eval(seed: int, functions: int, candidates: int) -> Dict:
    """Decompilation-hypothesis scoring throughput (the repro.eval loop).

    Builds a generated dataset, manufactures labelled candidate sets and
    scores them on the batched native path (interpreter substrate when the
    host has no toolchain).  The agreement number is recorded so a
    throughput win can never silently buy wrong verdicts.  A cold-vs-warm
    series against a throwaway :mod:`repro.eval.cache` directory records
    what the persistent cache buys a repeated run (each point carries the
    cache's own hit/miss counters).
    """
    from repro.eval.cache import EvalCache
    from repro.eval.dataset import generated_entries
    from repro.eval.mutate import Mutator
    from repro.eval.score import score_dataset

    backend = "x86" if have_native_toolchain() else "none"
    started = time.perf_counter()
    # Only the grid point the scorer compiles at (its compile gate emits
    # x86-O0 in both modes) — the full grid is the dataset CLI's business.
    entries = generated_entries(
        seed, functions, max_stmts=8, isas=("x86",), opt_levels=("O0",)
    )
    candidate_sets = [
        Mutator(entry.seed).candidates(entry, candidates) for entry in entries
    ]
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    report = score_dataset(entries, candidate_sets, backend=backend)
    scoring_seconds = time.perf_counter() - started

    # Cold-vs-warm series: the same scoring run against a fresh cache
    # directory (paying the stores), then again against the populated one
    # (every verdict a memo hit).  A throwaway directory so the numbers
    # never depend on whatever .repro-cache/ the working tree carries.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_cache = EvalCache(tmp)
        started = time.perf_counter()
        score_dataset(entries, candidate_sets, backend=backend, cache=cold_cache)
        cold_seconds = time.perf_counter() - started
        warm_cache = EvalCache(tmp)
        started = time.perf_counter()
        score_dataset(entries, candidate_sets, backend=backend, cache=warm_cache)
        warm_seconds = time.perf_counter() - started

    total = report["aggregate"]["candidates"]
    out = _stage("candidates", total, scoring_seconds)
    out.update(
        {
            "functions": functions,
            "candidates_per_function": candidates,
            "backend": backend,
            "build_seconds": round(build_seconds, 3),
            "ground_truth_agreement": report["aggregate"]["ground_truth_agreement"],
        }
    )
    cache_cold = _stage("candidates", total, cold_seconds)
    cache_cold["cache"] = cold_cache.stats_summary()
    cache_warm = _stage("candidates", total, warm_seconds)
    cache_warm["cache"] = warm_cache.stats_summary()
    out["cache_cold"] = cache_cold
    out["cache_warm"] = cache_warm
    out["speedup_warm_vs_cold"] = round(
        cache_warm["candidates_per_second"]
        / max(1e-9, cache_cold["candidates_per_second"]),
        2,
    )
    return out


def bench_repair(seed: int, functions: int, candidates: int, budget: int) -> Dict:
    """Repair-campaign throughput (the repro.eval.repair search loop).

    Runs a full campaign over the near-miss candidates of a generated
    dataset and reports attempts/s (how fast neighbors move through the
    scorer) and repaired/s alongside the repair rate itself, so a
    throughput win can never silently buy a worse search.
    """
    from repro.eval.dataset import generated_entries
    from repro.eval.mutate import Mutator
    from repro.eval.repair import RepairConfig, repair_campaign

    backend = "x86" if have_native_toolchain() else "none"
    entries = generated_entries(
        seed, functions, max_stmts=8, isas=("x86",), opt_levels=("O0",)
    )
    candidate_sets = [
        Mutator(entry.seed).candidates(entry, candidates) for entry in entries
    ]
    config = RepairConfig(backend=backend, budget=budget)
    started = time.perf_counter()
    campaign = repair_campaign(entries, candidate_sets, config=config)
    seconds = time.perf_counter() - started

    aggregate = campaign["aggregate"]
    out = _stage("attempts", aggregate["attempts"], seconds)
    out.update(
        {
            "functions": functions,
            "candidates_per_function": candidates,
            "budget": budget,
            "backend": backend,
            "targets": aggregate["targets"],
            "repaired": aggregate["repaired"],
            "repaired_per_second": _rate(aggregate["repaired"], seconds),
            "repair_rate": aggregate["repair_rate"],
            "io_mismatch_repair_rate": aggregate["io_mismatch_repair_rate"],
        }
    )
    return out


def run_benchmarks(
    seed: int, quick: bool, jobs: int, jobs_curve: Optional[List[int]] = None
) -> Dict:
    stage_count = 40 if quick else 100
    fuzz_count = 120 if quick else 500
    cases = _make_cases(seed, stage_count)
    report = {
        "schema": 1,
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "usable_cpus": usable_cpus(),
            "native_toolchain": have_native_toolchain(),
        },
        "stages": {
            "generator": bench_generator(seed, stage_count),
            "frontend": bench_frontend(cases),
            "interpreter": bench_interpreter(cases),
            "lint": bench_lint(cases),
            "lowering": bench_lowering(cases),
            "backends": bench_backends(cases),
        },
        "fuzz": bench_fuzz(seed, fuzz_count, jobs, jobs_curve),
        "eval": bench_eval(seed, 8 if quick else 20, 6 if quick else 8),
        "repair": bench_repair(seed, 3 if quick else 6, 6, 30 if quick else 80),
    }
    return report


def compare_reports(
    current: Dict,
    baseline: Dict,
    tolerance: float,
    require_jobs_scaling: bool = False,
    min_jobs_speedup: float = 2.0,
) -> Optional[str]:
    """None when within tolerance, else a human-readable failure message.

    Gates, in order:

    * the absolute fuzz and eval throughputs must stay within
      ``tolerance`` of the committed baseline;
    * with ``require_jobs_scaling`` (the multi-core CI gate), the highest
      point of the recorded ``--jobs`` curve must be at least
      ``min_jobs_speedup`` over its jobs=1 point.
    """
    try:
        baseline_rate = float(baseline["fuzz"]["batched"]["cases_per_second"])
    except (KeyError, TypeError, ValueError):
        return "baseline report has no fuzz.batched.cases_per_second"
    current_rate = float(current["fuzz"]["batched"]["cases_per_second"])
    floor = baseline_rate * (1.0 - tolerance)
    if current_rate < floor:
        return (
            f"end-to-end fuzz throughput regressed: {current_rate:.1f} cases/s "
            f"vs baseline {baseline_rate:.1f} cases/s "
            f"(> {tolerance:.0%} below baseline)"
        )
    try:
        baseline_eval = float(baseline["eval"]["candidates_per_second"])
        current_eval = float(current["eval"]["candidates_per_second"])
    except (KeyError, TypeError, ValueError):
        baseline_eval = current_eval = None
    if baseline_eval is not None:
        if current_eval < baseline_eval * (1.0 - tolerance):
            return (
                f"eval scoring throughput regressed: {current_eval:.1f} "
                f"candidates/s vs baseline {baseline_eval:.1f} candidates/s "
                f"(> {tolerance:.0%} below baseline)"
            )
    if require_jobs_scaling:
        curve = current["fuzz"].get("jobs_curve") or []
        if len(curve) < 2:
            return (
                "multi-core gate requested but the report has no --jobs "
                "scaling curve (run with --jobs-curve 1,2,4)"
            )
        top = max(curve, key=lambda point: point["jobs"])
        if float(top.get("speedup_vs_jobs1", 0.0)) < min_jobs_speedup:
            return (
                f"jobs={top['jobs']} end-to-end speedup is only "
                f"{top.get('speedup_vs_jobs1', 0.0):.1f}x over jobs=1 "
                f"(expected >= {min_jobs_speedup:.1f}x): --jobs is not "
                "delivering multi-core scaling"
            )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Benchmark the corpus pipeline and record BENCH_pipeline.json.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced case counts (CI smoke: ~30s instead of minutes)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the fuzz run"
    )
    parser.add_argument(
        "--jobs-curve",
        metavar="N,N,...",
        help="also time the fuzz campaign at each of these worker "
        "counts and record the scaling curve (e.g. 1,2,4)",
    )
    parser.add_argument(
        "--require-jobs-scaling",
        action="store_true",
        help="with --compare: fail unless the top of the --jobs curve is at "
        "least 2x its jobs=1 point (the multi-core CI gate)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_pipeline.json",
        help="where to write the report (default ./BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="baseline BENCH_pipeline.json; exit 1 when fuzz or eval "
        "end-to-end throughput is more than --tolerance below it",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression vs the baseline (default 0.30)",
    )
    args = parser.parse_args(argv)

    jobs_curve: Optional[List[int]] = None
    if args.jobs_curve:
        try:
            jobs_curve = sorted({int(part) for part in args.jobs_curve.split(",")})
        except ValueError:
            parser.error("--jobs-curve takes a comma-separated list of integers")
        if any(jobs < 1 for jobs in jobs_curve):
            parser.error("--jobs-curve worker counts must be >= 1")
    if args.require_jobs_scaling and not args.compare:
        parser.error("--require-jobs-scaling only makes sense with --compare")

    report = run_benchmarks(args.seed, args.quick, args.jobs, jobs_curve)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    fuzz = report["fuzz"]
    print(f"wrote {args.output}")
    for stage, numbers in report["stages"].items():
        rate_key = next(k for k in numbers if k.endswith("_per_second"))
        print(f"  {stage:<12} {numbers[rate_key]:>9.1f} {rate_key.replace('_', ' ')}")
    print(f"  fuzz e2e     {fuzz['batched']['cases_per_second']:>9.1f} cases/s")
    for point in fuzz.get("jobs_curve", []):
        print(
            f"  fuzz jobs={point['jobs']}  {point['cases_per_second']:.1f} cases/s "
            f"({point['speedup_vs_jobs1']:.2f}x vs jobs=1)"
        )
    if not fuzz["all_cases_clean"]:
        print("warning: some benchmark cases reported divergences", file=sys.stderr)
    eval_stage = report["eval"]
    print(
        f"  eval         {eval_stage['candidates_per_second']:.1f} candidates/s "
        f"({eval_stage['functions']}x{eval_stage['candidates_per_function']} on "
        f"{eval_stage['backend']}, agreement "
        f"{eval_stage['ground_truth_agreement']:.0%})"
    )
    print(
        f"  eval cache   cold {eval_stage['cache_cold']['candidates_per_second']:.1f} "
        f"-> warm {eval_stage['cache_warm']['candidates_per_second']:.1f} candidates/s "
        f"({eval_stage['speedup_warm_vs_cold']:.1f}x warm speedup)"
    )
    if eval_stage["ground_truth_agreement"] < 1.0:
        print(
            "warning: eval scoring disagreed with ground-truth labels",
            file=sys.stderr,
        )
    repair_stage = report["repair"]
    print(
        f"  repair       {repair_stage['attempts_per_second']:.1f} attempts/s, "
        f"{repair_stage['repaired_per_second']:.2f} repaired/s "
        f"({repair_stage['repaired']}/{repair_stage['targets']} targets on "
        f"{repair_stage['backend']}, io_mismatch repair rate "
        f"{repair_stage['io_mismatch_repair_rate']:.0%})"
    )

    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        failure = compare_reports(
            report,
            baseline,
            args.tolerance,
            require_jobs_scaling=args.require_jobs_scaling,
        )
        if failure is not None:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"throughput within {args.tolerance:.0%} of baseline "
            f"({baseline['fuzz']['batched']['cases_per_second']:.1f} cases/s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
