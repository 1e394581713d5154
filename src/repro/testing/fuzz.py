"""Differential fuzzing CLI: ``python -m repro.testing.fuzz``.

Generates seeded random Mini-C programs, runs each through the four-way
oracle (interpreter / optimised IR / native -O0 / native -O3) and, on the
first divergence, minimises the failing program with the delta-debugging
reducer and prints a ready-to-commit reproducer.

Throughput machinery (all verdict-preserving):

* **Batched native execution**: cases are evaluated in chunks of
  ``--batch-size`` through :meth:`Oracle.check_batches`, whose native legs
  run on :class:`repro.testing.native.GroupedBatchRunner` (the scorer's
  and the repair search's executor too): one build per native backend
  holds ``--batch-size`` cases at both opt levels — O(backends) toolchain
  invocations per batch instead of O(cases x legs).
* **Fork-server execution**: each batch runs as one persistent process
  that ``fork()``s per (case, input) pair, so traps cost a dead child
  instead of a process relaunch and clean pairs never re-exec.
* **Compile-while-execute pipelining**: the runner pulls chunks lazily and
  keeps three batches in flight: while batch N's fork server runs
  (file-fed, in the background) and batch N+1 builds, the chunk for batch
  N+2 is generated, lowered and run on the reference legs, so the
  compilers and the servers run under the Python front half.
* **Parallel evaluation**: ``--jobs N`` shards the case indices round-robin
  across N worker processes.  Each case's verdict depends only on its seed,
  so results are aggregated deterministically by case index regardless of
  worker scheduling.

Static/dynamic analysis legs (see :mod:`repro.analysis`):

* The **IR verifier** runs on every case by default, after lowering and
  after each -O3 pass, before any differential leg executes; a violation
  is a first-class ``ir-verifier`` divergence with a pass-attributed
  diagnostic (``--no-verify-ir`` disables it).
* ``--sanitize`` adds the report-only UBSan-instrumented C leg; its
  reports surface as ``sanitizer`` divergences.
* ``--inject-ir-miscompile`` drops the first re-extension cast from the
  lowered IR — the IR-level analogue of ``--inject-miscompile`` — which
  the verifier must catch *before* the differential legs run.
* ``--json-report PATH`` writes a machine-readable campaign report whose
  failures carry their category (``io`` / ``ir-verifier`` / ``sanitizer``
  / ``build-error``).

Typical invocations::

    python -m repro.testing.fuzz --seed 0 --count 500
    python -m repro.testing.fuzz --seed 0 --count 500 --jobs 4
    python -m repro.testing.fuzz --seed 3 --count 50 --max-stmts 6 --backend none
    python -m repro.testing.fuzz --seed 0 --count 20 --inject-miscompile
    python -m repro.testing.fuzz --seed 0 --count 20 --inject-ir-miscompile
    python -m repro.testing.fuzz --seed 0 --count 100 --sanitize --json-report out.json

Exit status is 0 when every case agreed on every substrate, 1 when a
divergence was found (or a leg failed to build).
"""

from __future__ import annotations

import argparse
import contextlib
import multiprocessing
import sys
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.testing.generator import GeneratedCase, ProgramGenerator
from repro.testing.native import prepare_fork_harnesses, start_fork_harnesses
from repro.testing.oracle import Oracle, OracleError
from repro.testing.reduce import oracle_interestingness, reduce_case

#: Offset that decorrelates per-case generator seeds from the base seed.
_SEED_STRIDE = 1 << 20


def case_seed(base_seed: int, index: int) -> int:
    """The deterministic per-case seed for case ``index`` of a run."""
    return base_seed * _SEED_STRIDE + index


def strip_cltd(assembly: str) -> str:
    """Deliberate miscompile: drop the first ``cltd`` (the sign extension of
    ``%eax`` into ``%edx`` that must precede ``idivl``), leaving whatever
    garbage ``%edx`` holds to corrupt the quotient."""
    lines = assembly.splitlines()
    for index, line in enumerate(lines):
        if line.strip() == "cltd":
            del lines[index]
            break
    return "\n".join(lines) + "\n"


def strip_reextension(ir_func) -> None:
    """Deliberate IR-level miscompile: replace the first width cast with a
    plain move, silently dropping the re-extension the typed-invariant
    discipline requires.  The IR verifier must refuse the function before
    any differential leg runs (the pass label in the diagnostic reads
    ``inject:strip_reextension``)."""
    from repro.compiler import ir

    for index, instr in enumerate(ir_func.instrs):
        if isinstance(instr, ir.IRCast) and instr.kind in ir.WIDTH_CASTS:
            ir_func.instrs[index] = ir.IRMove(instr.dst, instr.src)
            return


@dataclass(frozen=True)
class FuzzConfig:
    """Picklable campaign configuration (shared with worker processes)."""

    backends: Tuple[str, ...] = ("x86",)
    inject_miscompile: bool = False
    require_native: bool = False
    max_stmts: int = 12
    batch_size: int = 32
    verify_ir: bool = True
    inject_ir_miscompile: bool = False
    sanitize: bool = False


@dataclass
class CaseResult:
    """One case's verdict, independent of evaluation order or sharding."""

    index: int
    seed: int
    status: str  # "ok" | "divergence" | "build-error"
    detail: str = ""
    #: Failure taxonomy: "" for ok, "io" / "ir-verifier" / "sanitizer" for
    #: divergences, "build-error" for legs that could not be built.
    category: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def build_oracle(config: FuzzConfig) -> Oracle:
    return Oracle(
        backends=list(config.backends),
        asm_transform=strip_cltd if config.inject_miscompile else None,
        require_native=config.require_native,
        verify_ir=config.verify_ir,
        ir_transform=strip_reextension if config.inject_ir_miscompile else None,
        sanitize=config.sanitize,
    )


def generate(config: FuzzConfig, base_seed: int, index: int) -> GeneratedCase:
    return ProgramGenerator(
        case_seed(base_seed, index), max_stmts=config.max_stmts
    ).generate()


def _case_result(base_seed: int, index: int, verdict) -> CaseResult:
    seed = case_seed(base_seed, index)
    if verdict is None:
        return CaseResult(index, seed, "ok")
    if isinstance(verdict, Exception):
        return CaseResult(index, seed, "build-error", str(verdict), "build-error")
    return CaseResult(index, seed, "divergence", verdict.describe(), verdict.category)


def check_chunks(
    oracle: Oracle, config: FuzzConfig, base_seed: int, indices: Sequence[int]
) -> Iterator[List[CaseResult]]:
    """The results of ``indices``, one ``config.batch_size`` chunk at a time.

    A chunk's cases are generated only when the oracle pulls the chunk, so
    generation overlaps the native work in flight, as the rest of the
    front half does.  Closing the iterator early closes the oracle's
    stream, which reaps every build and server.
    """
    chunks = [
        indices[start : start + config.batch_size]
        for start in range(0, len(indices), config.batch_size)
    ]
    cases = ([generate(config, base_seed, index) for index in chunk] for chunk in chunks)
    with contextlib.closing(oracle.check_batches(cases, config.batch_size)) as verdicts:
        for chunk, chunk_verdicts in zip(chunks, verdicts):
            yield [
                _case_result(base_seed, index, verdict)
                for index, verdict in zip(chunk, chunk_verdicts)
            ]


def _all_results(
    oracle: Oracle, config: FuzzConfig, base_seed: int, indices: Sequence[int]
) -> List[CaseResult]:
    chunks = check_chunks(oracle, config, base_seed, indices)
    return [result for chunk in chunks for result in chunk]


def _campaign_worker(payload) -> List[CaseResult]:
    config, base_seed, indices = payload
    return _all_results(build_oracle(config), config, base_seed, indices)


def run_campaign(
    config: FuzzConfig,
    base_seed: int,
    count: int,
    jobs: int = 1,
    oracle: Optional[Oracle] = None,
) -> List[CaseResult]:
    """Evaluate ``count`` cases and return per-case results sorted by index.

    With ``jobs > 1`` the indices are striped round-robin over a process
    pool; every case's verdict depends only on its seed, so the aggregated
    result list is byte-identical to a single-process run.
    """
    indices = list(range(count))
    start_fork_harnesses(config.backends)
    if jobs <= 1:
        working_oracle = oracle if oracle is not None else build_oracle(config)
        return _all_results(working_oracle, config, base_seed, indices)
    shards = [indices[worker::jobs] for worker in range(jobs)]
    payloads = [(config, base_seed, shard) for shard in shards if shard]
    prepare_fork_harnesses(config.backends)
    with multiprocessing.Pool(processes=len(payloads)) as pool:
        shard_results = pool.map(_campaign_worker, payloads)
    results = [result for shard in shard_results for result in shard]
    results.sort(key=lambda result: result.index)
    return results


def _report_failure(
    result: CaseResult, case: GeneratedCase, oracle: Oracle, args: argparse.Namespace
) -> None:
    if result.status == "build-error":
        print(
            f"\ncase {result.index} (seed {result.seed}): "
            f"leg failed to build: {result.detail}"
        )
        print(case.source)
        return
    print(f"\ncase {result.index} (seed {result.seed}) DIVERGES:")
    print(result.detail)
    print("--- program ---")
    print(case.source)
    if args.no_reduce:
        return
    if result.category not in ("", "io"):
        # Verifier violations and sanitizer reports already carry their own
        # attribution (pass label / source location); the delta reducer only
        # adds value for observable IO mismatches.
        return
    print("--- reducing ---")
    predicate = oracle_interestingness(oracle, case.name)
    reduced = reduce_case(
        case.source,
        case.name,
        case.inputs,
        predicate,
        max_attempts=args.reduce_attempts,
    )
    final = oracle.check_case(reduced.source, case.name, reduced.inputs)
    print(
        f"reduced after {reduced.attempts} attempts "
        f"({reduced.accepted} accepted edits) to "
        f"{len(reduced.source.strip().splitlines())} lines:"
    )
    print(reduced.source)
    print(f"inputs: {reduced.inputs!r}")
    if final is not None:
        print(final.describe())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Property-based differential fuzzing of the Mini-C substrates.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--count", type=int, default=100, help="number of programs")
    parser.add_argument(
        "--max-stmts", type=int, default=12, help="statement budget per program"
    )
    parser.add_argument(
        "--backend",
        choices=("x86", "arm", "both", "none"),
        default="x86",
        help="native legs to run (default x86; 'none' keeps interp vs IR only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; case indices are sharded round-robin and "
        "results aggregated deterministically by index (default 1)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="cases per native batch build (default 32)",
    )
    parser.add_argument(
        "--require-native",
        action="store_true",
        help="fail instead of silently dropping unavailable native toolchains",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="keep fuzzing after a divergence instead of stopping at the first",
    )
    parser.add_argument(
        "--no-reduce",
        action="store_true",
        help="report divergences without minimising them",
    )
    parser.add_argument(
        "--reduce-attempts",
        type=int,
        default=600,
        help="oracle-invocation budget for the reducer (default 600)",
    )
    parser.add_argument(
        "--inject-miscompile",
        action="store_true",
        help="strip the first cltd from the x86 output (harness self-test: "
        "the oracle must catch and reduce the resulting miscompile)",
    )
    parser.add_argument(
        "--inject-ir-miscompile",
        action="store_true",
        help="replace the first re-extension cast in the lowered IR with a "
        "move (verifier self-test: caught before any differential leg runs)",
    )
    parser.add_argument(
        "--no-verify-ir",
        action="store_true",
        help="skip the IR verifier (on by default after lowering and after "
        "every -O3 pass)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="add the report-only UBSan-instrumented C leg (needs host gcc); "
        "reports surface as 'sanitizer' divergences",
    )
    parser.add_argument(
        "--json-report",
        metavar="PATH",
        help="write a machine-readable campaign report (failures carry their "
        "category: io / ir-verifier / sanitizer / build-error)",
    )
    args = parser.parse_args(argv)

    if args.inject_ir_miscompile and args.no_verify_ir:
        print(
            "error: --inject-ir-miscompile tests the IR verifier and is "
            "meaningless with --no-verify-ir",
            file=sys.stderr,
        )
        return 2

    backends: Tuple[str, ...]
    if args.backend == "none":
        backends = ()
    elif args.backend == "both":
        backends = ("x86", "arm")
    else:
        backends = (args.backend,)
    config = FuzzConfig(
        backends=backends,
        inject_miscompile=args.inject_miscompile,
        require_native=args.require_native,
        max_stmts=args.max_stmts,
        batch_size=max(1, args.batch_size),
        verify_ir=not args.no_verify_ir,
        inject_ir_miscompile=args.inject_ir_miscompile,
        sanitize=args.sanitize,
    )

    try:
        oracle = build_oracle(config)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"legs: {', '.join(oracle.legs())}")
    if len(oracle.legs()) < 2:
        print(
            "error: fewer than two legs available; nothing to compare", file=sys.stderr
        )
        return 2
    if args.inject_miscompile and "x86-O0" not in oracle.legs():
        # The injected bug lives in x86 assembly; without that leg the
        # self-test would silently test nothing and report success.
        print(
            "error: --inject-miscompile needs the x86 native leg "
            "(use --backend x86/both on an x86-64 host with gcc)",
            file=sys.stderr,
        )
        return 2
    if args.sanitize and oracle.sanitizer_config is None:
        print(
            "error: --sanitize needs the host gcc toolchain "
            "(the instrumented leg compiles each case's source as C)",
            file=sys.stderr,
        )
        return 2

    started = time.time()
    failures = 0
    checked = 0
    failed_results: List[CaseResult] = []

    if args.jobs > 1:
        # Parallel: evaluate everything, then report in deterministic order.
        results = run_campaign(config, args.seed, args.count, jobs=args.jobs)
        checked = len(results)
        for result in results:
            if not result.failed:
                continue
            failures += 1
            failed_results.append(result)
            _report_failure(
                result, generate(config, args.seed, result.index), oracle, args
            )
            if not args.keep_going:
                break
    else:
        # Sequential: evaluate in chunks so a failure can stop the run early.
        # The oracle's runners keep later batches in flight behind the one
        # being drained; stopping early closes the stream, which reaps them.
        last_progress = 0
        with contextlib.closing(
            check_chunks(oracle, config, args.seed, list(range(args.count)))
        ) as result_chunks:
            for results in result_chunks:
                checked += len(results)
                stop = False
                for result in results:
                    if not result.failed:
                        continue
                    failures += 1
                    failed_results.append(result)
                    _report_failure(
                        result, generate(config, args.seed, result.index), oracle, args
                    )
                    if not args.keep_going:
                        stop = True
                        break
                if stop:
                    break
                # Progress roughly every 25 cases (and at the end), independent
                # of chunk size and of earlier --keep-going failures.
                if checked - last_progress >= 25 or checked >= args.count:
                    rate = checked / max(1e-9, time.time() - started)
                    label = "ok" if not failures else "checked"
                    print(f"  {checked}/{args.count} cases {label} ({rate:.1f}/s)")
                    last_progress = checked

    elapsed = time.time() - started
    if args.json_report:
        import json
        from dataclasses import asdict
        from pathlib import Path

        by_category: dict = {}
        for result in failed_results:
            by_category[result.category] = by_category.get(result.category, 0) + 1
        report = {
            "seed": args.seed,
            "count": args.count,
            "checked": checked,
            "elapsed_seconds": round(elapsed, 3),
            "legs": oracle.legs(),
            "config": asdict(config),
            "failures": [asdict(result) for result in failed_results],
            "failures_by_category": by_category,
        }
        Path(args.json_report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.json_report}")
    if failures:
        print(f"\n{failures} diverging case(s) out of {checked} in {elapsed:.1f}s")
        return 1
    print(f"\nall {checked} cases agree on every leg ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
