"""Mini-C UB/dataflow linter: ``python -m repro.analysis.lint``.

A thin reporting layer over :mod:`repro.analysis.dataflow`: each dataflow
fact that indicates undefined behaviour (in C) or a guaranteed runtime trap
(in the dialect) becomes a :class:`Finding`.

Severities:

* ``error`` — ``div_by_zero``: the divisor interval is exactly ``[0, 0]``;
  under the dialect's semantics the division *will* trap if it executes.
  When the finding is also ``must_execute``, every call traps
  (:attr:`Finding.predicts_trap`).
* ``warning`` — ``possible_div_by_zero`` (a bounded divisor range that
  includes zero), ``shift_width`` (count provably outside ``[0, width)``:
  defined here because the dialect masks counts, undefined in C — exactly
  what the UBSan leg reports), ``uninitialized`` (scalar local read before
  assignment) and ``unreachable``.

CLI::

    python -m repro.analysis.lint file.c [file2.c ...]
    python -m repro.analysis.lint --seed 0 --count 500          # generated corpus
    python -m repro.analysis.lint --seed 0 --count 500 --fail-on warning
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_program
from repro.lang.typecheck import TypeChecker

#: Finding kind -> severity.
SEVERITIES = {
    "div_by_zero": "error",
    "possible_div_by_zero": "warning",
    "shift_width": "warning",
    "uninitialized": "warning",
    "unreachable": "warning",
}


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic.

    ``definite`` marks facts proven under the dialect's semantics (today:
    a divisor interval of exactly ``[0, 0]``); ``must_execute`` marks
    program points that run on every call.  Both together make the finding
    strong enough to predict a runtime trap without executing.
    """

    kind: str
    severity: str
    function: str
    message: str
    definite: bool = False
    must_execute: bool = False

    @property
    def predicts_trap(self) -> bool:
        """Will every call of this function trap at this finding's site?"""
        return self.kind == "div_by_zero" and self.definite and self.must_execute

    def __str__(self) -> str:
        qualifier = " [every call traps]" if self.predicts_trap else ""
        return f"{self.severity}: {self.function}: {self.message}{qualifier}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "function": self.function,
            "message": self.message,
            "definite": self.definite,
            "must_execute": self.must_execute,
        }


def lint_function(func: ast.FunctionDef) -> List[Finding]:
    """Lint one (already typechecked) function definition."""
    from repro.analysis import dataflow

    findings: List[Finding] = []

    def sink(kind: str, message: str, node, definite: bool, must: bool) -> None:
        findings.append(
            Finding(
                kind,
                SEVERITIES.get(kind, "warning"),
                func.name,
                message,
                definite,
                must,
            )
        )

    dataflow.analyze_function(func, sink)
    return findings


def lint_program(program: ast.Program, name: Optional[str] = None) -> List[Finding]:
    """Lint every function (or just ``name``) of a **typechecked** program.

    The analysis reads the ``ctype`` annotations the type checker leaves on
    expressions; run :class:`~repro.lang.typecheck.TypeChecker` first (or
    use :func:`lint_source`, which does).
    """
    functions = program.functions() if name is None else []
    if name is not None:
        func = program.function(name)
        if func is not None:
            functions = [func]
    findings: List[Finding] = []
    for func in functions:
        findings.extend(lint_function(func))
    return findings


def lint_source(source: str, name: Optional[str] = None) -> List[Finding]:
    """Parse, typecheck and lint Mini-C source text.

    Raises the parser/lexer errors of invalid source; type errors do not
    block linting (the analysis degrades to TOP where annotations are
    missing).
    """
    program = parse_program(source)
    checker = TypeChecker(program)
    checker.check()
    return lint_program(program, name=name)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="UB/dataflow linter for Mini-C sources or the generated corpus.",
    )
    parser.add_argument(
        "sources", nargs="*", help="Mini-C source files (default: seeded corpus)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base corpus seed")
    parser.add_argument(
        "--count", type=int, default=100, help="number of generated programs"
    )
    parser.add_argument(
        "--max-stmts", type=int, default=12, help="statement budget per program"
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="exit nonzero when a finding of at least this severity appears "
        "(default error)",
    )
    parser.add_argument("--quiet", action="store_true", help="summary only")
    args = parser.parse_args(argv)

    findings: List[Finding] = []
    checked = 0
    if args.sources:
        from pathlib import Path

        for path in args.sources:
            for finding in lint_source(Path(path).read_text()):
                findings.append(finding)
                if not args.quiet:
                    print(f"{path}: {finding}")
            checked += 1
    else:
        from repro.testing.fuzz import case_seed
        from repro.testing.generator import ProgramGenerator

        for index in range(args.count):
            seed = case_seed(args.seed, index)
            case = ProgramGenerator(seed, max_stmts=args.max_stmts).generate()
            case_findings = lint_source(case.source, name=case.name)
            for finding in case_findings:
                findings.append(finding)
                if not args.quiet:
                    print(f"case {index} (seed {seed}): {finding}")
            checked += 1

    by_kind: dict = {}
    for finding in findings:
        by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
    summary = ", ".join(f"{kind}={count}" for kind, count in sorted(by_kind.items()))
    print(
        f"linted {checked} input(s): {len(findings)} finding(s)"
        + (f" ({summary})" if summary else "")
    )
    if args.fail_on == "never":
        return 0
    threshold = ("error",) if args.fail_on == "error" else ("error", "warning")
    return 1 if any(f.severity in threshold for f in findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
