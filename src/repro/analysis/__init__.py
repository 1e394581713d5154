"""Static analysis over the Mini-C pipeline: trust the oracle, cheaply.

The differential fuzzer and the IO-equivalence scorer both assume the
reference pipeline is sound: a miscompile in our own lowering/backends or
silent UB in a generated program corrupts verdicts without failing any
test.  This package adds three static gates that catch broken artifacts
*before* they burn a compile+execute cycle:

* :mod:`repro.analysis.verifier` — a structural + typed-invariant checker
  over :mod:`repro.compiler.ir` (def-before-use, width/signedness
  discipline, cast shapes, branch targets, call arity, terminators),
  runnable standalone (``python -m repro.analysis.verifier``) and wired
  into ``lower_for_backend`` so every -O3 pass is validated individually
  with pass-attributed diagnostics;
* :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.lint` — a forward
  interval/definite-assignment dataflow over the typechecked AST flagging
  possible division by zero, oversized shift counts, uninitialised reads
  and unreachable statements (``python -m repro.analysis.lint``), a
  standalone check on sources and the generated corpus;
* :mod:`repro.analysis.sanitize` — UBSan/ASan compilation of the per-batch
  native translation unit with runtime reports parsed and attributed to
  the owning ``__caseN_*`` case.
"""

from typing import List

__all__: List[str] = [
    "Diagnostic",
    "IRVerificationError",
    "verify_function",
    "verify_function_or_raise",
    "Finding",
    "lint_program",
    "lint_source",
    "SanitizerConfig",
    "SanitizerReport",
    "parse_sanitizer_reports",
]


def __getattr__(name: str):
    if name in (
        "Diagnostic",
        "IRVerificationError",
        "verify_function",
        "verify_function_or_raise",
    ):
        from repro.analysis import verifier

        return getattr(verifier, name)
    if name in ("Finding", "lint_program", "lint_source"):
        from repro.analysis import lint

        return getattr(lint, name)
    if name in ("SanitizerConfig", "SanitizerReport", "parse_sanitizer_reports"):
        from repro.analysis import sanitize

        return getattr(sanitize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
