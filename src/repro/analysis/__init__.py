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
* :mod:`repro.analysis.sanitize` — UBSan compilation of the per-batch
  native translation unit with runtime reports parsed and attributed to
  the owning ``__caseN_*`` case.
"""

import importlib
from typing import Dict, List

#: Every export, mapped to the submodule that defines it; imported lazily.
_EXPORTS: Dict[str, str] = {
    "Diagnostic": "verifier",
    "IRVerificationError": "verifier",
    "verify_function": "verifier",
    "verify_function_or_raise": "verifier",
    "Finding": "lint",
    "lint_program": "lint",
    "lint_source": "lint",
    "SanitizerReport": "sanitize",
    "parse_sanitizer_reports": "sanitize",
}

__all__: List[str] = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
