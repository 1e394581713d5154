"""Property-based differential testing for the Mini-C substrates.

This package is the reproduction's analogue of the paper's evaluation loop:
SLaDe judges decompilations by IO equivalence against the binary, so the
equivalence machinery itself (interpreter, compiler, native execution) must
agree on every program it can ever be shown.  The fuzzer generates random
well-typed Mini-C programs, runs them through four independent substrates
and reports the first observable divergence:

* :mod:`repro.testing.generator` — seeded, size-bounded random program and
  argument-vector sampler, emitted through the real printer and re-checked
  by the real parser/type checker;
* :mod:`repro.testing.irexec` — a direct executor for the compiler's IR,
  exercising lowering and the -O3 IR optimiser (constant folder, copy
  propagation, strength reduction, DCE) without any backend;
* :mod:`repro.testing.oracle` — the four-way differential harness
  (interpreter / IR / compiled -O0 / compiled -O3 run natively);
* :mod:`repro.testing.reduce` — delta-debugging minimiser that shrinks a
  failing program while preserving its divergence;
* :mod:`repro.testing.frontend` — the per-case front-end context (parse /
  typecheck / lower once, share across every leg and input vector);
* :mod:`repro.testing.native` — the native build-and-execute harness,
  :class:`NativeBatch` (N cases -> one binary per leg, one fork server
  per run), packed and pipelined by ``GroupedBatchRunner`` for the oracle
  and the eval scorer alike;
* :mod:`repro.testing.fuzz` — the ``python -m repro.testing.fuzz`` CLI
  (``--jobs N`` worker pool, ``--batch-size``, deterministic aggregation).
"""

from typing import List

__all__: List[str] = [
    "GeneratedCase",
    "ProgramGenerator",
    "Divergence",
    "Oracle",
    "IRExecutor",
    "reduce_case",
    "CaseContext",
    "NativeBatch",
    "FuzzConfig",
    "run_campaign",
]


def __getattr__(name: str):
    if name in ("GeneratedCase", "ProgramGenerator"):
        from repro.testing import generator

        return getattr(generator, name)
    if name in ("Divergence", "Oracle"):
        from repro.testing import oracle

        return getattr(oracle, name)
    if name == "IRExecutor":
        from repro.testing.irexec import IRExecutor

        return IRExecutor
    if name == "reduce_case":
        from repro.testing.reduce import reduce_case

        return reduce_case
    if name == "CaseContext":
        from repro.testing.frontend import CaseContext

        return CaseContext
    if name == "NativeBatch":
        from repro.testing.native import NativeBatch

        return NativeBatch
    if name in ("FuzzConfig", "run_campaign"):
        from repro.testing import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
