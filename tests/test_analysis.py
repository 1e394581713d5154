"""Tests for the repro.analysis subsystem (PR 6).

Three layers:

* the IR verifier — accepts everything the lowering pipeline produces
  (golden + generated corpus, O0 and O3) and rejects hand-broken IR with
  pass-attributed diagnostics;
* the UB/dataflow linter — pinned verdicts on small sources, and
  precision against the mutator's certified trap labels;
* the sanitizer leg — attributed UBSan reports, clean runs, struct skips
  (native-toolchain tests are gated).
"""

import dataclasses

import pytest

from corpus import CORPUS
from repro.analysis.lint import lint_source
from repro.analysis.sanitize import (
    SanitizerBatch,
    parse_sanitizer_reports,
)
from repro.analysis.verifier import (
    IRVerificationError,
    verify_function,
    verify_function_or_raise,
)
from repro.compiler import ir
from repro.compiler.driver import lower_for_backend
from repro.eval.dataset import generated_entries
from repro.eval.mutate import Mutator
from repro.lang.parser import parse_program
from repro.testing.fuzz import case_seed, strip_reextension
from repro.testing.generator import ProgramGenerator
from repro.testing.native import have_native_toolchain
from repro.testing.oracle import Oracle


def _lowered_ir(source: str, name: str, opt_level: str = "O0") -> ir.IRFunction:
    return lower_for_backend(
        parse_program(source), name=name, opt_level=opt_level
    ).ir_func


# ---------------------------------------------------------------------------
# IR verifier: accepts real output
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
def test_verifier_accepts_golden_corpus(opt_level):
    for source, name, _ in CORPUS:
        lower_for_backend(
            parse_program(source), name=name, opt_level=opt_level, verify_ir=True
        )


@pytest.mark.parametrize("opt_level", ["O0", "O3"])
def test_verifier_accepts_generated_corpus(opt_level):
    for index in range(30):
        case = ProgramGenerator(case_seed(7, index), max_stmts=10).generate()
        lower_for_backend(
            parse_program(case.source),
            name=case.name,
            opt_level=opt_level,
            verify_ir=True,
        )


# ---------------------------------------------------------------------------
# IR verifier: rejects broken IR, attributing the pass
# ---------------------------------------------------------------------------


def test_verifier_flags_undefined_register():
    func = _lowered_ir("int f(int a) { return a; }", "f")
    func.instrs.insert(0, ir.IRMove(ir.VReg(996), ir.VReg(999)))
    diagnostics = verify_function(func, pass_name="test-pass")
    assert diagnostics, "undefined-register use not flagged"
    assert any("use of undefined register" in d.message for d in diagnostics)
    assert diagnostics[0].pass_name == "test-pass"
    assert "[ir-verifier]" in str(diagnostics[0])
    assert "after test-pass" in str(diagnostics[0])


def test_verifier_flags_dangling_branch_target():
    func = _lowered_ir("int f(int a) { return a; }", "f")
    func.instrs.insert(0, ir.IRJump(".Lnope"))
    diagnostics = verify_function(func)
    assert any("is not a label" in d.message for d in diagnostics)


def test_verifier_flags_wrong_width_cast():
    # ``char c = a`` lowers through a width cast; mis-annotate its
    # destination so the annotation no longer matches what the cast
    # produces.
    func = _lowered_ir("int f(int a) { char c = a; return c; }", "f")
    casts = [
        (i, instr)
        for i, instr in enumerate(func.instrs)
        if isinstance(instr, ir.IRCast) and instr.kind in ir.WIDTH_CASTS
    ]
    assert casts, "expected a width cast in the lowered IR"
    index, cast = casts[0]
    wrong = dataclasses.replace(
        cast.dst, bits=64 if cast.dst.bits != 64 else 32
    )
    func.instrs[index] = ir.IRCast(cast.kind, wrong, cast.src)
    diagnostics = verify_function(func)
    assert any("destination annotated" in d.message for d in diagnostics)


def test_verifier_flags_dropped_reextension():
    func = _lowered_ir("int f(int a) { char c = a; return c + 1; }", "f")
    strip_reextension(func)
    with pytest.raises(IRVerificationError) as excinfo:
        verify_function_or_raise(func, pass_name="inject:strip_reextension")
    assert excinfo.value.pass_name == "inject:strip_reextension"
    assert "inject:strip_reextension" in str(excinfo.value)


def test_verifier_tracks_constant_values():
    # A 64-bit register holding a small known immediate is fine as a
    # narrow operand; a known out-of-range immediate is not.
    def one(value):
        wide = ir.VReg(0, bits=64)
        narrow = ir.VReg(1, bits=8)
        return ir.IRFunction(
            name="f",
            instrs=[
                ir.IRConst(wide, value),
                ir.IRBinOp("add", narrow, wide, 1, bits=8),
                ir.IRRet(narrow),
            ],
            next_vreg=2,
        )

    assert verify_function(one(5)) == []
    diagnostics = verify_function(one(300))
    assert any("holds immediate 300" in d.message for d in diagnostics)


def test_oracle_reports_injected_ir_miscompile():
    oracle = Oracle(backends=(), ir_transform=strip_reextension)
    divergence = oracle.check_case(
        "int f(int a) { char c = a; return c + 1; }", "f", [(5,)]
    )
    assert divergence is not None
    assert divergence.category == "ir-verifier"
    assert divergence.diverging_leg == "inject:strip_reextension"
    assert "IR invariant violation" in divergence.describe()


# ---------------------------------------------------------------------------
# Linter: pinned verdicts
# ---------------------------------------------------------------------------


def _findings(source, kind=None):
    found = lint_source(source)
    if kind is None:
        return found
    return [f for f in found if f.kind == kind]


def test_lint_definite_division_by_zero_predicts_trap():
    findings = _findings("int f(int a) { return a / 0; }", "div_by_zero")
    assert findings and findings[0].severity == "error"
    assert findings[0].predicts_trap


def test_lint_nonzero_divisor_is_clean():
    assert not _findings(
        "int f(int a, int b) { return a / ((b & 7) + 1); }", "div_by_zero"
    )
    assert not _findings(
        "int f(int a, int b) { return a / ((b & 7) + 1); }", "possible_div_by_zero"
    )


def test_lint_guard_refines_divisor():
    source = "int f(int a, int b) { if (b) { return a / b; } return 0; }"
    assert not _findings(source, "div_by_zero")


def test_lint_division_in_loop_is_not_must_execute():
    source = "int f(int a) { while (a) { return 1 / 0; } return 0; }"
    findings = _findings(source, "div_by_zero")
    assert findings and not findings[0].must_execute
    assert not findings[0].predicts_trap


def test_lint_float_division_by_zero_is_defined():
    assert not any(
        f.predicts_trap
        for f in _findings("double f(double a) { return a / 0.0; }")
    )


def test_lint_shift_width():
    assert _findings("int f(int a) { return a << 32; }", "shift_width")
    assert not _findings("int f(int a, int b) { return a << (b & 31); }", "shift_width")


def test_lint_uninitialized_read():
    assert _findings("int f(int a) { int x; return x + a; }", "uninitialized")


def test_lint_unreachable_code():
    assert _findings("int f(int a) { return a; a = 2; return a; }", "unreachable")


# ---------------------------------------------------------------------------
# Linter: precision against certified mutate labels
# ---------------------------------------------------------------------------


def test_lint_trap_predictions_match_certified_labels():
    entries = generated_entries(0, 12, max_stmts=10, isas=("x86",), opt_levels=("O0",))
    flagged = 0
    for entry in entries:
        for candidate in Mutator(entry.seed).candidates(entry, 6):
            if not candidate.expected:
                continue
            try:
                findings = lint_source(candidate.text, name=entry.name)
            except Exception:
                continue
            if any(f.predicts_trap for f in findings):
                flagged += 1
                assert candidate.expected == "trap", (
                    f"linter flagged a candidate certified as "
                    f"{candidate.expected!r}: {candidate.text}"
                )
    assert flagged > 0, "no certified trap candidate was ever flagged"


# ---------------------------------------------------------------------------
# Sanitizer leg
# ---------------------------------------------------------------------------


class _Case:
    def __init__(self, source, name, inputs):
        self.source = source
        self.name = name
        self.inputs = inputs


def test_parse_sanitizer_reports_dedups():
    stderr = (
        "san_case0.c:2:14: runtime error: shift exponent 40 is too large "
        "for 32-bit type 'int'\n"
        "san_case0.c:2:14: runtime error: shift exponent 40 is too large "
        "for 32-bit type 'int'\n"
        "san_case1.c:3:10: runtime error: division by zero\n"
    )
    reports = parse_sanitizer_reports(
        stderr, {"san_case0.c": 0, "san_case1.c": 7}
    )
    assert len(reports) == 2
    assert reports[0].case_index == 0
    assert "shift exponent" in reports[0].message
    assert reports[1].case_index == 7


needs_gcc = pytest.mark.skipif(
    not have_native_toolchain(), reason="no native toolchain"
)


@needs_gcc
def test_sanitizer_batch_attributes_shift_report(tmp_path):
    batch = SanitizerBatch(
        [
            _Case("int f(int a, int b) { return a + b; }", "f", [(1, 2)]),
            _Case("int g(int a) { return a << 40; }", "g", [(3,)]),
        ],
        tmp_path,
    )
    by_case = batch.reports_by_case()
    assert 0 not in by_case
    assert 1 in by_case
    assert any("shift exponent" in r.message for r in by_case[1])


@needs_gcc
def test_sanitizer_batch_skips_struct_cases(tmp_path):
    source = (
        "struct point { int x; int y; };\n"
        "int f(struct point p) { return p.x + p.y; }\n"
    )
    batch = SanitizerBatch([_Case(source, "f", [])], tmp_path)
    assert 0 in batch.skipped
    assert batch.run() == []


@needs_gcc
def test_oracle_sanitizer_divergence(tmp_path):
    oracle = Oracle(backends=("x86",), workdir=tmp_path, sanitize=True)
    divergence = oracle.check_case("int f(int a) { return a << 40; }", "f", [(3,)])
    assert divergence is not None
    assert divergence.category == "sanitizer"
    assert "shift exponent" in divergence.detail
    assert "sanitizer report" in divergence.describe()
