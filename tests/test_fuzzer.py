"""Tests for the property-based differential fuzzing subsystem.

Covers the generator (determinism, round-trip validity), the IR executor
leg, the four-way oracle, the delta-debugging reducer, and the acceptance
criterion that a deliberately injected miscompile (dropping the ``cltd``
sign extension before ``idivl``) is caught and reduced to a tiny
reproducer.  Printer/driver regressions the fuzzer originally shook out are
pinned here too.
"""

import tempfile

import pytest

from repro.compiler import CompileError, compile_function
from repro.lang import ast_nodes as ast
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.lang.printer import print_expr
from repro.testing import native
from repro.testing.fuzz import FuzzConfig, case_seed, run_campaign, strip_cltd
from repro.testing.generator import ProgramGenerator, generate_case
from repro.testing.irexec import IRExecutor
from repro.testing.oracle import Oracle, values_equal
from repro.testing.reduce import oracle_interestingness, reduce_case

from corpus import CORPUS
from repro.testing.native import have_native_toolchain


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_case(1234)
    b = generate_case(1234)
    assert a.source == b.source
    assert a.inputs == b.inputs


def test_generator_seeds_differ():
    sources = {generate_case(seed).source for seed in range(10)}
    assert len(sources) == 10


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_generated_programs_compile_and_run(seed):
    """Every generated program must compile at both levels on both ISAs and
    execute on its inputs without tripping the interpreter."""
    case = generate_case(seed, max_stmts=8)
    for isa in ("x86", "arm"):
        for opt in ("O0", "O3"):
            compile_function(case.source, name=case.name, isa=isa, opt_level=opt)
    interp = Interpreter(parse_program(case.source))
    interp.run_function(case.name, case.inputs[0])


def test_generator_respects_max_stmts():
    small = ProgramGenerator(5, max_stmts=3).generate()
    large = ProgramGenerator(5, max_stmts=30).generate()
    assert len(large.source.splitlines()) > len(small.source.splitlines())


# ---------------------------------------------------------------------------
# IR executor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source,name,inputs", CORPUS[:12], ids=[entry[1] for entry in CORPUS[:12]]
)
def test_ir_executor_matches_interpreter_on_corpus(source, name, inputs):
    for opt in ("O0", "O3"):
        for args in inputs:
            expected = Interpreter(parse_program(source)).run_function(name, args)
            actual = IRExecutor(source, opt_level=opt).run_function(name, args)
            assert values_equal(actual.return_value, expected.return_value)
            assert values_equal(actual.arg_values, expected.arg_values)
            assert values_equal(actual.globals, expected.globals)


def test_ir_executor_honours_global_initialisers():
    source = """
int base = 41;

int next_base(int k) {
    base += k;
    return base;
}
"""
    result = IRExecutor(source).run_function("next_base", (1,))
    assert result.return_value == 42
    assert result.globals["base"] == 42


# ---------------------------------------------------------------------------
# Oracle (toolchain-free legs)
# ---------------------------------------------------------------------------


def test_oracle_interp_vs_ir_clean_on_generated_programs():
    oracle = Oracle(backends=())
    assert oracle.legs() == ["interp", "ir-O3"]
    for index in range(25):
        case = generate_case(case_seed(7, index), max_stmts=8)
        divergence = oracle.check_case(case.source, case.name, case.inputs)
        assert divergence is None, divergence.describe()


def test_oracle_trap_on_every_leg_is_equivalent():
    """A trap is an observation: when every leg traps (division by zero
    here), the legs agree and no divergence is reported."""
    oracle = Oracle(backends=())
    source = """
int f(int a) {
    return a / (a - a);
}
"""
    assert oracle.check_case(source, "f", [(3,)]) is None


# ---------------------------------------------------------------------------
# Reducer
# ---------------------------------------------------------------------------


def test_reducer_shrinks_with_syntactic_predicate():
    """Reducer mechanics, independent of any toolchain: shrink a bloated
    program while preserving a syntactic property."""
    source = """
int target(int a, int b) {
    int x = 1;
    int y = 2;
    for (int i = 0; i < 5; i++) {
        x = x + i;
    }
    if (a > b) {
        y = y * 3;
    }
    int z = a / ((b & 7) + 1);
    return z + x + y;
}
"""

    def still_divides(candidate: str, inputs) -> bool:
        return "/" in candidate

    result = reduce_case(source, "target", [(1, 2)], still_divides)
    assert "/" in result.source
    assert len(result.source.splitlines()) < len(source.strip().splitlines())


def test_reducer_drops_unused_parameters():
    source = """
int target(int a, int b, int c) {
    return a + 1;
}
"""

    def still_adds(candidate: str, inputs) -> bool:
        return "a + 1" in candidate

    result = reduce_case(source, "target", [(1, 2, 3)], still_adds)
    assert "b" not in result.source and "c" not in result.source
    assert result.inputs == [(1,)]


# ---------------------------------------------------------------------------
# Fuzzer-found front-end regressions
# ---------------------------------------------------------------------------


def test_printer_does_not_fuse_double_negation():
    """-(-28) must not print as the predecrement --28 (fuzzer find)."""
    text = print_expr(ast.UnaryOp("-", ast.IntLiteral(-28)))
    assert "--" not in text
    nested = print_expr(ast.UnaryOp("-", ast.UnaryOp("-", ast.Identifier("x"))))
    assert "--" not in nested


def test_shift_result_type_is_promoted_left_operand():
    """(u32 >> u64_count) stays 32-bit: the count does not widen the result
    (fuzzer find, mirrored by the shift_type corpus regression)."""
    source = """
unsigned long f(unsigned int p, unsigned long s) {
    return ((0 - p) >> s) << 1;
}
"""
    result = Interpreter(parse_program(source)).run_function("f", (100, 0))
    assert result.return_value == ((2**32 - 100) << 1) % 2**32


def test_global_initialisers_emit_data_sections():
    source = """
int base = 42;
int zero_base;

int touch(int k) {
    zero_base += k;
    return base + zero_base;
}
"""
    x86 = compile_function(source, name="touch", isa="x86", opt_level="O0").assembly
    assert "\t.data" in x86 and "\t.long\t42" in x86
    assert "\t.comm\tzero_base,4,8" in x86  # zero-init stays in .bss
    arm = compile_function(source, name="touch", isa="arm", opt_level="O0").assembly
    assert "\t.data" in arm and "\t.word\t42" in arm
    assert "\t.comm\tzero_base,4,8" in arm


def test_non_constant_global_initialiser_is_rejected():
    source = """
int seed(int x);
int base = seed(3);

int touch(void) {
    return base;
}
"""
    with pytest.raises(CompileError):
        compile_function(source, name="touch")


# ---------------------------------------------------------------------------
# Native legs and the injected-miscompile acceptance criterion
# ---------------------------------------------------------------------------

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)


@needs_toolchain
def test_bounded_fuzz_smoke_native():
    """A short four-way fuzz run must come back clean."""
    oracle = Oracle(backends=("x86",))
    assert set(oracle.legs()) == {"interp", "ir-O3", "x86-O0", "x86-O3"}
    for index in range(10):
        case = generate_case(case_seed(11, index), max_stmts=8)
        divergence = oracle.check_case(case.source, case.name, case.inputs)
        assert divergence is None, divergence.describe()


@needs_toolchain
def test_jobs_workers_share_the_parents_fork_harness(tmp_path, monkeypatch):
    """``--jobs`` pool workers exit without running ``atexit``: a harness
    dir a worker made itself would leak.  The parent compiles the harness
    before forking, so at most its own dir exists."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_harnesses", {})
    monkeypatch.setattr(native, "_harness_dir", None)
    results = run_campaign(FuzzConfig(require_native=True), 0, 4, jobs=2)
    assert not any(result.failed for result in results)
    assert len(list(tmp_path.glob("mc_forkserver_*"))) <= 1


@needs_toolchain
def test_injected_miscompile_is_caught_and_reduced():
    """Acceptance criterion: stripping the cltd before idivl must be caught
    by the oracle and reduced to a <= 15 line reproducer."""
    oracle = Oracle(backends=("x86",), asm_transform=strip_cltd)
    divergence = None
    case = None
    for index in range(40):
        candidate = generate_case(case_seed(0, index))
        divergence = oracle.check_case(
            candidate.source, candidate.name, candidate.inputs
        )
        if divergence is not None:
            case = candidate
            break
    assert divergence is not None, "fuzzer failed to catch the injected miscompile"

    predicate = oracle_interestingness(oracle, case.name)
    result = reduce_case(
        case.source, case.name, case.inputs, predicate, max_attempts=300
    )
    assert len(result.source.strip().splitlines()) <= 15, result.source
    assert oracle.check_case(result.source, case.name, result.inputs) is not None

    # The pristine compiler must be clean on the same program.
    clean_oracle = Oracle(backends=("x86",))
    assert clean_oracle.check_case(result.source, case.name, result.inputs) is None
