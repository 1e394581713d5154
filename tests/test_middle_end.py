"""The middle end's type-keyed dispatch tables and its hot-path contracts.

Lowering, the IR verifier, the -O3 passes and both emitters dispatch on the
exact class of an AST node or IR instruction.  These tests pin that every
class the compiler defines has an entry, that a class without one still
gets the old fallback (a diagnostic or an exception, never a silent skip),
and the contracts the fast paths rely on: ``VReg`` hashing and
``IntType.wrap``.
"""

import pytest

from repro.analysis import verifier
from repro.compiler import arm, ir, lowering, x86
from repro.compiler.driver import CompileError, emit_from_lowered, lower_for_backend
from repro.compiler.lowering import Lowerer, LoweringError
from repro.compiler.regalloc import linear_scan
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.parser import parse_program
from repro.lang.typecheck import TypeChecker


def _subclasses_defined_in(module, base):
    return [
        value
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, base) and value is not base
    ]


_IR_CLASSES = _subclasses_defined_in(ir, ir.IRInstr)
_EMIT_TABLES = [("x86", x86._EMIT_DISPATCH), ("arm", arm._EMIT_DISPATCH)]


class _BogusInstr(ir.IRInstr):
    """An instruction class no table knows."""


class _BogusStmt(ast.Stmt):
    pass


class _BogusExpr(ast.Expr):
    pass


def _ret_function(*instrs: ir.IRInstr) -> ir.IRFunction:
    result = ir.VReg(0, bits=32)
    return ir.IRFunction(
        name="f",
        instrs=[ir.IRConst(result, 0), *instrs, ir.IRRet(result)],
        next_vreg=1,
    )


# ---------------------------------------------------------------------------
# Table completeness
# ---------------------------------------------------------------------------


def test_every_ir_instruction_class_has_a_verifier_check():
    assert ir.IRBinOp in _IR_CLASSES and ir.IRLabel in _IR_CLASSES
    missing = [cls.__name__ for cls in _IR_CLASSES if cls not in verifier._CHECKS]
    assert missing == []


@pytest.mark.parametrize("isa,table", _EMIT_TABLES, ids=[t[0] for t in _EMIT_TABLES])
def test_every_ir_instruction_class_has_an_emitter(isa, table):
    missing = [cls.__name__ for cls in _IR_CLASSES if cls not in table]
    assert missing == []


def test_every_ast_node_class_has_a_lowering():
    exprs = _subclasses_defined_in(ast, ast.Expr)
    stmts = _subclasses_defined_in(ast, ast.Stmt)
    assert ast.BinaryOp in exprs and ast.Block in stmts
    assert [c.__name__ for c in exprs if c not in lowering._EXPR_DISPATCH] == []
    assert [c.__name__ for c in stmts if c not in lowering._STMT_DISPATCH] == []


def test_ir_pass_tables_name_only_ir_classes():
    """The -O3 passes' partial tables (folders, removable, terminators)
    are keyed by real IR classes, and labels are never removable."""
    from repro.compiler import opt

    for table in (opt._FOLDERS, opt._REMOVABLE_INSTRS, opt._TERMINATORS):
        assert set(table) <= set(_IR_CLASSES)
    assert ir.IRLabel not in opt._REMOVABLE_INSTRS


# ---------------------------------------------------------------------------
# Table misses keep the old fallbacks
# ---------------------------------------------------------------------------


def test_verifier_reports_an_unknown_instruction():
    func = _ret_function(_BogusInstr())
    diagnostics = verifier.verify_function(func, pass_name="test")
    assert [d.message for d in diagnostics] == ["unknown instruction _BogusInstr"]
    assert diagnostics[0].index == 1


@pytest.mark.parametrize("isa", ["x86", "arm"])
def test_emitters_refuse_an_unknown_instruction(isa):
    backend = x86.X86Backend() if isa == "x86" else arm.ArmBackend()
    func = _ret_function(_BogusInstr())
    allocation = linear_scan(func, [], [])
    with pytest.raises(NotImplementedError, match=f"{isa} backend cannot emit _BogusInstr"):
        backend.emit_function(func, allocation, {}, {})


@pytest.mark.parametrize("isa", ["x86", "arm"])
def test_driver_reports_an_unknown_instruction_as_a_compile_error(isa):
    lowered = lower_for_backend(parse_program("int f(int a) { return a; }"), "f")
    lowered.ir_func.instrs.insert(0, _BogusInstr())
    with pytest.raises(CompileError, match=f"{isa} backend error: .*_BogusInstr"):
        emit_from_lowered(lowered, isa)


def _lower_with_body(statements, promote_scalars):
    program = parse_program("int f(int a) { return a; }")
    checker = TypeChecker(program)
    checker.check()
    func = program.function("f")
    func.body.stmts[:0] = statements
    Lowerer(program, func, promote_scalars=promote_scalars, checker=checker).lower()


@pytest.mark.parametrize("promote_scalars", [False, True])
def test_lowering_refuses_an_unknown_statement(promote_scalars):
    with pytest.raises(LoweringError, match="^cannot lower statement _BogusStmt$"):
        _lower_with_body([_BogusStmt()], promote_scalars)


@pytest.mark.parametrize("promote_scalars", [False, True])
def test_lowering_refuses_an_unknown_expression(promote_scalars):
    with pytest.raises(LoweringError, match="^cannot lower expression _BogusExpr$"):
        _lower_with_body([ast.ExprStmt(_BogusExpr())], promote_scalars)


# ---------------------------------------------------------------------------
# VReg: hash by id, equality on every field
# ---------------------------------------------------------------------------


def test_vreg_hash_and_equality_contract():
    reg = ir.VReg(7, False, 32, True)
    twin = ir.VReg(7, False, 32, True)
    assert reg == twin and hash(reg) == hash(twin) == 7
    for other in (
        ir.VReg(7, False, 16, True),
        ir.VReg(7, False, 32, False),
        ir.VReg(7, True, 32, True),
        ir.VReg(8, False, 32, True),
    ):
        assert reg != other
    # Same id, different annotation: distinct dict keys despite one hash.
    assert len({reg: 1, ir.VReg(7, False, 64, True): 2, twin: 3}) == 2


def test_verifier_flags_a_register_redefined_with_another_annotation():
    first = ir.VReg(0, bits=32)
    again = ir.VReg(0, bits=8)
    func = ir.IRFunction(
        name="f",
        instrs=[ir.IRConst(first, 1), ir.IRConst(again, 2), ir.IRRet(again)],
        next_vreg=1,
    )
    diagnostics = verifier.verify_function(func)
    assert [d.index for d in diagnostics] == [1]
    assert diagnostics[0].message == (
        "register %v0 redefined with annotation (float=False, bits=8, "
        "unsigned=False); originally (float=False, bits=32, unsigned=False)"
    )


def test_verifier_flags_a_parameter_redefined_with_another_annotation():
    param = ir.VReg(0, bits=32)
    func = ir.IRFunction(
        name="f",
        params=[param, ir.VReg(0, bits=64)],
        instrs=[ir.IRRet(param)],
        next_vreg=1,
    )
    first = verifier.verify_function(func)[0]
    assert first.index == -1
    assert first.message.startswith("register %v0 redefined with annotation")


# ---------------------------------------------------------------------------
# IntType.wrap: the mask table against the arithmetic definition
# ---------------------------------------------------------------------------


def _wrap_by_arithmetic(t: ct.IntType, value: int) -> int:
    bits = 8 * t.sizeof()
    value &= (1 << bits) - 1
    if not t.unsigned and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


@pytest.mark.parametrize("kind", sorted(ct._INT_SIZES))
@pytest.mark.parametrize("unsigned", [False, True])
def test_int_wrap_matches_the_arithmetic_definition(kind, unsigned):
    t = ct.IntType(kind, unsigned)
    lo, hi = t.min_value(), t.max_value()
    for value in (lo - 1, lo, hi, hi + 1, 1 << 64, -(1 << 64), 0):
        assert t.wrap(value) == _wrap_by_arithmetic(t, value), (t, value)
    assert t.wrap(lo) == lo and t.wrap(hi) == hi
    assert t.wrap(hi + 1) == lo and t.wrap(lo - 1) == hi


# ---------------------------------------------------------------------------
# Live ranges: the loop extension equals the per-span fixpoint
# ---------------------------------------------------------------------------


def _extend_by_sweeps(start, end, loop_spans):
    """The original formulation: sweep the spans until no range moves."""
    changed = True
    while changed:
        changed = False
        for span_start, span_end in loop_spans:
            if start <= span_end and end >= span_start and end < span_end:
                end = span_end
                changed = True
    return end


def test_live_range_loop_extension_matches_the_sweep_fixpoint():
    from repro.compiler.regalloc import compute_live_ranges
    from repro.testing.generator import generate_case

    checked = 0
    for seed in range(40):
        case = generate_case(seed)
        func = lower_for_backend(case.program, case.name, "O3", checker=case.checker).ir_func
        labels = {i.name: n for n, i in enumerate(func.instrs) if isinstance(i, ir.IRLabel)}
        spans = [
            (labels[target], index)
            for index, instr in enumerate(func.instrs)
            for target in (
                [instr.target] if isinstance(instr, ir.IRJump)
                else [instr.true_target, instr.false_target]
                if isinstance(instr, ir.IRBranch) else []
            )
            if labels[target] < index
        ]
        last_use = {}
        for index, instr in enumerate(func.instrs):
            for reg in instr.defs() + instr.uses():
                last_use[reg] = index
        for live in compute_live_ranges(func):
            end = last_use.get(live.reg, 0)
            assert live.end == _extend_by_sweeps(live.start, end, spans), live
            checked += live.end != end
    assert checked, "no range crossed a loop; the corpus no longer covers this"
