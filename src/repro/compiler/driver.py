"""The ``compile_function`` entry point: Mini-C source → assembly.

This module plays the role GCC plays in the SLaDe paper: a deterministic
producer of (C, assembly) pairs for two ISAs (x86-64 AT&T and AArch64) at
two optimisation levels (-O0 and -O3).  The pipeline is

    parse → typecheck → [-O3: AST opts] → lower → [-O3: IR opts]
          → linear-scan regalloc → backend emission

Any front-end or lowering failure is reported as :class:`CompileError`, the
reproduction's equivalent of "GCC rejected the translation unit".
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.compiler import ir
from repro.compiler.lowering import Lowerer, LoweringError
from repro.compiler.opt import fold_constants_expr, optimize_function_ast, optimize_ir
from repro.compiler.regalloc import linear_scan
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, parse_program
from repro.lang.printer import print_function
from repro.lang.typecheck import TypeChecker

#: Accepted spellings for the two ISAs.
_ISA_ALIASES = {
    "x86": "x86", "x86-64": "x86", "x86_64": "x86", "amd64": "x86",
    "arm": "arm", "arm64": "arm", "aarch64": "arm",
}
#: Accepted spellings for the two optimisation levels.
_OPT_ALIASES = {
    "o0": "O0", "0": "O0", "-o0": "O0",
    "o3": "O3", "3": "O3", "-o3": "O3",
}

ISAS: Tuple[str, ...] = ("x86", "arm")
OPT_LEVELS: Tuple[str, ...] = ("O0", "O3")


class CompileError(Exception):
    """Raised when a program cannot be compiled (parse/type/lowering error)."""


@dataclass
class CompiledFunction:
    """One (C, assembly) pair: a function compiled for one ISA/opt level."""

    name: str
    isa: str
    opt_level: str
    assembly: str
    source: str
    #: The IR the assembly was emitted from.
    ir_func: Optional[ir.IRFunction] = field(default=None, repr=False, compare=False)

    @property
    def ir_text(self) -> str:
        """The three-address IR, for debugging (rendered on access)."""
        return "" if self.ir_func is None else str(self.ir_func)

    def __str__(self) -> str:
        return self.assembly


def _normalize_isa(isa: str) -> str:
    key = str(isa).strip().lower()
    if key not in _ISA_ALIASES:
        raise CompileError(
            f"unknown ISA {isa!r}; expected one of {sorted(set(_ISA_ALIASES))}"
        )
    return _ISA_ALIASES[key]


def _normalize_opt(opt_level: Union[str, int]) -> str:
    key = str(opt_level).strip().lower()
    if key not in _OPT_ALIASES:
        raise CompileError(
            f"unknown optimisation level {opt_level!r}; expected O0 or O3"
        )
    return _OPT_ALIASES[key]


def _backend(isa: str):
    if isa == "x86":
        from repro.compiler.x86 import X86Backend

        return X86Backend()
    from repro.compiler.arm import ArmBackend

    return ArmBackend()


def _parse(source: Union[str, ast.Program]) -> ast.Program:
    if isinstance(source, ast.Program):
        return source
    try:
        return parse_program(source)
    except (ParseError, LexError) as exc:
        raise CompileError(f"parse error: {exc}") from exc


def _typecheck(program: ast.Program) -> None:
    result = TypeChecker(program).check()
    if result.errors:
        raise CompileError("type error: " + "; ".join(result.errors[:5]))


def _select_function(program: ast.Program, name: Optional[str]) -> ast.FunctionDef:
    functions = program.functions()
    if not functions:
        raise CompileError("program defines no function with a body")
    if name is None:
        if len(functions) == 1:
            return functions[0]
        raise CompileError(
            "program defines multiple functions; pass name= "
            f"(one of {[f.name for f in functions]})"
        )
    func = program.function(name)
    if func is None:
        raise CompileError(f"no function named {name!r} with a body")
    return func


# ---------------------------------------------------------------------------
# Global initialisers
# ---------------------------------------------------------------------------


def _const_value(node: ast.Node) -> Union[int, float]:
    """Evaluate a compile-time-constant initialiser expression.

    Raises :class:`CompileError` for anything that is not constant, matching
    how a real C compiler rejects non-constant static initialisers.
    """
    if isinstance(node, ast.Expr):
        folded = fold_constants_expr(copy.deepcopy(node))
        if isinstance(folded, (ast.IntLiteral, ast.CharLiteral)):
            return folded.value
        if isinstance(folded, ast.FloatLiteral):
            return folded.value
    raise CompileError("global initialiser is not a compile-time constant")


def _scalar_init_item(t: ct.CType, node: ast.Node) -> Tuple[int, int]:
    """(element_size, raw two's-complement value) for one scalar datum."""
    value = _const_value(node)
    if isinstance(t, ct.FloatType):
        if t.sizeof() == 4:
            raw = struct.unpack("<I", struct.pack("<f", float(value)))[0]
        else:
            raw = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        return t.sizeof(), raw
    size = t.sizeof()
    return size, int(value) & ((1 << (8 * size)) - 1)


def _global_init(t: ct.CType, node: ast.Node) -> ir.GlobalInit:
    """Render one global's initialiser into packed data items."""
    if isinstance(t, ct.ArrayType):
        elem = t.element
        if isinstance(node, ast.StringLiteral) and elem.sizeof() == 1:
            data = node.value.encode("latin-1", errors="replace") + b"\0"
            items = [(1, b) for b in data]
            return ir.GlobalInit(max(t.sizeof(), len(data)), items)
        if isinstance(node, ast.InitializerList):
            items = [_scalar_init_item(elem, item) for item in node.items]
            return ir.GlobalInit(t.sizeof(), items)
        raise CompileError("unsupported array initialiser for a global")
    if isinstance(t, (ct.StructType,)):
        raise CompileError("struct global initialisers are not supported")
    if isinstance(node, ast.InitializerList):
        node = node.items[0] if node.items else ast.IntLiteral(0)
    return ir.GlobalInit(max(1, t.sizeof()), [_scalar_init_item(t, node)])


def _collect_global_inits(
    program: ast.Program, lowerer: Lowerer
) -> Dict[str, ir.GlobalInit]:
    """Constant initialiser data for every initialised global declaration."""
    decls: List[ast.Declaration] = []
    for decl in program.decls:
        if isinstance(decl, ast.Declaration):
            decls.append(decl)
        elif isinstance(decl, ast.Block):
            decls.extend(d for d in decl.stmts if isinstance(d, ast.Declaration))
    inits: Dict[str, ir.GlobalInit] = {}
    for decl in decls:
        if decl.init is None:
            continue
        try:
            t = lowerer.resolve(decl.type)
        except LoweringError as exc:
            raise CompileError(str(exc)) from exc
        init = _global_init(t, decl.init)
        # All-zero data stays in .comm/.bss, exactly as GCC leaves it.
        if any(raw != 0 for _, raw in init.items):
            inits[decl.name] = init
    return inits


@dataclass
class LoweredFunction:
    """The ISA-independent front half of one compilation.

    Produced by :func:`lower_for_backend`: the checked program has been
    AST-optimised (at -O3), lowered to IR and IR-optimised (at -O3), and the
    global layout data is collected.  Emitting assembly from it
    (:func:`emit_from_lowered`) only runs register allocation and the
    backend, so callers that need several ISAs — or that also execute the
    IR directly, like the differential oracle's ``ir-O3`` leg — share one
    front-half run instead of repeating parse/typecheck/lower per target.
    """

    name: str
    opt_level: str
    ir_func: ir.IRFunction
    strings: Dict[str, str]
    global_sizes: Dict[str, int]
    global_inits: Dict[str, ir.GlobalInit]
    source: str


def lower_for_backend(
    program: ast.Program,
    name: Optional[str] = None,
    opt_level: Union[str, int] = "O0",
    checker: Optional[TypeChecker] = None,
    verify_ir: bool = False,
    ir_transform=None,
) -> LoweredFunction:
    """Run the front half of :func:`compile_function` on a parsed program.

    ``checker`` optionally supplies an already-run :class:`TypeChecker` so
    repeated compilations of one program type-check once.

    ``verify_ir`` runs the :mod:`repro.analysis.verifier` invariant checker
    on the IR after lowering and again after *each* -O3 pass, raising
    :class:`repro.analysis.verifier.IRVerificationError` with a
    pass-attributed diagnostic on the first violation.  ``ir_transform``
    optionally mutates the final IR in place (the fuzzer's injected
    IR-level miscompiles); it runs after optimisation and, when
    ``verify_ir`` is set, is itself verified.
    """
    opt_level = _normalize_opt(opt_level)
    if checker is None:
        checker = TypeChecker(program)
        result = checker.check()
    else:
        result = getattr(checker, "last_result", None)
        if result is None:
            result = checker.check()
    if result.errors:
        raise CompileError("type error: " + "; ".join(result.errors[:5]))
    func = _select_function(program, name)
    c_source = print_function(func)

    compiled_ast = func
    if opt_level == "O3":
        compiled_ast = optimize_function_ast(func)

    lowerer = Lowerer(
        program, compiled_ast, promote_scalars=(opt_level == "O3"), checker=checker
    )
    try:
        ir_func, string_literals = lowerer.lower()
    except LoweringError as exc:
        raise CompileError(f"lowering error: {exc}") from exc
    after_pass = None
    if verify_ir:
        # Imported lazily: the analysis package depends on repro.compiler.ir
        # only, so there is no cycle, but the common no-verify path should
        # not pay the import.
        from repro.analysis.verifier import verify_function_or_raise

        verify_function_or_raise(ir_func, pass_name="lowering")

        def after_pass(label: str) -> None:
            verify_function_or_raise(ir_func, pass_name=label)

    if opt_level == "O3":
        optimize_ir(ir_func, after_pass=after_pass)
    if ir_transform is not None:
        ir_transform(ir_func)
        if verify_ir:
            label = getattr(ir_transform, "__name__", "transform")
            verify_function_or_raise(ir_func, pass_name=f"inject:{label}")

    global_sizes: Dict[str, int] = {}
    for global_name, global_type in lowerer.globals.items():
        try:
            global_sizes[global_name] = max(1, lowerer.resolve(global_type).sizeof())
        except LoweringError:
            continue
    global_inits = _collect_global_inits(program, lowerer)
    return LoweredFunction(
        name=ir_func.name,
        opt_level=opt_level,
        ir_func=ir_func,
        strings=string_literals,
        global_sizes=global_sizes,
        global_inits=global_inits,
        source=c_source,
    )


def _clone_for_backend(func: ir.IRFunction) -> ir.IRFunction:
    """A frame-private view of a lowered function.

    Register allocation adds spill slots and the backends assign frame
    offsets, but neither ever mutates an instruction (copy propagation only
    runs inside ``optimize_ir``, before the IR is shared).  Sharing the
    instruction list and copying just the slot table makes re-emission two
    orders of magnitude cheaper than a deep copy.
    """
    return ir.IRFunction(
        name=func.name,
        params=list(func.params),
        param_names=list(func.param_names),
        instrs=func.instrs,
        slots={
            name: ir.StackSlot(slot.name, slot.size, slot.offset)
            for name, slot in func.slots.items()
        },
        returns_float=func.returns_float,
        next_vreg=func.next_vreg,
        next_label=func.next_label,
    )


def emit_from_lowered(
    lowered: LoweredFunction, isa: str, copy_ir: bool = True
) -> CompiledFunction:
    """Emit assembly for one ISA from a :class:`LoweredFunction`.

    Register allocation and the backends mutate the frame layout of the IR
    they are handed (spill slots are added, offsets assigned), so by default
    they work on a slot-private clone; one-shot callers pass
    ``copy_ir=False`` to skip even that.
    """
    isa = _normalize_isa(isa)
    backend = _backend(isa)
    ir_func = _clone_for_backend(lowered.ir_func) if copy_ir else lowered.ir_func
    allocation = linear_scan(
        ir_func,
        backend.int_registers(lowered.opt_level),
        backend.float_registers(lowered.opt_level),
    )
    try:
        assembly = backend.emit_function(
            ir_func,
            allocation,
            lowered.strings,
            lowered.global_sizes,
            lowered.global_inits,
        )
    except NotImplementedError as exc:
        raise CompileError(f"{isa} backend error: {exc}") from exc
    return CompiledFunction(
        name=ir_func.name,
        isa=isa,
        opt_level=lowered.opt_level,
        assembly=assembly,
        source=lowered.source,
        ir_func=ir_func,
    )


def compile_function(
    source: Union[str, ast.Program],
    name: Optional[str] = None,
    isa: str = "x86",
    opt_level: Union[str, int] = "O0",
    checker: Optional[TypeChecker] = None,
    verify_ir: bool = False,
) -> CompiledFunction:
    """Compile one function of a Mini-C program to assembly.

    ``source`` is Mini-C source text (or an already-parsed
    :class:`~repro.lang.ast_nodes.Program`); ``name`` selects the function
    (optional when the program defines exactly one).  ``isa`` is ``"x86"``
    or ``"arm"``; ``opt_level`` is ``"O0"`` or ``"O3"``.  ``checker``
    optionally shares an already-run type checker for the program.
    ``verify_ir`` runs the IR invariant verifier after lowering and each
    -O3 pass (see :func:`lower_for_backend`).
    """
    isa = _normalize_isa(isa)
    program = _parse(source)
    lowered = lower_for_backend(
        program, name=name, opt_level=opt_level, checker=checker, verify_ir=verify_ir
    )
    return emit_from_lowered(lowered, isa, copy_ir=False)


def compile_program(
    source: Union[str, ast.Program],
    isas: Tuple[str, ...] = ISAS,
    opt_levels: Tuple[str, ...] = OPT_LEVELS,
) -> Dict[str, Dict[Tuple[str, str], CompiledFunction]]:
    """Compile every function of a program for ``isas`` × ``opt_levels``.

    Returns ``{function_name: {(isa, opt_level): CompiledFunction}}`` — one
    call yields the full pair grid the training/eval set is built from.
    """
    program = _parse(source)
    _typecheck(program)
    # One checker serves the whole grid: the front half below only re-runs
    # AST opt + lowering per (function, opt level), never semantic analysis.
    checker = TypeChecker(program)
    checker.check()
    results: Dict[str, Dict[Tuple[str, str], CompiledFunction]] = {}
    for func in program.functions():
        grid: Dict[Tuple[str, str], CompiledFunction] = {}
        for opt_level in opt_levels:
            lowered = lower_for_backend(
                program, name=func.name, opt_level=opt_level, checker=checker
            )
            for isa in isas:
                grid[(_normalize_isa(isa), _normalize_opt(opt_level))] = (
                    emit_from_lowered(lowered, isa)
                )
        results[func.name] = grid
    return results


__all__: List[str] = [
    "CompileError",
    "CompiledFunction",
    "LoweredFunction",
    "compile_function",
    "compile_program",
    "emit_from_lowered",
    "lower_for_backend",
]
