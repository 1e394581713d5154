"""Optimisation pipeline for the Mini-C compiler (-O3).

Two families of transformations are applied:

* **AST-level** — constant folding and loop unrolling (factor 4 with a
  scalar remainder loop).  Unrolling is what gives the -O3 assembly the
  "obfuscated" structure the paper's motivating example shows: the loop body
  is replicated, the trip count is pre-computed and a remainder loop handles
  the tail.
* **IR-level** — local constant folding / copy propagation, strength
  reduction (multiplication and division by powers of two become shifts) and
  global dead-code elimination.

The -O0 pipeline applies none of these.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.compiler import ir
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct

UNROLL_FACTOR = 4


# ---------------------------------------------------------------------------
# AST-level: constant folding
# ---------------------------------------------------------------------------


def fold_constants_expr(expr: ast.Expr) -> ast.Expr:
    """Recursively fold constant sub-expressions of ``expr``."""
    if isinstance(expr, ast.BinaryOp):
        expr.left = fold_constants_expr(expr.left)
        expr.right = fold_constants_expr(expr.right)
        if isinstance(expr.left, ast.IntLiteral) and isinstance(
            expr.right, ast.IntLiteral
        ):
            bits, unsigned = _fold_width(expr)
            folded = _fold_int(
                expr.op, expr.left.value, expr.right.value, bits, unsigned
            )
            if folded is not None:
                return ast.IntLiteral(folded)
        if isinstance(expr.left, (ast.IntLiteral, ast.FloatLiteral)) and isinstance(
            expr.right, (ast.IntLiteral, ast.FloatLiteral)
        ):
            folded_f = _fold_float(
                expr.op, float(expr.left.value), float(expr.right.value)
            )
            if folded_f is not None and (
                isinstance(expr.left, ast.FloatLiteral) or isinstance(
                    expr.right, ast.FloatLiteral
                )
            ):
                return ast.FloatLiteral(folded_f)
        return expr
    if isinstance(expr, ast.UnaryOp):
        expr.operand = fold_constants_expr(expr.operand)
        if expr.op == "-" and isinstance(expr.operand, ast.IntLiteral):
            return ast.IntLiteral(-expr.operand.value)
        if expr.op == "-" and isinstance(expr.operand, ast.FloatLiteral):
            return ast.FloatLiteral(-expr.operand.value)
        if expr.op == "!" and isinstance(expr.operand, ast.IntLiteral):
            return ast.IntLiteral(0 if expr.operand.value else 1)
        if expr.op == "~" and isinstance(expr.operand, ast.IntLiteral):
            return ast.IntLiteral(~expr.operand.value)
        return expr
    for name, value in vars(expr).items():
        if isinstance(value, ast.Expr):
            setattr(expr, name, fold_constants_expr(value))
        elif isinstance(value, list):
            setattr(
                expr,
                name,
                [
                    fold_constants_expr(v) if isinstance(v, ast.Expr) else v
                    for v in value
                ],
            )
    return expr


def _literal_int_type(expr: ast.Expr) -> ct.IntType:
    """The type an integer literal takes (mirrors lowering's literal rule)."""
    if isinstance(expr.ctype, ct.IntType):
        return expr.ctype
    if isinstance(expr, ast.IntLiteral):
        return ct.literal_int_type(expr.value)
    return ct.INT


def _fold_width(expr: ast.BinaryOp) -> Tuple[int, bool]:
    """Width (in bits) and signedness an integer fold of ``expr`` wraps to.

    Shifts take the promoted left operand's type; everything else takes the
    usual arithmetic conversion of both operands — the same rules the
    interpreter applies, so folding cannot change observable behaviour.
    """
    left = ct.integer_promote(_literal_int_type(expr.left))
    if expr.op in ("<<", ">>"):
        result = left
    else:
        result = ct.usual_arithmetic_conversion(
            left, ct.integer_promote(_literal_int_type(expr.right))
        )
    if not isinstance(result, ct.IntType):
        return 64, False
    return 8 * result.sizeof(), result.unsigned


def _fold_int(
    op: str, left: int, right: int, bits: int = 32, unsigned: bool = False
) -> Optional[int]:
    """Fold an integer operation, wrapping to ``bits``-wide (un)signed ints.

    Delegates to :func:`repro.lang.ctypes.int_binop`, the same routine the
    interpreter uses, so folds agree with its wrapped semantics by
    construction: operands are converted into the type's domain, shift
    counts are masked by the type width (``& 31`` for 32-bit operands,
    ``& 63`` for 64-bit) and results are truncated to the expression's
    width (e.g. ``1 << 33`` folds to ``2`` as an ``int``, not
    ``8589934592``).
    """
    if op in ("==", "!=", "<", "<=", ">", ">="):
        table = {
            "==": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }
        return int(table[op])
    try:
        return ct.int_binop(op, left, right, bits, unsigned)
    except (ZeroDivisionError, OverflowError, ValueError):
        return None


def _fold_float(op: str, left: float, right: float) -> Optional[float]:
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/" and right != 0.0:
            return left / right
    except (OverflowError, ValueError):
        return None
    return None


def fold_constants_stmt(stmt: ast.Stmt) -> None:
    """Fold constants in every expression reachable from ``stmt``."""
    for name, value in vars(stmt).items():
        if isinstance(value, ast.Expr):
            setattr(stmt, name, fold_constants_expr(value))
        elif isinstance(value, ast.Stmt):
            fold_constants_stmt(value)
        elif isinstance(value, list):
            new_items = []
            for item in value:
                if isinstance(item, ast.Expr):
                    new_items.append(fold_constants_expr(item))
                elif isinstance(item, ast.Stmt):
                    fold_constants_stmt(item)
                    new_items.append(item)
                else:
                    new_items.append(item)
            setattr(stmt, name, new_items)


# ---------------------------------------------------------------------------
# AST-level: loop unrolling
# ---------------------------------------------------------------------------


def _assigned_names(node: ast.Node, found: Set[str]) -> None:
    if isinstance(node, ast.Assignment) and isinstance(node.target, ast.Identifier):
        found.add(node.target.name)
    if isinstance(node, (ast.UnaryOp, ast.PostfixOp)) and node.op in ("++", "--"):
        if isinstance(node.operand, ast.Identifier):
            found.add(node.operand.name)
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            _assigned_names(value, found)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    _assigned_names(item, found)


def _contains_jump(node: ast.Node) -> bool:
    if isinstance(node, (ast.Break, ast.Continue, ast.Return)):
        return True
    for value in vars(node).values():
        if isinstance(value, ast.Node) and _contains_jump(value):
            return True
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node) and _contains_jump(item):
                    return True
    return False


def _substitute_var(node: ast.Node, name: str, replacement: ast.Expr) -> ast.Node:
    """Return a deep copy of ``node`` with uses of ``name`` replaced."""
    node = ast.clone(node)

    def rewrite(n: ast.Node) -> ast.Node:
        if isinstance(n, ast.Identifier) and n.name == name:
            return ast.clone(replacement)
        for attr, value in vars(n).items():
            if isinstance(value, ast.Node):
                setattr(n, attr, rewrite(value))
            elif isinstance(value, list):
                setattr(
                    n,
                    attr,
                    [rewrite(v) if isinstance(v, ast.Node) else v for v in value],
                )
        return n

    return rewrite(node)


def _loop_induction(stmt: ast.For) -> Optional[str]:
    """Return the induction variable name if the loop matches the unrollable
    ``for (i = <start>; i < <limit>; i++)`` shape."""
    if isinstance(stmt.init, ast.Declaration):
        name = stmt.init.name
    elif isinstance(stmt.init, ast.ExprStmt) and isinstance(
        stmt.init.expr, ast.Assignment
    ):
        target = stmt.init.expr.target
        if not isinstance(target, ast.Identifier) or stmt.init.expr.op != "=":
            return None
        name = target.name
    else:
        return None

    if not isinstance(stmt.cond, ast.BinaryOp) or stmt.cond.op not in ("<", "<="):
        return None
    if not (isinstance(stmt.cond.left, ast.Identifier) and stmt.cond.left.name == name):
        return None

    step = stmt.step
    if isinstance(step, (ast.UnaryOp, ast.PostfixOp)) and step.op == "++":
        if isinstance(step.operand, ast.Identifier) and step.operand.name == name:
            pass
        else:
            return None
    elif (
        isinstance(step, ast.Assignment)
        and step.op == "+="
        and isinstance(step.target, ast.Identifier)
        and step.target.name == name
        and isinstance(step.value, ast.IntLiteral)
        and step.value.value == 1
    ):
        pass
    else:
        return None
    return name


def unroll_loops(stmt: ast.Stmt, factor: int = UNROLL_FACTOR) -> ast.Stmt:
    """Unroll eligible counted ``for`` loops inside ``stmt`` (recursively)."""
    if isinstance(stmt, ast.Block):
        stmt.stmts = [unroll_loops(s, factor) for s in stmt.stmts]
        return stmt
    if isinstance(stmt, ast.If):
        stmt.then = unroll_loops(stmt.then, factor)
        if stmt.otherwise is not None:
            stmt.otherwise = unroll_loops(stmt.otherwise, factor)
        return stmt
    if isinstance(stmt, (ast.While, ast.DoWhile)):
        stmt.body = unroll_loops(stmt.body, factor)
        return stmt
    if not isinstance(stmt, ast.For):
        return stmt

    stmt.body = unroll_loops(stmt.body, factor)
    name = _loop_induction(stmt)
    if name is None:
        return stmt
    if _contains_jump(stmt.body):
        return stmt
    assigned: Set[str] = set()
    _assigned_names(stmt.body, assigned)
    if name in assigned:
        return stmt
    limit = stmt.cond.right  # type: ignore[union-attr]
    if isinstance(limit, ast.Identifier) and limit.name in assigned:
        return stmt
    if not isinstance(limit, (ast.Identifier, ast.IntLiteral)):
        return stmt

    # Build:  for (<init>; i + (factor-1) < limit; i += factor) { body(i) ... body(i+3) }
    #         for (; i < limit; i++) body(i)
    index = ast.Identifier(name)
    main_cond = ast.BinaryOp(
        stmt.cond.op,  # type: ignore[union-attr]
        ast.BinaryOp("+", ast.clone(index), ast.IntLiteral(factor - 1)),
        ast.clone(limit),
    )
    main_step = ast.Assignment("+=", ast.clone(index), ast.IntLiteral(factor))
    bodies: List[ast.Stmt] = []
    for offset in range(factor):
        replacement: ast.Expr
        if offset == 0:
            replacement = ast.clone(index)
        else:
            replacement = ast.BinaryOp("+", ast.clone(index), ast.IntLiteral(offset))
        bodies.append(
            _substitute_var(stmt.body, name, replacement)  # type: ignore[arg-type]
        )
    # Hoist a declaration out of the init so the induction variable stays in
    # scope for the remainder loop.
    prelude: List[ast.Stmt] = []
    main_init = stmt.init
    if isinstance(stmt.init, ast.Declaration):
        prelude.append(stmt.init)
        main_init = None
    main_loop = ast.For(main_init, main_cond, main_step, ast.Block(bodies))
    remainder = ast.For(
        None,
        ast.clone(stmt.cond),
        ast.clone(stmt.step),
        ast.clone(stmt.body),
    )
    return ast.Block(prelude + [main_loop, remainder])


def optimize_function_ast(
    func: ast.FunctionDef, unroll: bool = True
) -> ast.FunctionDef:
    """Apply the AST-level -O3 transformations to a (deep copy of a) function."""
    func = ast.clone(func)
    if func.body is None:
        return func
    fold_constants_stmt(func.body)
    if unroll:
        func.body = unroll_loops(func.body)  # type: ignore[assignment]
    return func


# ---------------------------------------------------------------------------
# IR-level passes
# ---------------------------------------------------------------------------


#: Instructions after which a new basic block starts.
_TERMINATORS = frozenset({ir.IRJump, ir.IRBranch, ir.IRRet})


def _block_starts(instrs: List[ir.IRInstr]) -> Set[int]:
    """Indices that start a new basic block."""
    starts = {0}
    for index, instr in enumerate(instrs):
        cls = instr.__class__
        if cls is ir.IRLabel:
            starts.add(index)
        elif cls in _TERMINATORS:
            starts.add(index + 1)
    return starts


def local_fold_and_propagate(func: ir.IRFunction) -> bool:
    """Per-block constant folding, copy propagation and strength reduction.

    Returns True when the function was modified (the pipeline driver uses
    this to stop iterating once a round converges and to skip re-verifying
    an unchanged function).
    """
    changed = False
    instrs = func.instrs
    starts = _block_starts(instrs)
    constants: Dict[ir.VReg, Union[int, float]] = {}
    copies: Dict[ir.VReg, ir.VReg] = {}
    # src -> registers recorded as its copies (some may have moved on since),
    # so a redefinition of ``src`` finds its copies without scanning them all.
    copied_from: Dict[ir.VReg, List[ir.VReg]] = {}
    folders = _FOLDERS

    new_instrs: List[ir.IRInstr] = []
    append = new_instrs.append
    for index, instr in enumerate(instrs):
        if index in starts:
            constants.clear()
            copies.clear()
            copied_from.clear()
        cls = instr.__class__

        # Substitute known constants / copies into the operands.
        uses = instr.uses()
        if uses:
            mapping: Dict[ir.VReg, ir.Operand] = {}
            for used in uses:
                if used in constants and cls is not ir.IRBranch:
                    mapping[used] = constants[used]
                elif used in copies:
                    mapping[used] = copies[used]
            if mapping:
                instr.replace_uses(mapping)
                changed = True

        for defined in instr.defs():
            constants.pop(defined, None)
            copies.pop(defined, None)
            for key in copied_from.pop(defined, ()):
                source = copies.get(key)
                if source is not None and source == defined:
                    del copies[key]

        folder = folders.get(cls)
        if folder is not None:
            folded = folder(instr)
            if folded is not None:
                append(folded)
                if folded.__class__ is ir.IRConst:
                    constants[folded.dst] = folded.value
                changed = True
                continue
            if cls is ir.IRBinOp:
                changed = _strength_reduce(instr) or changed
        elif cls is ir.IRConst:
            constants[instr.dst] = instr.value
        elif cls is ir.IRMove:
            src = instr.src
            if isinstance(src, (int, float)):
                constants[instr.dst] = src
            elif isinstance(src, ir.VReg):
                copies[instr.dst] = src
                copied_from.setdefault(src, []).append(instr.dst)
        append(instr)
    func.instrs = new_instrs
    return changed


def _fold_ir_binop(instr: ir.IRBinOp) -> Optional[ir.IRInstr]:
    if isinstance(instr.left, (int, float)) and isinstance(instr.right, (int, float)):
        if instr.is_float:
            value = _fold_float(
                _IR_TO_C[instr.op], float(instr.left), float(instr.right)
            )
        else:
            # Fold at the instruction's annotated width so the constant
            # matches what the backend's 32-bit instruction would compute.
            value = _fold_int(
                _IR_TO_C[instr.op], int(instr.left), int(instr.right),
                instr.bits, instr.unsigned,
            )
        if value is not None:
            return ir.IRConst(instr.dst, value)
    # Algebraic identities.
    if instr.op == "add" and instr.right == 0:
        return ir.IRMove(instr.dst, instr.left)
    if instr.op == "sub" and instr.right == 0:
        return ir.IRMove(instr.dst, instr.left)
    if instr.op == "mul" and instr.right == 1:
        return ir.IRMove(instr.dst, instr.left)
    if instr.op == "mul" and instr.right == 0 and not instr.is_float:
        return ir.IRConst(instr.dst, 0)
    if instr.op == "shl" and instr.right == 0:
        return ir.IRMove(instr.dst, instr.left)
    return None


def _fold_ir_cmp(instr: ir.IRCmp) -> Optional[ir.IRConst]:
    if isinstance(instr.left, (int, float)) and isinstance(instr.right, (int, float)):
        left, right = instr.left, instr.right
        if not instr.is_float and isinstance(left, int) and isinstance(right, int):
            # Compare in the annotated width's domain (unsigned comparisons
            # of negatively-represented constants need the conversion).
            t = ct.int_type_for_bits(instr.bits, instr.unsigned)
            left, right = t.wrap(left), t.wrap(right)
        table = {
            "eq": left == right,
            "ne": left != right,
            "lt": left < right,
            "le": left <= right,
            "gt": left > right,
            "ge": left >= right,
        }
        return ir.IRConst(instr.dst, int(table[instr.op]))
    return None


def _fold_ir_cast(instr: ir.IRCast) -> Optional[ir.IRConst]:
    """Fold integer width casts of constants into their extended value."""
    if instr.kind in ir.WIDTH_CASTS and isinstance(instr.src, int):
        bits, unsigned = ir.WIDTH_CASTS[instr.kind]
        return ir.IRConst(
            instr.dst, ct.int_type_for_bits(bits, unsigned).wrap(instr.src)
        )
    return None


#: Constant folders by instruction class: each returns the instruction to
#: emit in place of its argument, or None to keep it.
_FOLDERS = {
    ir.IRBinOp: _fold_ir_binop,
    ir.IRCmp: _fold_ir_cmp,
    ir.IRCast: _fold_ir_cast,
}

_IR_TO_C = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "mod": "%",
    "shl": "<<",
    "shr": ">>",
    "and": "&",
    "or": "|",
    "xor": "^",
}


def _strength_reduce(instr: ir.IRBinOp) -> bool:
    """Rewrite multiplications/divisions by powers of two into shifts."""
    if instr.is_float:
        return False
    if (
        isinstance(instr.right, int)
        and instr.right > 1
        and (instr.right & (instr.right - 1)) == 0
    ):
        shift = instr.right.bit_length() - 1
        if instr.op == "mul":
            instr.op = "shl"
            instr.right = shift
            return True
        elif instr.op == "div" and instr.unsigned:
            instr.op = "shr"
            instr.right = shift
            return True
    return False


#: Pure instructions DCE may delete once nothing reads their result.
_REMOVABLE_INSTRS = frozenset({
    ir.IRConst, ir.IRMove, ir.IRBinOp, ir.IRCmp, ir.IRUnary, ir.IRCast,
    ir.IRFrameAddr, ir.IRGlobalAddr, ir.IRLoad,
})


def dead_code_elimination(func: ir.IRFunction) -> bool:
    """Remove pure instructions whose results (or labels) are never used.

    Worklist formulation of the obvious fixpoint: removing a dead
    instruction decrements the use counts of its operands, which may in
    turn make the instructions defining those operands dead.  The surviving
    instruction sequence is identical to iterating global remove-unused
    sweeps to fixpoint (labels only ever die in the first sweep, because
    DCE never removes the jumps that reference them).
    """
    instrs = func.instrs
    referenced: Set[str] = set()
    labels: List[int] = []
    all_uses: List[ir.VReg] = []
    # Per removable instruction that defines something: its defs and uses.
    # Only these can die, so only their definitions need indexing.
    pure: Dict[int, Tuple[List[ir.VReg], List[ir.VReg]]] = {}
    defs_of: Dict[ir.VReg, List[int]] = {}
    for index, instr in enumerate(instrs):
        cls = instr.__class__
        if cls is ir.IRLabel:
            labels.append(index)
            continue
        if cls is ir.IRJump:
            referenced.add(instr.target)  # type: ignore[attr-defined]
            continue
        if cls is ir.IRBranch:
            referenced.add(instr.true_target)  # type: ignore[attr-defined]
            referenced.add(instr.false_target)  # type: ignore[attr-defined]
        uses = instr.uses()
        all_uses += uses
        if cls in _REMOVABLE_INSTRS:
            defs = instr.defs()
            if defs:
                pure[index] = (defs, uses)
                for defined in defs:
                    defs_of.setdefault(defined, []).append(index)
    use_count = Counter(all_uses)

    def is_dead(index: int) -> bool:
        entry = pure.get(index)
        if entry is None:
            return False
        for defined in entry[0]:
            if use_count[defined]:
                return False
        return True

    dead = [False] * len(instrs)
    for index in labels:
        if instrs[index].name not in referenced:  # type: ignore[attr-defined]
            dead[index] = True
    work = [index for index in pure if is_dead(index)]
    while work:
        index = work.pop()
        if dead[index] or not is_dead(index):
            continue
        dead[index] = True
        for used in pure[index][1]:
            use_count[used] -= 1
            if use_count[used] == 0:
                for def_index in defs_of.get(used, ()):
                    if not dead[def_index] and is_dead(def_index):
                        work.append(def_index)
    if not any(dead):
        return False
    func.instrs = [instr for index, instr in enumerate(instrs) if not dead[index]]
    return True


def remove_redundant_jumps(func: ir.IRFunction) -> bool:
    """Drop jumps whose target is reached by falling through.

    A jump is redundant when its target label follows it with only other
    labels in between, so chains like ``jmp L1; L0:; L1:`` are cleaned up
    too, not just ``jmp L1; L1:``.
    """
    kept: List[ir.IRInstr] = []
    instrs = func.instrs
    for index, instr in enumerate(instrs):
        if instr.__class__ is ir.IRJump:
            scan = index + 1
            redundant = False
            while scan < len(instrs) and instrs[scan].__class__ is ir.IRLabel:
                if instrs[scan].name == instr.target:  # type: ignore[attr-defined]
                    redundant = True
                    break
                scan += 1
            if redundant:
                continue
        kept.append(instr)
    if len(kept) == len(func.instrs):
        return False
    func.instrs = kept
    return True


def optimize_ir(func: ir.IRFunction, after_pass=None) -> None:
    """Run the IR-level -O3 pipeline in place.

    ``after_pass``, when given, is called as ``after_pass(label)`` after each
    individual pass with a label like ``"local_fold_and_propagate[1]"`` — the
    IR verifier uses it to attribute an invariant violation to the exact pass
    that introduced it.

    Each pass reports whether it modified the function; a pass that changed
    nothing skips its ``after_pass`` callback (re-verifying an unchanged
    function cannot produce new diagnostics) and a fold+DCE round in which
    neither pass changed anything ends the iteration (the pipeline is at a
    fixpoint: the passes are deterministic, so a further round would be a
    no-op too).  The emitted IR is byte-identical to always running every
    round.
    """

    def _run(pass_fn, label: str) -> bool:
        changed = pass_fn(func)
        if changed and after_pass is not None:
            after_pass(label)
        return changed

    for round_index in range(3):
        changed = _run(
            local_fold_and_propagate, f"local_fold_and_propagate[{round_index}]"
        )
        changed = _run(
            dead_code_elimination, f"dead_code_elimination[{round_index}]"
        ) or changed
        if not changed:
            break
    _run(remove_redundant_jumps, "remove_redundant_jumps")
    # Jump removal can leave labels with no remaining references behind;
    # re-running DCE prunes them.
    _run(dead_code_elimination, "dead_code_elimination[final]")
