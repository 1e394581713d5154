"""Forward dataflow over the typechecked Mini-C AST.

A single forward pass per function computes, at every program point:

* **definite assignment** — which locals have certainly been written;
* **interval/constant values** — a bounds-plus-nonzero abstraction of every
  integer scalar local, precise enough to prove the generator's guard
  idioms safe (``(expr & mask) + k`` divisors, ``expr & mask`` shift
  counts) while still flagging a literal-zero divisor as a *definite*
  trap;
* **reachability** — statements after a ``return``/``break``/``continue``
  or under a constant-false condition;
* **must-execute** — whether the current point runs on *every* call (no
  enclosing conditional or loop), which is what lets the linter report a
  definite division-by-zero as a trap on every call.

The analysis is deliberately unsound-free in one direction only: a
``definite`` finding (interval exactly ``[0, 0]``) is a proof under the
dialect's wrapped semantics, whereas the *absence* of findings proves
nothing.  Interval arithmetic degrades to TOP whenever a result could
wrap at its C type, so bounds never lie.

Structured Mini-C has no ``goto``, so the walk follows the AST directly;
loop bodies are analysed once with every variable assigned (or
address-taken) in the body widened to TOP, which keeps single-pass
analysis sound across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct

#: Finding kinds produced by the analysis.
KINDS = (
    "div_by_zero",
    "possible_div_by_zero",
    "shift_width",
    "uninitialized",
    "unreachable",
)


@dataclass(frozen=True)
class Interval:
    """Bounds (``None`` = unbounded) plus a wrap-safe nonzero flag."""

    lo: Optional[int] = None
    hi: Optional[int] = None
    nonzero: bool = False

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value, value != 0)

    @property
    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def may_be_zero(self) -> bool:
        if self.nonzero:
            return False
        if self.lo is not None and self.lo > 0:
            return False
        if self.hi is not None and self.hi < 0:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi, self.nonzero and other.nonzero)


TOP = Interval()
ZERO = Interval.const(0)


def clamp(interval: Interval, ctype: Optional[ct.CType]) -> Interval:
    """Degrade an interval that might wrap at ``ctype`` to TOP.

    Bounds survive only when the whole interval fits the type's
    representable range; the ``nonzero`` flag survives unconditionally for
    bounded-fit intervals and is dropped otherwise (wrapping can reach 0).
    """
    if not isinstance(ctype, ct.IntType):
        return TOP
    if interval.lo is None or interval.hi is None:
        # Unbounded: keep only a nonzero flag that was established
        # wrap-safely by the producer (e.g. ``x | c`` with c wrapped != 0).
        return Interval(None, None, interval.nonzero)
    if ctype.min_value() <= interval.lo and interval.hi <= ctype.max_value():
        return interval
    return TOP


@dataclass
class State:
    """The abstract state at one program point."""

    values: Dict[str, Interval] = field(default_factory=dict)
    assigned: Set[str] = field(default_factory=set)
    declared: Set[str] = field(default_factory=set)
    reachable: bool = True
    must: bool = True  # this point executes on every call

    def copy(self) -> "State":
        return State(
            dict(self.values),
            set(self.assigned),
            set(self.declared),
            self.reachable,
            self.must,
        )

    def merge(self, other: "State") -> "State":
        """Join two states at a control-flow merge point."""
        if not self.reachable:
            return other.copy()
        if not other.reachable:
            return self.copy()
        values: Dict[str, Interval] = {}
        for name in self.values.keys() & other.values.keys():
            values[name] = self.values[name].join(other.values[name])
        return State(
            values,
            self.assigned & other.assigned,
            self.declared | other.declared,
            True,
            self.must and other.must,
        )


#: ``on_finding(kind, message, node, definite, must_execute)``
FindingSink = Callable[[str, str, ast.Node, bool, bool], None]


def analyze_function(
    func: ast.FunctionDef,
    sink: FindingSink,
    globals_declared: Optional[Set[str]] = None,
) -> None:
    """Run the forward analysis over ``func``, reporting through ``sink``."""
    _Analyzer(func, sink, globals_declared or set()).run()


def assigned_names(node: ast.Node) -> Set[str]:
    """Names assigned, incremented or address-taken anywhere under ``node``.

    Used to widen loop bodies: any of these may change between iterations.
    """
    names: Set[str] = set()
    _collect_assigned(node, names)
    return names


def _collect_assigned(node, names: Set[str]) -> None:
    if isinstance(node, ast.Assignment):
        if isinstance(node.target, ast.Identifier):
            names.add(node.target.name)
        _collect_assigned(node.target, names)
        _collect_assigned(node.value, names)
    elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)):
        if node.op in ("++", "--", "&") and isinstance(node.operand, ast.Identifier):
            names.add(node.operand.name)
        _collect_assigned(node.operand, names)
    elif isinstance(node, ast.Declaration):
        names.add(node.name)
        if node.init is not None:
            _collect_assigned(node.init, names)
    elif isinstance(node, ast.Block):
        for stmt in node.stmts:
            _collect_assigned(stmt, names)
    elif isinstance(node, ast.ExprStmt):
        _collect_assigned(node.expr, names)
    elif isinstance(node, ast.If):
        _collect_assigned(node.cond, names)
        _collect_assigned(node.then, names)
        if node.otherwise is not None:
            _collect_assigned(node.otherwise, names)
    elif isinstance(node, (ast.While, ast.DoWhile)):
        _collect_assigned(node.cond, names)
        _collect_assigned(node.body, names)
    elif isinstance(node, ast.For):
        for part in (node.init, node.cond, node.step, node.body):
            if part is not None:
                _collect_assigned(part, names)
    elif isinstance(node, ast.Return):
        if node.value is not None:
            _collect_assigned(node.value, names)
    elif isinstance(node, ast.BinaryOp):
        _collect_assigned(node.left, names)
        _collect_assigned(node.right, names)
    elif isinstance(node, ast.Conditional):
        _collect_assigned(node.cond, names)
        _collect_assigned(node.then, names)
        _collect_assigned(node.otherwise, names)
    elif isinstance(node, ast.Call):
        _collect_assigned(node.func, names)
        for arg in node.args:
            _collect_assigned(arg, names)
    elif isinstance(node, ast.Index):
        _collect_assigned(node.base, names)
        _collect_assigned(node.index, names)
    elif isinstance(node, ast.Member):
        _collect_assigned(node.base, names)
    elif isinstance(node, ast.Cast):
        _collect_assigned(node.operand, names)
    elif isinstance(node, ast.InitializerList):
        for item in node.items:
            _collect_assigned(item, names)


def _int_ctype(expr: ast.Expr) -> Optional[ct.IntType]:
    t = getattr(expr, "ctype", None)
    if isinstance(t, ct.NamedType):
        return None
    if isinstance(t, ct.IntType):
        return t
    return None


def _is_integer_division(expr: ast.BinaryOp) -> bool:
    """True for ``/`` and ``%`` performed in an integer type (float division
    never traps)."""
    t = getattr(expr, "ctype", None)
    if t is not None:
        return t.is_integer()
    left = getattr(expr.left, "ctype", None)
    right = getattr(expr.right, "ctype", None)
    if left is not None and left.is_float():
        return False
    if right is not None and right.is_float():
        return False
    return True


class _Analyzer:
    def __init__(
        self, func: ast.FunctionDef, sink: FindingSink, globals_declared: Set[str]
    ) -> None:
        self.func = func
        self.sink = sink
        self.globals_declared = globals_declared
        # Locals whose address escapes: their value is permanently unknown.
        self.escaped: Set[str] = set()

    # -- reporting ----------------------------------------------------------

    def report(
        self,
        kind: str,
        message: str,
        node: ast.Node,
        state: State,
        definite: bool = False,
    ) -> None:
        self.sink(kind, message, node, definite, state.must)

    # -- entry --------------------------------------------------------------

    def run(self) -> None:
        state = State()
        for param in self.func.params:
            state.declared.add(param.name)
            state.assigned.add(param.name)
            state.values[param.name] = TOP
        if self.func.body is not None:
            self.analyze_block(self.func.body, state)

    # -- statements ---------------------------------------------------------

    def analyze_block(self, block: ast.Block, state: State) -> State:
        shadowed: Dict[str, Tuple[Optional[Interval], bool, bool]] = {}
        reported_dead = False
        for stmt in block.stmts:
            if not state.reachable:
                if not reported_dead and not isinstance(stmt, ast.EmptyStmt):
                    self.report(
                        "unreachable",
                        "statement is unreachable (follows a return/break/continue "
                        "or a constant-false path)",
                        stmt,
                        state,
                    )
                    reported_dead = True
                continue
            reported_dead = False
            if isinstance(stmt, ast.Declaration) and stmt.name not in shadowed:
                shadowed[stmt.name] = (
                    state.values.get(stmt.name),
                    stmt.name in state.assigned,
                    stmt.name in state.declared,
                )
            state = self.analyze_stmt(stmt, state)
        for name, (value, was_assigned, was_declared) in shadowed.items():
            if value is None:
                state.values.pop(name, None)
            else:
                state.values[name] = value
            (state.assigned.add if was_assigned else state.assigned.discard)(name)
            (state.declared.add if was_declared else state.declared.discard)(name)
        return state

    def analyze_stmt(self, stmt: ast.Stmt, state: State) -> State:
        if isinstance(stmt, ast.Block):
            return self.analyze_block(stmt, state)
        if isinstance(stmt, ast.Declaration):
            return self.analyze_declaration(stmt, state)
        if isinstance(stmt, ast.ExprStmt):
            _, state = self.eval(stmt.expr, state)
            return state
        if isinstance(stmt, ast.If):
            return self.analyze_if(stmt, state)
        if isinstance(stmt, ast.While):
            return self.analyze_loop(
                stmt, state, cond=stmt.cond, body=stmt.body, at_least_once=False
            )
        if isinstance(stmt, ast.DoWhile):
            return self.analyze_loop(
                stmt, state, cond=stmt.cond, body=stmt.body, at_least_once=True
            )
        if isinstance(stmt, ast.For):
            return self.analyze_for(stmt, state)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _, state = self.eval(stmt.value, state)
            state.reachable = False
            return state
        if isinstance(stmt, (ast.Break, ast.Continue)):
            state.reachable = False
            return state
        return state  # EmptyStmt and anything future

    def analyze_declaration(self, decl: ast.Declaration, state: State) -> State:
        state.declared.add(decl.name)
        decl_type = decl.type
        if isinstance(decl.init, ast.Expr):
            value, state = self.eval(decl.init, state)
            state.assigned.add(decl.name)
            state.values[decl.name] = clamp(value, decl_type)
        elif decl.init is not None:  # initializer list
            for item in decl.init.items:
                if isinstance(item, ast.Expr):
                    _, state = self.eval(item, state)
            state.assigned.add(decl.name)
            state.values[decl.name] = TOP
        else:
            # Aggregates have no scalar "read before write" notion here;
            # only scalar locals participate in definite assignment.
            if isinstance(decl_type, (ct.ArrayType, ct.StructType)):
                state.assigned.add(decl.name)
            elif decl.storage == "static":
                state.assigned.add(decl.name)  # statics are zero-initialised
            else:
                state.assigned.discard(decl.name)
            state.values[decl.name] = TOP
        return state

    def analyze_if(self, stmt: ast.If, state: State) -> State:
        cond_value, state = self.eval(stmt.cond, state)
        then_state = state.copy()
        else_state = state.copy()
        self.refine(stmt.cond, then_state, else_state)
        if cond_value.is_zero:
            self.report(
                "unreachable",
                "branch condition is always 0: the then-branch never runs",
                stmt.then,
                state,
            )
            if stmt.otherwise is not None:
                return self.analyze_stmt(stmt.otherwise, else_state)
            return state
        if cond_value.nonzero and stmt.otherwise is not None:
            self.report(
                "unreachable",
                "branch condition is always nonzero: the else-branch never runs",
                stmt.otherwise,
                state,
            )
            return self.analyze_stmt(stmt.then, then_state)
        then_state.must = state.must and cond_value.nonzero
        else_state.must = False
        after_then = self.analyze_stmt(stmt.then, then_state)
        if stmt.otherwise is not None:
            after_else = self.analyze_stmt(stmt.otherwise, else_state)
        else:
            after_else = else_state
        merged = after_then.merge(after_else)
        merged.must = state.must
        return merged

    def analyze_loop(
        self,
        stmt: ast.Stmt,
        state: State,
        cond: ast.Expr,
        body: ast.Stmt,
        at_least_once: bool,
        step: Optional[ast.Expr] = None,
    ) -> State:
        if not at_least_once:
            cond_value, state = self.eval(cond, state)
            if cond_value.is_zero:
                self.report(
                    "unreachable",
                    "loop condition is always 0: the body never runs",
                    body,
                    state,
                )
                return state
        # Widen everything the body (or step) can change: one analysis pass
        # then covers any iteration.
        widened = assigned_names(body)
        if step is not None:
            widened |= assigned_names(step)
        widened |= assigned_names(cond)
        body_state = state.copy()
        for name in widened:
            if name in body_state.values:
                body_state.values[name] = TOP
        if not at_least_once:
            self.refine(cond, body_state, State())
            body_state.must = False
        after_body = self.analyze_stmt(body, body_state)
        if step is not None:
            if after_body.reachable:
                _, after_body = self.eval(step, after_body)
            else:
                # A continue still reaches the step; approximate with the
                # widened pre-body state.
                step_state = body_state.copy()
                _, _ = self.eval(step, step_state)
        if at_least_once:
            eval_state = after_body if after_body.reachable else body_state.copy()
            eval_state = eval_state.copy()
            _, eval_state = self.eval(cond, eval_state)
            exit_state = eval_state
            exit_state.must = state.must
            exit_state.reachable = True
            # Variables the body changes are unknown at exit, but a
            # do-while body runs at least once, so its definite
            # assignments survive (conservatively only when the body
            # cannot break before them: keep the intersection).
            for name in widened:
                if name in exit_state.values:
                    exit_state.values[name] = TOP
            exit_state.assigned &= after_body.assigned | state.assigned | widened
            return exit_state
        exit_state = state.copy()
        for name in widened:
            if name in exit_state.values:
                exit_state.values[name] = TOP
        self.refine_false(cond, exit_state)
        return exit_state

    def analyze_for(self, stmt: ast.For, state: State) -> State:
        shadowed: Optional[Tuple[str, Optional[Interval], bool, bool]] = None
        if isinstance(stmt.init, ast.Declaration):
            shadowed = (
                stmt.init.name,
                state.values.get(stmt.init.name),
                stmt.init.name in state.assigned,
                stmt.init.name in state.declared,
            )
            state = self.analyze_declaration(stmt.init, state)
        elif isinstance(stmt.init, ast.ExprStmt):
            _, state = self.eval(stmt.init.expr, state)
        elif isinstance(stmt.init, ast.Expr):
            _, state = self.eval(stmt.init, state)
        cond = stmt.cond if stmt.cond is not None else ast.IntLiteral(1)
        state = self.analyze_loop(
            stmt, state, cond=cond, body=stmt.body, at_least_once=False, step=stmt.step
        )
        if shadowed is not None:
            name, value, was_assigned, was_declared = shadowed
            if value is None:
                state.values.pop(name, None)
            else:
                state.values[name] = value
            (state.assigned.add if was_assigned else state.assigned.discard)(name)
            (state.declared.add if was_declared else state.declared.discard)(name)
        return state

    # -- condition refinement ------------------------------------------------

    def refine(self, cond: ast.Expr, true_state: State, false_state: State) -> None:
        """Sharpen variable values under ``cond`` true / ``cond`` false."""
        if isinstance(cond, ast.Identifier):
            self._refine_var(cond.name, true_state, nonzero=True)
            self._refine_var(cond.name, false_state, zero=True)
            return
        if isinstance(cond, ast.UnaryOp) and cond.op == "!":
            self.refine(cond.operand, false_state, true_state)
            return
        if isinstance(cond, ast.BinaryOp):
            if cond.op == "&&":
                self.refine(cond.left, true_state, State())
                self.refine(cond.right, true_state, State())
                return
            if cond.op in ("==", "!="):
                var, literal = self._var_vs_const(cond)
                if var is not None:
                    eq_state, ne_state = (
                        (true_state, false_state)
                        if cond.op == "=="
                        else (false_state, true_state)
                    )
                    if literal == 0:
                        self._refine_var(var, eq_state, zero=True)
                        self._refine_var(var, ne_state, nonzero=True)
                    else:
                        eq_state.values[var] = Interval.const(literal)
                return
            if cond.op in ("<", "<=", ">", ">="):
                self._refine_relational(cond, true_state, false_state)

    def refine_false(self, cond: ast.Expr, state: State) -> None:
        dummy = State()
        self.refine(cond, dummy, state)

    def _var_vs_const(self, cond: ast.BinaryOp):
        left, right = cond.left, cond.right
        if isinstance(left, ast.Identifier) and isinstance(right, ast.IntLiteral):
            return left.name, right.value
        if isinstance(right, ast.Identifier) and isinstance(left, ast.IntLiteral):
            return right.name, left.value
        return None, None

    def _refine_relational(
        self, cond: ast.BinaryOp, true_state: State, false_state: State
    ) -> None:
        # Normalise to ``name <op> literal``.
        op = cond.op
        if isinstance(cond.left, ast.Identifier) and isinstance(
            cond.right, ast.IntLiteral
        ):
            name, literal = cond.left.name, cond.right.value
        elif isinstance(cond.right, ast.Identifier) and isinstance(
            cond.left, ast.IntLiteral
        ):
            name, literal = cond.right.name, cond.left.value
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        else:
            return
        bounds = {
            "<": ((None, literal - 1), (literal, None)),
            "<=": ((None, literal), (literal + 1, None)),
            ">": ((literal + 1, None), (None, literal)),
            ">=": ((literal, None), (None, literal - 1)),
        }
        (true_lo, true_hi), (false_lo, false_hi) = bounds[op]
        self._refine_bounds(name, true_state, true_lo, true_hi)
        self._refine_bounds(name, false_state, false_lo, false_hi)

    def _refine_bounds(
        self, name: str, state: State, lo: Optional[int], hi: Optional[int]
    ) -> None:
        if name in self.escaped or name not in state.values:
            return
        current = state.values[name]
        new_lo = lo if current.lo is None else (
            current.lo if lo is None else max(current.lo, lo)
        )
        new_hi = hi if current.hi is None else (
            current.hi if hi is None else min(current.hi, hi)
        )
        nonzero = current.nonzero
        if new_lo is not None and new_hi is not None and new_lo > new_hi:
            return  # contradictory path; keep the old value
        refined = Interval(new_lo, new_hi, nonzero)
        if not refined.may_be_zero():
            refined = replace(refined, nonzero=True)
        state.values[name] = refined

    def _refine_var(
        self, name: str, state: State, nonzero: bool = False, zero: bool = False
    ) -> None:
        if name in self.escaped or name not in state.values:
            return
        if zero:
            state.values[name] = ZERO
        elif nonzero:
            current = state.values[name]
            state.values[name] = replace(current, nonzero=True)

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: ast.Expr, state: State) -> Tuple[Interval, State]:
        """Abstractly evaluate ``expr``, applying its side effects to a copy
        of ``state`` (which is returned)."""
        if isinstance(expr, (ast.IntLiteral, ast.CharLiteral)):
            return Interval.const(expr.value), state
        if isinstance(expr, ast.FloatLiteral):
            return TOP, state
        if isinstance(expr, ast.StringLiteral):
            return Interval(None, None, True), state  # a non-null address
        if isinstance(expr, ast.Identifier):
            return self._eval_identifier(expr, state), state
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, state)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, state)
        if isinstance(expr, ast.PostfixOp):
            return self._eval_incdec(expr.operand, expr.op, state, postfix=True)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, state)
        if isinstance(expr, ast.Conditional):
            return self._eval_conditional(expr, state)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Index):
            _, state = self.eval(expr.base, state)
            _, state = self.eval(expr.index, state)
            return TOP, state
        if isinstance(expr, ast.Member):
            _, state = self.eval(expr.base, state)
            return TOP, state
        if isinstance(expr, ast.Cast):
            value, state = self.eval(expr.operand, state)
            return clamp(value, expr.target_type), state
        if isinstance(expr, ast.SizeOf):
            if expr.target_type is not None:
                try:
                    return Interval.const(expr.target_type.sizeof()), state
                except Exception:
                    return TOP, state
            return TOP, state
        return TOP, state

    def _eval_identifier(self, expr: ast.Identifier, state: State) -> Interval:
        name = expr.name
        if name in state.declared:
            if name not in state.assigned and name not in self.escaped:
                self.report(
                    "uninitialized",
                    f"local {name!r} may be read before it is assigned",
                    expr,
                    state,
                )
                state.assigned.add(name)  # report each variable once
            if name in self.escaped:
                return TOP
            return state.values.get(name, TOP)
        return TOP  # global or function name: unknown

    def _eval_binary(self, expr: ast.BinaryOp, state: State) -> Tuple[Interval, State]:
        op = expr.op
        if op in ("&&", "||"):
            left, state = self.eval(expr.left, state)
            # The right side evaluates conditionally.
            right_state = state.copy()
            right_state.must = False
            if op == "&&":
                self.refine(expr.left, right_state, State())
            else:
                self.refine_false(expr.left, right_state)
            _, right_state = self.eval(expr.right, right_state)
            merged = state.merge(right_state)
            merged.must = state.must
            if op == "||" and left.nonzero:
                return Interval.const(1), merged
            return Interval(0, 1), merged
        left, state = self.eval(expr.left, state)
        right, state = self.eval(expr.right, state)
        if op in ("/", "%") and _is_integer_division(expr):
            self._check_division(expr, right, state)
        elif op in ("<<", ">>"):
            self._check_shift(expr, right, state)
        result = self._binop_interval(op, left, right, getattr(expr, "ctype", None))
        return result, state

    def _eval_unary(self, expr: ast.UnaryOp, state: State) -> Tuple[Interval, State]:
        op = expr.op
        if op in ("++", "--"):
            return self._eval_incdec(expr.operand, op, state, postfix=False)
        if op == "&":
            if isinstance(expr.operand, ast.Identifier):
                name = expr.operand.name
                self.escaped.add(name)
                state.assigned.add(name)
                state.values[name] = TOP
            else:
                _, state = self.eval(expr.operand, state)
            return Interval(None, None, True), state  # a non-null address
        value, state = self.eval(expr.operand, state)
        if op == "-":
            lo = None if value.hi is None else -value.hi
            hi = None if value.lo is None else -value.lo
            return clamp(
                Interval(lo, hi, value.nonzero), getattr(expr, "ctype", None)
            ), state
        if op == "!":
            if value.nonzero:
                return Interval.const(0), state
            if value.is_zero:
                return Interval.const(1), state
            return Interval(0, 1), state
        if op == "+":
            return value, state
        return TOP, state  # ~, *, and anything else

    def _eval_incdec(
        self, operand: ast.Expr, op: str, state: State, postfix: bool
    ) -> Tuple[Interval, State]:
        value, state = self.eval(operand, state)
        updated = self._binop_interval(
            "+" if op == "++" else "-", value, Interval.const(1),
            getattr(operand, "ctype", None),
        )
        if isinstance(operand, ast.Identifier) and operand.name in state.declared:
            state.assigned.add(operand.name)
            if operand.name not in self.escaped:
                state.values[operand.name] = updated
        return (value if postfix else updated), state

    def _eval_assignment(
        self, expr: ast.Assignment, state: State
    ) -> Tuple[Interval, State]:
        target = expr.target
        if expr.op == "=":
            value, state = self.eval(expr.value, state)
            if not isinstance(target, ast.Identifier):
                _, state = self.eval(target, state)
            result = clamp(value, getattr(target, "ctype", None))
        else:
            current, state = self.eval(target, state)
            value, state = self.eval(expr.value, state)
            base_op = expr.op[:-1]  # "+=" -> "+"
            if base_op in ("/", "%") and _is_integer_division_types(target, expr.value):
                self._check_division(expr, value, state)
            elif base_op in ("<<", ">>"):
                self._check_shift(expr, value, state, target=target)
            result = self._binop_interval(
                base_op, current, value, getattr(target, "ctype", None)
            )
        if isinstance(target, ast.Identifier) and target.name in state.declared:
            state.assigned.add(target.name)
            if target.name not in self.escaped:
                state.values[target.name] = result
        return result, state

    def _eval_conditional(
        self, expr: ast.Conditional, state: State
    ) -> Tuple[Interval, State]:
        cond_value, state = self.eval(expr.cond, state)
        then_state = state.copy()
        else_state = state.copy()
        self.refine(expr.cond, then_state, else_state)
        then_state.must = state.must and cond_value.nonzero
        else_state.must = state.must and cond_value.is_zero
        then_value, then_state = self.eval(expr.then, then_state)
        else_value, else_state = self.eval(expr.otherwise, else_state)
        if cond_value.nonzero:
            then_state.must = state.must
            return then_value, then_state
        if cond_value.is_zero:
            else_state.must = state.must
            return else_value, else_state
        merged = then_state.merge(else_state)
        merged.must = state.must
        return then_value.join(else_value), merged

    def _eval_call(self, expr: ast.Call, state: State) -> Tuple[Interval, State]:
        for arg in expr.args:
            _, state = self.eval(arg, state)
        return TOP, state

    # -- interval arithmetic ---------------------------------------------------

    def _binop_interval(
        self,
        op: str,
        left: Interval,
        right: Interval,
        result_type: Optional[ct.CType],
    ) -> Interval:
        """Transfer function for a binary operator, clamped at the result's
        C type so wrapping can never produce bounds that lie."""
        if op == "+":
            lo = None if left.lo is None or right.lo is None else left.lo + right.lo
            hi = None if left.hi is None or right.hi is None else left.hi + right.hi
            result = Interval(lo, hi)
        elif op == "-":
            lo = None if left.lo is None or right.hi is None else left.lo - right.hi
            hi = None if left.hi is None or right.lo is None else left.hi - right.lo
            result = Interval(lo, hi)
        elif op == "*":
            if (
                left.lo is not None
                and left.lo == left.hi
                and right.lo is not None
                and right.lo == right.hi
            ):
                result = Interval.const(left.lo * right.lo)
            else:
                result = TOP
        elif op == "&":
            # ``x & c`` with c >= 0 lands in [0, c] in two's complement,
            # whatever the sign of x — the generator's divisor guard.
            const = None
            if right.lo is not None and right.lo == right.hi and right.lo >= 0:
                const = right.lo
            elif left.lo is not None and left.lo == left.hi and left.lo >= 0:
                const = left.lo
            if const is not None:
                result = Interval(0, const)
            elif (
                left.lo is not None
                and left.lo >= 0
                and right.lo is not None
                and right.lo >= 0
            ):
                hi = (
                    None
                    if left.hi is None or right.hi is None
                    else min(left.hi, right.hi)
                )
                result = Interval(0, hi)
            else:
                result = TOP
        elif op == "|":
            # Setting the bits of a nonzero constant keeps the value nonzero
            # at any width where the constant survives wrapping.
            nonzero = False
            for side in (left, right):
                if side.lo is not None and side.lo == side.hi:
                    wrapped = (
                        result_type.wrap(side.lo)
                        if isinstance(result_type, ct.IntType)
                        else side.lo
                    )
                    if wrapped != 0:
                        nonzero = True
            if (
                left.lo is not None
                and left.lo >= 0
                and right.lo is not None
                and right.lo >= 0
                and left.hi is not None
                and right.hi is not None
            ):
                # Nonnegative | nonnegative stays below the next power of two.
                bound = max(left.hi, right.hi)
                bits = max(bound.bit_length(), 1)
                result = Interval(0, (1 << bits) - 1, nonzero)
            else:
                result = Interval(None, None, nonzero)
        elif op == "%":
            if (
                right.lo is not None
                and right.lo > 0
                and right.hi is not None
                and left.lo is not None
                and left.lo >= 0
            ):
                result = Interval(0, right.hi - 1)
            else:
                result = TOP
        elif op in ("==", "!=", "<", "<=", ">", ">="):
            result = Interval(0, 1)
        else:
            result = TOP  # /, shifts, ^ and anything else
        return clamp(result, result_type)

    # -- checks ---------------------------------------------------------------

    def _check_division(
        self, expr: ast.Expr, divisor: Interval, state: State
    ) -> None:
        from repro.lang.printer import print_expr

        op = expr.op if isinstance(expr, (ast.BinaryOp, ast.Assignment)) else "/"
        if divisor.is_zero:
            self.report(
                "div_by_zero",
                f"integer division by zero: the divisor of {print_expr(expr)!r} "
                f"is always 0",
                expr,
                state,
                definite=True,
            )
        elif divisor.may_be_zero() and (
            divisor.lo is not None or divisor.hi is not None
        ):
            # Only *bounded* ranges that include zero are worth reporting:
            # a completely unknown divisor (plain parameter, call result)
            # would flag essentially every division in real code.
            self.report(
                "possible_div_by_zero",
                f"divisor of {print_expr(expr)!r} may be 0 "
                f"(op {op!r}, bounds [{divisor.lo}, {divisor.hi}])",
                expr,
                state,
            )

    def _check_shift(
        self,
        expr: ast.Expr,
        count: Interval,
        state: State,
        target: Optional[ast.Expr] = None,
    ) -> None:
        from repro.lang.printer import print_expr

        shifted = target if target is not None else getattr(expr, "left", None)
        t = _int_ctype(shifted) if shifted is not None else None
        promoted = ct.integer_promote(t) if t is not None else ct.INT
        width = 8 * promoted.sizeof() if isinstance(promoted, ct.IntType) else 32
        out_of_range = (count.lo is not None and count.lo >= width) or (
            count.hi is not None and count.hi < 0
        )
        if out_of_range:
            self.report(
                "shift_width",
                f"shift count of {print_expr(expr)!r} is outside [0, {width - 1}] "
                f"(bounds [{count.lo}, {count.hi}]): well-defined here only "
                f"because the dialect masks counts, undefined in C",
                expr,
                state,
            )


def _is_integer_division_types(target: ast.Expr, value: ast.Expr) -> bool:
    for side in (target, value):
        t = getattr(side, "ctype", None)
        if t is not None and t.is_float():
            return False
    return True
