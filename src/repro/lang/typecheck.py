"""Semantic analysis for Mini-C.

The :class:`TypeChecker` resolves identifiers, assigns a
:class:`repro.lang.ctypes.CType` to every expression node and reports
semantic problems.  Two pieces of information produced here feed the rest of
the system:

* whether a hypothesis program "compiles" (no unresolved names or type
  errors) — the paper's *Compiles* feature, and
* the set of *missing declarations* (unknown typedefs, undeclared globals
  and undeclared functions) — a program with any is rejected as a
  ``type_error`` by the candidate certifier (:mod:`repro.eval.dataset`), the
  program generator's round-trip check and the test-case reducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct


class TypeCheckError(Exception):
    """Raised (in strict mode) when a program fails semantic analysis."""


#: Builtin library functions visible to every translation unit.
BUILTIN_FUNCTIONS: Dict[str, ct.FunctionType] = {
    "abs": ct.FunctionType(ct.INT, (ct.INT,)),
    "labs": ct.FunctionType(ct.LONG, (ct.LONG,)),
    "fabs": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "fabsf": ct.FunctionType(ct.FLOAT, (ct.FLOAT,)),
    "sqrt": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "sqrtf": ct.FunctionType(ct.FLOAT, (ct.FLOAT,)),
    "sin": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "cos": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "tan": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "exp": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "log": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "pow": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE, ct.DOUBLE)),
    "floor": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "ceil": ct.FunctionType(ct.DOUBLE, (ct.DOUBLE,)),
    "memcpy": ct.FunctionType(
        ct.PointerType(ct.VOID), (
            ct.PointerType(ct.VOID), ct.PointerType(ct.VOID), ct.ULONG
        )
    ),
    "memset": ct.FunctionType(
        ct.PointerType(ct.VOID), (ct.PointerType(ct.VOID), ct.INT, ct.ULONG)
    ),
    "memmove": ct.FunctionType(
        ct.PointerType(ct.VOID), (
            ct.PointerType(ct.VOID), ct.PointerType(ct.VOID), ct.ULONG
        )
    ),
    "strlen": ct.FunctionType(ct.ULONG, (ct.PointerType(ct.CHAR),)),
    "strcpy": ct.FunctionType(
        ct.PointerType(ct.CHAR), (ct.PointerType(ct.CHAR), ct.PointerType(ct.CHAR))
    ),
    "strncpy": ct.FunctionType(
        ct.PointerType(ct.CHAR), (
            ct.PointerType(ct.CHAR), ct.PointerType(ct.CHAR), ct.ULONG
        )
    ),
    "strcmp": ct.FunctionType(
        ct.INT, (ct.PointerType(ct.CHAR), ct.PointerType(ct.CHAR))
    ),
    "strchr": ct.FunctionType(
        ct.PointerType(ct.CHAR), (ct.PointerType(ct.CHAR), ct.INT)
    ),
    "strcat": ct.FunctionType(
        ct.PointerType(ct.CHAR), (ct.PointerType(ct.CHAR), ct.PointerType(ct.CHAR))
    ),
    "malloc": ct.FunctionType(ct.PointerType(ct.VOID), (ct.ULONG,)),
    "calloc": ct.FunctionType(ct.PointerType(ct.VOID), (ct.ULONG, ct.ULONG)),
    "free": ct.FunctionType(ct.VOID, (ct.PointerType(ct.VOID),)),
    "printf": ct.FunctionType(ct.INT, (ct.PointerType(ct.CHAR),), variadic=True),
    "putchar": ct.FunctionType(ct.INT, (ct.INT,)),
    "isdigit": ct.FunctionType(ct.INT, (ct.INT,)),
    "isalpha": ct.FunctionType(ct.INT, (ct.INT,)),
    "isspace": ct.FunctionType(ct.INT, (ct.INT,)),
    "toupper": ct.FunctionType(ct.INT, (ct.INT,)),
    "tolower": ct.FunctionType(ct.INT, (ct.INT,)),
    "rand": ct.FunctionType(ct.INT, ()),
}


@dataclass
class MissingDeclarations:
    """The declarations a partial program refers to but does not define."""

    typedefs: Set[str] = field(default_factory=set)
    variables: Dict[str, ct.CType] = field(default_factory=dict)
    functions: Dict[str, ct.FunctionType] = field(default_factory=dict)
    struct_tags: Set[str] = field(default_factory=set)

    def is_empty(self) -> bool:
        return not (
            self.typedefs or self.variables or self.functions or self.struct_tags
        )


@dataclass
class CheckResult:
    """Outcome of semantic analysis."""

    errors: List[str] = field(default_factory=list)
    missing: MissingDeclarations = field(default_factory=MissingDeclarations)

    @property
    def ok(self) -> bool:
        return not self.errors and self.missing.is_empty()


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.vars: Dict[str, ct.CType] = {}

    def lookup(self, name: str) -> Optional[ct.CType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def define(self, name: str, t: ct.CType) -> None:
        self.vars[name] = t


class TypeChecker:
    """Resolve names and types over a :class:`repro.lang.ast_nodes.Program`."""

    def __init__(self, program: ast.Program, strict: bool = False) -> None:
        self.program = program
        self.strict = strict
        self.result = CheckResult()
        self.typedefs: Dict[str, ct.CType] = dict(ct.BUILTIN_TYPEDEFS)
        self.structs: Dict[str, ct.StructType] = {}
        self.functions: Dict[str, ct.FunctionType] = dict(BUILTIN_FUNCTIONS)
        self.global_scope = _Scope()
        self.current_return: ct.CType = ct.VOID

    # -- public API ---------------------------------------------------------

    def check(self) -> CheckResult:
        """Run semantic analysis and return the result.

        The result is also remembered as ``self.last_result`` so consumers
        sharing one checker across pipeline stages (interpreter, lowering,
        the differential oracle) can re-read it without re-running the pass.
        """
        self._collect_top_level()
        for decl in self.program.decls:
            if isinstance(decl, ast.FunctionDef) and decl.body is not None:
                self._check_function(decl)
        self.last_result = self.result
        if self.strict and not self.result.ok:
            summary = "; ".join(self.result.errors[:5]) or "missing declarations"
            raise TypeCheckError(summary)
        return self.result

    # -- pass 1: top level --------------------------------------------------

    def _collect_top_level(self) -> None:
        for decl in self.program.decls:
            if isinstance(decl, ast.TypedefDecl):
                self.typedefs[decl.name] = self._resolve(decl.type)
            elif isinstance(decl, ast.StructDecl):
                struct = ct.StructType(
                    decl.tag,
                    [ct.StructField(n, self._resolve(t)) for n, t in decl.fields],
                )
                self.structs[decl.tag] = struct
            elif isinstance(decl, ast.Declaration):
                self.global_scope.define(decl.name, self._resolve(decl.type))
                if decl.init is not None:
                    # Annotate initialiser expressions: the interpreter's
                    # static typing (and constant wrapping) relies on ctype.
                    self._check_initializer(
                        decl.init, self._resolve(decl.type), self.global_scope
                    )
            elif isinstance(decl, ast.Block):
                for inner in decl.stmts:
                    if isinstance(inner, ast.Declaration):
                        self.global_scope.define(inner.name, self._resolve(inner.type))
                        if inner.init is not None:
                            self._check_initializer(
                                inner.init, self._resolve(inner.type), self.global_scope
                            )
            elif isinstance(decl, ast.FunctionDef):
                params = tuple(self._resolve(p.type) for p in decl.params)
                self.functions[decl.name] = ct.FunctionType(
                    self._resolve(decl.return_type), params, decl.variadic
                )

    # -- type resolution ----------------------------------------------------

    def _resolve(self, t: ct.CType) -> ct.CType:
        """Resolve typedef names and struct tags inside a type."""
        if isinstance(t, ct.NamedType):
            if t.name in self.typedefs:
                return self._resolve(self.typedefs[t.name])
            self.result.missing.typedefs.add(t.name)
            return t
        if isinstance(t, ct.PointerType):
            return ct.PointerType(self._resolve(t.pointee))
        if isinstance(t, ct.ArrayType):
            return ct.ArrayType(self._resolve(t.element), t.length)
        if isinstance(t, ct.StructType):
            if t.fields:
                resolved = ct.StructType(
                    t.tag,
                    [ct.StructField(f.name, self._resolve(f.type)) for f in t.fields],
                    complete=True,
                )
                self.structs.setdefault(t.tag, resolved)
                return resolved
            if t.tag in self.structs:
                return self.structs[t.tag]
            self.result.missing.struct_tags.add(t.tag)
            return t
        if isinstance(t, ct.FunctionType):
            return ct.FunctionType(
                self._resolve(t.return_type),
                tuple(self._resolve(p) for p in t.param_types),
                t.variadic,
            )
        return t

    # -- pass 2: function bodies --------------------------------------------

    def _check_function(self, func: ast.FunctionDef) -> None:
        self.current_return = self._resolve(func.return_type)
        scope = _Scope(self.global_scope)
        for param in func.params:
            scope.define(param.name, ct.decay(self._resolve(param.type)))
        self._check_stmt(func.body, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            inner = _Scope(scope)
            for s in stmt.stmts:
                self._check_stmt(s, inner)
        elif isinstance(stmt, ast.Declaration):
            t = self._resolve(stmt.type)
            scope.define(stmt.name, t)
            if stmt.init is not None:
                self._check_initializer(stmt.init, t, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope)
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond, scope)
            self._check_stmt(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._check_stmt(stmt.body, scope)
            self._check_expr(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if isinstance(stmt.init, ast.Stmt):
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._check_stmt(stmt.body, inner)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value_type = self._check_expr(stmt.value, scope)
                if ct.is_void(self.current_return) and value_type is not None:
                    self._error("returning a value from a void function")
            elif not ct.is_void(self.current_return):
                # "return;" in a non-void function is tolerated (common in
                # real-world code and in decompiler output).
                pass
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.EmptyStmt)):
            pass
        else:
            self._error(f"unsupported statement {type(stmt).__name__}")

    def _check_initializer(
        self, node: ast.Node, target: ct.CType, scope: _Scope
    ) -> None:
        if isinstance(node, ast.InitializerList):
            element = target.element if isinstance(target, ct.ArrayType) else target
            for item in node.items:
                self._check_initializer(item, element, scope)
        else:
            value_type = self._check_expr(node, scope)  # type: ignore[arg-type]
            if value_type is not None and not ct.types_compatible(target, value_type):
                self._error(f"initialising {target} from incompatible {value_type}")

    # -- expressions --------------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> Optional[ct.CType]:
        t = self._expr_type(expr, scope)
        expr.ctype = t
        return t

    def _expr_type(self, expr: ast.Expr, scope: _Scope) -> Optional[ct.CType]:
        if isinstance(expr, ast.IntLiteral):
            return ct.literal_int_type(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return ct.DOUBLE
        if isinstance(expr, ast.CharLiteral):
            return ct.CHAR
        if isinstance(expr, ast.StringLiteral):
            return ct.PointerType(ct.CHAR)
        if isinstance(expr, ast.Identifier):
            found = scope.lookup(expr.name)
            if found is not None:
                return found
            if expr.name in self.functions:
                return self.functions[expr.name]
            if expr.name in ("NULL", "true", "false"):
                return ct.INT
            self.result.missing.variables.setdefault(expr.name, ct.INT)
            return ct.INT
        if isinstance(expr, ast.BinaryOp):
            return self._binary_type(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            return self._unary_type(expr, scope)
        if isinstance(expr, ast.PostfixOp):
            operand = self._check_expr(expr.operand, scope)
            return operand
        if isinstance(expr, ast.Assignment):
            target = self._check_expr(expr.target, scope)
            value = self._check_expr(expr.value, scope)
            if target is not None and value is not None and not ct.types_compatible(
                target, value
            ):
                self._error(f"assigning {value} to {target}")
            return target
        if isinstance(expr, ast.Conditional):
            self._check_expr(expr.cond, scope)
            then = self._check_expr(expr.then, scope)
            otherwise = self._check_expr(expr.otherwise, scope)
            if then is None:
                return otherwise
            if otherwise is None:
                return then
            if then.is_arithmetic() and otherwise.is_arithmetic():
                return ct.usual_arithmetic_conversion(then, otherwise)
            return then
        if isinstance(expr, ast.Call):
            return self._call_type(expr, scope)
        if isinstance(expr, ast.Index):
            base = self._check_expr(expr.base, scope)
            self._check_expr(expr.index, scope)
            base = ct.decay(base) if base is not None else None
            if isinstance(base, ct.PointerType):
                return base.pointee
            if base is not None and not isinstance(base, ct.NamedType):
                self._error(f"indexing non-pointer type {base}")
            return ct.INT
        if isinstance(expr, ast.Member):
            return self._member_type(expr, scope)
        if isinstance(expr, ast.Cast):
            self._check_expr(expr.operand, scope)
            return self._resolve(expr.target_type)
        if isinstance(expr, ast.SizeOf):
            if expr.operand is not None:
                self._check_expr(expr.operand, scope)
            return ct.ULONG
        self._error(f"unsupported expression {type(expr).__name__}")
        return None

    def _binary_type(self, expr: ast.BinaryOp, scope: _Scope) -> Optional[ct.CType]:
        left = self._check_expr(expr.left, scope)
        right = self._check_expr(expr.right, scope)
        if expr.op == ",":
            return right
        if left is None or right is None:
            return left or right
        left = ct.decay(left)
        right = ct.decay(right)
        if expr.op in ("&&", "||", "==", "!=", "<", ">", "<=", ">="):
            return ct.INT
        if expr.op in ("+", "-"):
            if isinstance(left, ct.PointerType) and right.is_integer():
                return left
            if (
                isinstance(right, ct.PointerType)
                and left.is_integer()
                and expr.op == "+"
            ):
                return right
            if isinstance(left, ct.PointerType) and isinstance(right, ct.PointerType):
                return ct.LONG
        if expr.op in ("%", "<<", ">>", "&", "|", "^"):
            if left.is_float() or right.is_float():
                self._error(f"operator {expr.op!r} applied to floating point operand")
                return ct.INT
        if expr.op in ("<<", ">>") and left.is_integer():
            # Shifts take the promoted LEFT operand's type — the count does
            # not participate in the usual arithmetic conversions.  This is
            # the same rule lowering and the constant folder apply.
            return ct.integer_promote(left)
        if left.is_arithmetic() and right.is_arithmetic():
            return ct.usual_arithmetic_conversion(
                ct.integer_promote(left), ct.integer_promote(right)
            )
        if isinstance(left, ct.NamedType) or isinstance(right, ct.NamedType):
            return ct.INT
        if isinstance(left, ct.StructType) or isinstance(right, ct.StructType):
            self._error(f"operator {expr.op!r} applied to struct operand")
        return left

    def _unary_type(self, expr: ast.UnaryOp, scope: _Scope) -> Optional[ct.CType]:
        operand = self._check_expr(expr.operand, scope)
        if operand is None:
            return None
        if expr.op == "&":
            return ct.PointerType(operand)
        if expr.op == "*":
            operand = ct.decay(operand)
            if isinstance(operand, ct.PointerType):
                return operand.pointee
            if not isinstance(operand, ct.NamedType):
                self._error(f"dereferencing non-pointer type {operand}")
            return ct.INT
        if expr.op == "!":
            return ct.INT
        if expr.op == "~":
            if operand.is_float():
                self._error("operator '~' applied to floating point operand")
            return ct.integer_promote(operand)
        if expr.op in ("-", "+") and operand.is_integer():
            # Unary +/- apply the integer promotions: -c on a char is an int.
            return ct.integer_promote(operand)
        return operand

    def _call_type(self, expr: ast.Call, scope: _Scope) -> Optional[ct.CType]:
        for arg in expr.args:
            self._check_expr(arg, scope)
        if isinstance(expr.func, ast.Identifier):
            name = expr.func.name
            local = scope.lookup(name)
            if isinstance(local, ct.FunctionType):
                ftype: Optional[ct.FunctionType] = local
            elif isinstance(local, ct.PointerType) and isinstance(
                local.pointee, ct.FunctionType
            ):
                ftype = local.pointee
            else:
                ftype = self.functions.get(name)
            if ftype is None:
                arg_types = tuple(
                    ct.decay(a.ctype) if a.ctype else ct.INT for a in expr.args
                )
                ftype = ct.FunctionType(ct.INT, arg_types)
                self.result.missing.functions.setdefault(name, ftype)
            expr.func.ctype = ftype
            if (
                not ftype.variadic
                and ftype.param_types
                and len(expr.args) != len(ftype.param_types)
                and name not in self.result.missing.functions
            ):
                self._error(
                    f"call to {name} with {len(expr.args)} args, expected {len(ftype.param_types)}"
                )
            return ftype.return_type
        func_type = self._check_expr(expr.func, scope)
        if isinstance(func_type, ct.FunctionType):
            return func_type.return_type
        if isinstance(func_type, ct.PointerType) and isinstance(
            func_type.pointee, ct.FunctionType
        ):
            return func_type.pointee.return_type
        return ct.INT

    def _member_type(self, expr: ast.Member, scope: _Scope) -> Optional[ct.CType]:
        base = self._check_expr(expr.base, scope)
        if base is None:
            return None
        if expr.arrow:
            base = ct.decay(base)
            if isinstance(base, ct.PointerType):
                base = base.pointee
            elif isinstance(base, ct.NamedType):
                return ct.INT
            else:
                self._error(f"'->' applied to non-pointer type {base}")
                return ct.INT
        if isinstance(base, ct.StructType):
            struct = self.structs.get(base.tag, base)
            if struct.has_field(expr.field_name):
                return struct.field_type(expr.field_name)
            self._error(f"struct {struct.tag} has no member {expr.field_name!r}")
            return ct.INT
        if isinstance(base, ct.NamedType):
            # Member access through an opaque typedef: type inference will
            # synthesise the struct; assume int for now.
            return ct.INT
        self._error(f"member access on non-struct type {base}")
        return ct.INT

    def _error(self, message: str) -> None:
        self.result.errors.append(message)


def check_program(program: ast.Program, strict: bool = False) -> CheckResult:
    """Convenience wrapper: run the type checker over ``program``."""
    return TypeChecker(program, strict=strict).check()


def compiles(source: str) -> bool:
    """Return True if ``source`` parses and type-checks with no missing names.

    This is the *Compiles* predicate used by the evaluation harness
    (Table I of the paper).
    """
    from repro.lang.parser import ParseError, parse_program
    from repro.lang.lexer import LexError

    try:
        program = parse_program(source)
    except (ParseError, LexError, RecursionError):
        return False
    try:
        result = check_program(program)
    except (TypeCheckError, RecursionError):
        return False
    return result.ok
