"""AST → IR lowering for the Mini-C compiler.

The :class:`Lowerer` turns a single type-checked function into an
:class:`repro.compiler.ir.IRFunction`.  Two regimes are supported:

* ``promote_scalars=False`` (the -O0 pipeline): every parameter and local
  variable lives in a stack slot and every access is a load/store, which
  yields verbose, source-shaped assembly.
* ``promote_scalars=True`` (the -O3 pipeline): scalar locals whose address
  is never taken are promoted to virtual registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.compiler import ir
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.typecheck import TypeChecker


class LoweringError(Exception):
    """Raised when a construct cannot be lowered (treated as 'GCC failed')."""


@dataclass
class _RegisterLocation:
    reg: ir.VReg
    type: ct.CType


@dataclass
class _MemoryLocation:
    addr: ir.Operand  # VReg holding a base address
    offset: int
    type: ct.CType
    slot: Optional[str] = None  # set when the base is a frame slot


_Location = Union[_RegisterLocation, _MemoryLocation]


class _TypeFacts:
    """Everything lowering asks about one type, answered once.

    ``resolved`` is :meth:`Lowerer.resolve`'s answer; the rest are derived
    from it exactly as the per-call helpers used to derive them.
    """

    __slots__ = ("type", "resolved", "is_float", "width", "store_size", "signed")

    def __init__(self, t: Optional[ct.CType], resolved: ct.CType) -> None:
        # Holding ``t`` keeps its id from being reused while the memo lives.
        self.type = t
        self.resolved = resolved
        self.is_float = isinstance(resolved, ct.FloatType)
        # Array-to-pointer decay never yields an integer, so the integer
        # width is read off the resolved type directly.
        if isinstance(resolved, ct.IntType):
            self.width = (8 * resolved.sizeof(), resolved.unsigned)
            self.signed = not resolved.unsigned
        else:
            self.width = (64, False)
            self.signed = True
        if isinstance(resolved, (ct.ArrayType, ct.StructType)):
            self.store_size = 8
        else:
            self.store_size = max(1, resolved.sizeof())


def _collect_address_taken(node: ast.Node, found: Set[str]) -> None:
    """Record names whose address is taken with ``&`` anywhere in ``node``."""
    if isinstance(node, ast.UnaryOp) and node.op == "&" and isinstance(
        node.operand, ast.Identifier
    ):
        found.add(node.operand.name)
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            _collect_address_taken(value, found)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    _collect_address_taken(item, found)


class Lowerer:
    """Lower one function of a program to IR."""

    def __init__(
        self,
        program: ast.Program,
        func: ast.FunctionDef,
        promote_scalars: bool = False,
        checker: Optional[TypeChecker] = None,
    ) -> None:
        self.program = program
        self.func = func
        self.promote_scalars = promote_scalars
        if checker is None:
            # A caller lowering several functions (or several opt levels) of
            # one program can pass an already-run checker to type-check once.
            checker = TypeChecker(program)
            self.check_result = checker.check()
        else:
            self.check_result = getattr(checker, "last_result", None)
            if self.check_result is None:
                # Constructed-but-never-run checker: run it, mirroring what
                # the no-checker path does.
                self.check_result = checker.check()
        self.typedefs = checker.typedefs
        self.structs = checker.structs
        self.functions = checker.functions
        self.globals: Dict[str, ct.CType] = dict(checker.global_scope.vars)
        self.ir = ir.IRFunction(func.name)
        self.vars: Dict[str, _Location] = {}
        self.break_targets: List[str] = []
        self.continue_targets: List[str] = []
        self.string_literals: Dict[str, str] = {}
        self._slot_counter = 0
        # id(type) -> its facts, for this lowering only: typedefs and struct
        # tags are per program.  Keyed by the type object rather than its
        # value, so lookups hash no dataclass, and types that are unhashable
        # or equal by tag alone (structs) need no special case.
        self._type_facts: Dict[int, _TypeFacts] = {}
        # Only scalar promotion (-O3) asks which names have their address
        # taken, so -O0 skips the walk.
        self._address_taken: Set[str] = set()
        if promote_scalars and func.body is not None:
            _collect_address_taken(func.body, self._address_taken)

    # -- type helpers --------------------------------------------------------

    def _facts(self, t: Optional[ct.CType]) -> _TypeFacts:
        """``t``'s facts, computed on first sight.

        Hot callers inline the hit as ``self._type_facts.get(id(t)) or
        self._facts(t)`` (facts objects are always truthy).
        """
        facts = self._type_facts.get(id(t))
        if facts is None:
            facts = _TypeFacts(t, self._resolve_uncached(t))
            self._type_facts[id(t)] = facts
        return facts

    def resolve(self, t: Optional[ct.CType]) -> ct.CType:
        return (self._type_facts.get(id(t)) or self._facts(t)).resolved

    def _resolve_uncached(self, t: Optional[ct.CType]) -> ct.CType:
        if t is None:
            return ct.INT
        if isinstance(t, ct.NamedType):
            if t.name in self.typedefs:
                return self.resolve(self.typedefs[t.name])
            raise LoweringError(f"unknown type name {t.name!r}")
        if isinstance(t, ct.StructType) and not t.fields and t.tag in self.structs:
            return self.structs[t.tag]
        if isinstance(t, ct.PointerType):
            return ct.PointerType(self.resolve(t.pointee))
        if isinstance(t, ct.ArrayType):
            return ct.ArrayType(self.resolve(t.element), t.length)
        return t

    def _is_float(self, t: ct.CType) -> bool:
        return (self._type_facts.get(id(t)) or self._facts(t)).is_float

    def _width(self, t: ct.CType) -> Tuple[int, bool]:
        """(bits, unsigned) of the integer register representation of ``t``.

        Pointers, arrays and anything non-integer occupy a full 64-bit
        register and are treated as signed for extension purposes.
        """
        return (self._type_facts.get(id(t)) or self._facts(t)).width

    def _scalar_promotable(self, t: ct.CType, name: str) -> bool:
        if not self.promote_scalars:
            return False
        if name in self._address_taken:
            return False
        resolved = self.resolve(t)
        return resolved.is_arithmetic() or isinstance(resolved, ct.PointerType)

    # -- entry point ---------------------------------------------------------

    def lower(self) -> Tuple[ir.IRFunction, Dict[str, str]]:
        """Lower the function; returns the IR and the string-literal table."""
        func = self.func
        if func.body is None:
            raise LoweringError(f"function {func.name} has no body")
        self.ir.returns_float = self._is_float(func.return_type)

        # Parameters arrive in fresh virtual registers.
        for param in func.params:
            ptype = ct.decay(self.resolve(param.type))
            is_float = self._is_float(ptype)
            bits, unsigned = self._width(ptype)
            reg = self.ir.new_vreg(is_float, bits, unsigned)
            self.ir.params.append(reg)
            self.ir.param_names.append(param.name)
            if self._scalar_promotable(ptype, param.name):
                self.vars[param.name] = _RegisterLocation(reg, ptype)
            else:
                slot = self._new_slot(param.name, self._slot_size(ptype))
                addr = self.ir.new_vreg()
                self.ir.emit(ir.IRFrameAddr(addr, slot.name))
                self.ir.emit(
                    ir.IRStore(reg, addr, 0, self._store_size(ptype), is_float)
                )
                self.vars[param.name] = _MemoryLocation(addr, 0, ptype, slot.name)

        self._lower_stmt(func.body)
        # Implicit return for functions that fall off the end.
        if not self.ir.instrs or not isinstance(self.ir.instrs[-1], ir.IRRet):
            if ct.is_void(self.resolve(func.return_type)):
                self.ir.emit(ir.IRRet(None))
            else:
                zero = self.ir.new_vreg(self.ir.returns_float)
                self.ir.emit(ir.IRConst(zero, 0.0 if self.ir.returns_float else 0))
                self.ir.emit(ir.IRRet(zero, self.ir.returns_float))
        return self.ir, self.string_literals

    def _new_slot(self, name: str, size: int) -> ir.StackSlot:
        slot_name = name
        while slot_name in self.ir.slots:
            self._slot_counter += 1
            slot_name = f"{name}.{self._slot_counter}"
        return self.ir.add_slot(slot_name, size)

    def _slot_size(self, t: ct.CType) -> int:
        """Frame bytes for a named variable of type ``t``.

        Scalars take exactly their declared width — an ``int`` local gets a
        4-byte slot that the frame layout packs at natural alignment, the
        same way PR 2 shrank spill slots.  Every scalar access goes through
        :meth:`_store_size`, which uses the same width, so no load or store
        can overrun the slot.  Aggregates keep their full size: the type
        must NOT be decayed here, or a local array would get a pointer-sized
        slot and its elements would overrun into neighbouring slots.
        (Array-typed *parameters* never reach this path un-decayed — the
        caller decays them before asking for a slot.)
        """
        return max(1, self.resolve(t).sizeof())

    def _store_size(self, t: ct.CType) -> int:
        return (self._type_facts.get(id(t)) or self._facts(t)).store_size

    # -- statements -----------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        handler = _STMT_DISPATCH.get(stmt.__class__)
        if handler is None:
            raise LoweringError(f"cannot lower statement {type(stmt).__name__}")
        handler(self, stmt)

    def _lower_block(self, stmt: ast.Block) -> None:
        saved = dict(self.vars)
        for inner in stmt.stmts:
            self._lower_stmt(inner)
        self.vars = saved

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self._lower_expr(stmt.expr)

    def _lower_break(self, stmt: ast.Break) -> None:
        if not self.break_targets:
            raise LoweringError("break outside of a loop")
        self.ir.emit(ir.IRJump(self.break_targets[-1]))

    def _lower_continue(self, stmt: ast.Continue) -> None:
        if not self.continue_targets:
            raise LoweringError("continue outside of a loop")
        self.ir.emit(ir.IRJump(self.continue_targets[-1]))

    def _lower_empty(self, stmt: ast.EmptyStmt) -> None:
        pass

    def _lower_declaration(self, decl: ast.Declaration) -> None:
        t = self.resolve(decl.type)
        if self._scalar_promotable(t, decl.name) and not isinstance(
            t, (ct.ArrayType, ct.StructType)
        ):
            bits, unsigned = self._width(t)
            reg = self.ir.new_vreg(self._is_float(t), bits, unsigned)
            self.vars[decl.name] = _RegisterLocation(reg, t)
            if decl.init is not None and not isinstance(decl.init, ast.InitializerList):
                value, vtype = self._lower_expr(decl.init)  # type: ignore[arg-type]
                value = self._convert(value, vtype, t)
                self.ir.emit(ir.IRMove(reg, value))
            else:
                self.ir.emit(ir.IRConst(reg, 0.0 if self._is_float(t) else 0))
            return

        slot = self._new_slot(decl.name, self._slot_size(t))
        addr = self.ir.new_vreg()
        self.ir.emit(ir.IRFrameAddr(addr, slot.name))
        location = _MemoryLocation(addr, 0, t, slot.name)
        self.vars[decl.name] = location
        if decl.init is None:
            return
        if isinstance(decl.init, ast.InitializerList):
            self._lower_initializer_list(location, decl.init)
        elif isinstance(decl.init, ast.StringLiteral) and isinstance(t, ct.ArrayType):
            symbol = self._intern_string(decl.init.value)
            src = self.ir.new_vreg()
            self.ir.emit(ir.IRGlobalAddr(src, symbol))
            count = self.ir.new_vreg()
            self.ir.emit(ir.IRConst(count, len(decl.init.value) + 1))
            self.ir.emit(ir.IRCall(None, "memcpy", [addr, src, count]))
        else:
            value, vtype = self._lower_expr(decl.init)  # type: ignore[arg-type]
            value = self._convert(value, vtype, t)
            self.ir.emit(
                ir.IRStore(value, addr, 0, self._store_size(t), self._is_float(t))
            )

    def _lower_initializer_list(
        self, location: _MemoryLocation, init: ast.InitializerList
    ) -> None:
        t = self.resolve(location.type)
        if isinstance(t, ct.ArrayType):
            elem = self.resolve(t.element)
            for index, item in enumerate(init.items):
                if isinstance(item, ast.InitializerList):
                    inner = _MemoryLocation(
                        location.addr, location.offset + index * elem.sizeof(), elem
                    )
                    self._lower_initializer_list(inner, item)
                else:
                    value, vtype = self._lower_expr(item)  # type: ignore[arg-type]
                    value = self._convert(value, vtype, elem)
                    self.ir.emit(
                        ir.IRStore(
                            value,
                            location.addr,  # type: ignore[arg-type]
                            location.offset + index * elem.sizeof(),
                            self._store_size(elem),
                            self._is_float(elem),
                        )
                    )
        elif isinstance(t, ct.StructType):
            for fld, item in zip(t.fields, init.items):
                ftype = self.resolve(fld.type)
                value, vtype = self._lower_expr(item)  # type: ignore[arg-type]
                value = self._convert(value, vtype, ftype)
                self.ir.emit(
                    ir.IRStore(
                        value,
                        location.addr,  # type: ignore[arg-type]
                        location.offset + t.field_offset(fld.name),
                        self._store_size(ftype),
                        self._is_float(ftype),
                    )
                )
        else:
            if init.items:
                value, vtype = self._lower_expr(init.items[0])  # type: ignore[arg-type]
                value = self._convert(value, vtype, t)
                self.ir.emit(
                    ir.IRStore(
                        value,
                        location.addr,  # type: ignore[arg-type]
                        location.offset,
                        self._store_size(t),
                        self._is_float(t),
                    )
                )

    def _lower_if(self, stmt: ast.If) -> None:
        cond, _ = self._lower_expr(stmt.cond)
        cond_reg = self._to_reg(cond)
        else_label = self.ir.new_label("Lelse")
        end_label = self.ir.new_label("Lend")
        self.ir.emit(ir.IRBranch(cond_reg, self.ir.new_label("Lthen"), else_label))
        # The branch's true target is the fallthrough; rewrite it to a real label.
        branch = self.ir.instrs[-1]
        assert isinstance(branch, ir.IRBranch)
        then_label = branch.true_target
        self.ir.emit(ir.IRLabel(then_label))
        self._lower_stmt(stmt.then)
        if stmt.otherwise is not None:
            self.ir.emit(ir.IRJump(end_label))
            self.ir.emit(ir.IRLabel(else_label))
            self._lower_stmt(stmt.otherwise)
            self.ir.emit(ir.IRLabel(end_label))
        else:
            self.ir.emit(ir.IRLabel(else_label))

    def _lower_while(self, stmt: ast.While) -> None:
        head = self.ir.new_label("Lwhile")
        body = self.ir.new_label("Lbody")
        end = self.ir.new_label("Lend")
        self.ir.emit(ir.IRLabel(head))
        cond, _ = self._lower_expr(stmt.cond)
        self.ir.emit(ir.IRBranch(self._to_reg(cond), body, end))
        self.ir.emit(ir.IRLabel(body))
        self.break_targets.append(end)
        self.continue_targets.append(head)
        self._lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.ir.emit(ir.IRJump(head))
        self.ir.emit(ir.IRLabel(end))

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.ir.new_label("Ldo")
        check = self.ir.new_label("Lcheck")
        end = self.ir.new_label("Lend")
        self.ir.emit(ir.IRLabel(body))
        self.break_targets.append(end)
        self.continue_targets.append(check)
        self._lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.ir.emit(ir.IRLabel(check))
        cond, _ = self._lower_expr(stmt.cond)
        self.ir.emit(ir.IRBranch(self._to_reg(cond), body, end))
        self.ir.emit(ir.IRLabel(end))

    def _lower_for(self, stmt: ast.For) -> None:
        saved = dict(self.vars)
        if isinstance(stmt.init, ast.Stmt):
            self._lower_stmt(stmt.init)
        head = self.ir.new_label("Lfor")
        body = self.ir.new_label("Lbody")
        step_label = self.ir.new_label("Lstep")
        end = self.ir.new_label("Lend")
        self.ir.emit(ir.IRLabel(head))
        if stmt.cond is not None:
            cond, _ = self._lower_expr(stmt.cond)
            self.ir.emit(ir.IRBranch(self._to_reg(cond), body, end))
        self.ir.emit(ir.IRLabel(body))
        self.break_targets.append(end)
        self.continue_targets.append(step_label)
        self._lower_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.ir.emit(ir.IRLabel(step_label))
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self.ir.emit(ir.IRJump(head))
        self.ir.emit(ir.IRLabel(end))
        self.vars = saved

    def _lower_return(self, stmt: ast.Return) -> None:
        return_type = self.resolve(self.func.return_type)
        if stmt.value is None or ct.is_void(return_type):
            self.ir.emit(ir.IRRet(None))
            return
        value, vtype = self._lower_expr(stmt.value)
        value = self._convert(value, vtype, return_type)
        self.ir.emit(ir.IRRet(value, self._is_float(return_type)))

    # -- expressions -----------------------------------------------------------

    def _to_reg(self, operand: ir.Operand, is_float: bool = False) -> ir.VReg:
        if isinstance(operand, ir.VReg):
            return operand
        reg = self.ir.new_vreg(is_float or isinstance(operand, float))
        self.ir.emit(ir.IRConst(reg, operand))
        return reg

    def _convert(
        self, value: ir.Operand, from_type: ct.CType, to_type: ct.CType
    ) -> ir.Operand:
        """Insert an int<->float or integer width/sign conversion when required."""
        src_facts = self._type_facts.get(id(from_type)) or self._facts(from_type)
        dst_facts = self._type_facts.get(id(to_type)) or self._facts(to_type)
        dst_float = dst_facts.is_float
        if src_facts.is_float != dst_float:
            if isinstance(value, (int, float)):
                if dst_float:
                    return float(value)
                return self._wrap_int_operand(int(value), to_type)
            # f2i truncates to a full 64-bit integer; narrow afterwards.
            dst = self.ir.new_vreg(dst_float)
            self.ir.emit(ir.IRCast("i2f" if dst_float else "f2i", dst, value))
            if not dst_float:
                return self._narrow(dst, dst_facts.width, self._width(ct.LONG))
            return dst
        if dst_float:
            return value
        if isinstance(value, int):
            # _wrap_int_operand, with the target's facts already in hand.
            resolved = dst_facts.resolved
            if isinstance(resolved, ct.IntType):
                value = resolved.wrap(value)
        return self._narrow(value, dst_facts.width, src_facts.width)

    def _wrap_int_operand(self, value: ir.Operand, to_type: ct.CType) -> ir.Operand:
        """Fold an integer constant into ``to_type``'s register representation."""
        if not isinstance(value, int):
            return value
        # Decay never yields an integer type, so the resolved type decides.
        resolved = self.resolve(to_type)
        if isinstance(resolved, ct.IntType):
            return resolved.wrap(value)
        return value

    def _narrow(
        self,
        value: ir.Operand,
        to_width: Tuple[int, bool],
        from_width: Tuple[int, bool],
    ) -> ir.Operand:
        """Re-extend ``value`` when the target width ``to_width`` is narrower
        (or differs in signedness at the same sub-64-bit width) than the
        source width ``from_width`` it holds; widths are :meth:`_width`'s
        ``(bits, unsigned)``.

        Widening is a no-op: by the vreg invariant, values are already held
        sign-/zero-extended per their own type, which is exactly the
        representation any wider type expects.
        """
        if value.__class__ is not ir.VReg or value.is_float:
            return value
        to_bits, to_unsigned = to_width
        from_bits, from_unsigned = from_width
        if to_bits >= 64:
            return value
        if to_bits > from_bits and (from_unsigned or not to_unsigned):
            # Widening where the source's existing extension is already the
            # target representation.  A *signed* source widening into an
            # unsigned type is NOT a no-op: its sign-extension must be cut
            # down to the target's zero-extension (e.g. (unsigned)(char)-1).
            return value
        if to_bits == from_bits and to_unsigned == from_unsigned:
            return value
        dst = self.ir.new_vreg(False, to_bits, to_unsigned)
        kind = f"{'zext' if to_unsigned else 'sext'}{to_bits}"
        self.ir.emit(ir.IRCast(kind, dst, value))
        return dst

    def _lower_expr(self, expr: ast.Expr) -> Tuple[ir.Operand, ct.CType]:
        handler = _EXPR_DISPATCH.get(expr.__class__)
        if handler is None:
            raise LoweringError(f"cannot lower expression {type(expr).__name__}")
        return handler(self, expr)

    def _lower_int_literal(self, expr: ast.IntLiteral) -> Tuple[ir.Operand, ct.CType]:
        return expr.value, ct.literal_int_type(expr.value)

    def _lower_float_literal(
        self, expr: ast.FloatLiteral
    ) -> Tuple[ir.Operand, ct.CType]:
        return float(expr.value), ct.DOUBLE

    def _lower_char_literal(self, expr: ast.CharLiteral) -> Tuple[ir.Operand, ct.CType]:
        return expr.value, ct.CHAR

    def _lower_string_literal(
        self, expr: ast.StringLiteral
    ) -> Tuple[ir.Operand, ct.CType]:
        symbol = self._intern_string(expr.value)
        reg = self.ir.new_vreg()
        self.ir.emit(ir.IRGlobalAddr(reg, symbol))
        return reg, ct.PointerType(ct.CHAR)

    def _lower_postfix(self, expr: ast.PostfixOp) -> Tuple[ir.Operand, ct.CType]:
        return self._lower_incdec(expr.operand, expr.op, postfix=True)

    def _lower_access(self, expr: ast.Expr) -> Tuple[ir.Operand, ct.CType]:
        """``a[i]`` and ``s.f``/``p->f``: load from the lvalue's location."""
        return self._load_location(self._lower_lvalue(expr))

    def _lower_cast(self, expr: ast.Cast) -> Tuple[ir.Operand, ct.CType]:
        value, vtype = self._lower_expr(expr.operand)
        target = self.resolve(expr.target_type)
        return self._convert(value, vtype, target), target

    def _lower_sizeof(self, expr: ast.SizeOf) -> Tuple[ir.Operand, ct.CType]:
        if expr.target_type is not None:
            return self.resolve(expr.target_type).sizeof(), ct.ULONG
        t = (
            expr.operand.ctype
            if expr.operand is not None and expr.operand.ctype
            else ct.INT
        )
        return self.resolve(t).sizeof(), ct.ULONG

    def _intern_string(self, text: str) -> str:
        for symbol, existing in self.string_literals.items():
            if existing == text:
                return symbol
        symbol = f".LC{len(self.string_literals)}"
        self.string_literals[symbol] = text
        return symbol

    def _lower_identifier(self, expr: ast.Identifier) -> Tuple[ir.Operand, ct.CType]:
        if expr.name in self.vars:
            return self._load_location_or_reg(self.vars[expr.name])
        if expr.name in self.globals:
            gtype = self.resolve(self.globals[expr.name])
            addr = self.ir.new_vreg()
            self.ir.emit(ir.IRGlobalAddr(addr, expr.name))
            if isinstance(gtype, (ct.ArrayType, ct.StructType)):
                return addr, gtype
            bits, unsigned = self._width(gtype)
            dst = self.ir.new_vreg(self._is_float(gtype), bits, unsigned)
            self.ir.emit(
                ir.IRLoad(
                    dst,
                    addr,
                    0,
                    self._store_size(gtype),
                    self._signed(gtype),
                    self._is_float(gtype),
                )
            )
            return dst, gtype
        if expr.name in ("NULL", "false"):
            return 0, ct.INT
        if expr.name == "true":
            return 1, ct.INT
        raise LoweringError(f"use of undeclared identifier {expr.name!r}")

    def _signed(self, t: ct.CType) -> bool:
        return (self._type_facts.get(id(t)) or self._facts(t)).signed

    def _load_location_or_reg(self, location: _Location) -> Tuple[ir.Operand, ct.CType]:
        if isinstance(location, _RegisterLocation):
            return location.reg, location.type
        return self._load_location(location)

    def _load_location(self, location: _Location) -> Tuple[ir.Operand, ct.CType]:
        if isinstance(location, _RegisterLocation):
            return location.reg, location.type
        t = self.resolve(location.type)
        if isinstance(t, (ct.ArrayType, ct.StructType)):
            # Arrays/structs decay to their address.
            if location.offset == 0:
                return location.addr, t
            base = self._to_reg(location.addr)
            dst = self.ir.new_vreg()
            self.ir.emit(ir.IRBinOp("add", dst, base, location.offset))
            return dst, t
        facts = self._type_facts.get(id(t)) or self._facts(t)
        bits, unsigned = facts.width
        dst = self.ir.new_vreg(facts.is_float, bits, unsigned)
        self.ir.emit(
            ir.IRLoad(
                dst,
                self._to_reg(location.addr),
                location.offset,
                facts.store_size,
                facts.signed,
                facts.is_float,
            )
        )
        return dst, t

    def _store_location(
        self, location: _Location, value: ir.Operand, value_type: ct.CType
    ) -> None:
        if isinstance(location, _RegisterLocation):
            converted = self._convert(value, value_type, location.type)
            self.ir.emit(ir.IRMove(location.reg, converted))
            return
        t = self.resolve(location.type)
        converted = self._convert(value, value_type, t)
        facts = self._type_facts.get(id(t)) or self._facts(t)
        self.ir.emit(
            ir.IRStore(
                converted,
                self._to_reg(location.addr),
                location.offset,
                facts.store_size,
                facts.is_float,
            )
        )

    # -- lvalues ---------------------------------------------------------------

    def _lower_lvalue(self, expr: ast.Expr) -> _Location:
        if isinstance(expr, ast.Identifier):
            if expr.name in self.vars:
                return self.vars[expr.name]
            if expr.name in self.globals:
                gtype = self.resolve(self.globals[expr.name])
                addr = self.ir.new_vreg()
                self.ir.emit(ir.IRGlobalAddr(addr, expr.name))
                return _MemoryLocation(addr, 0, gtype)
            raise LoweringError(f"use of undeclared identifier {expr.name!r}")
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            value, vtype = self._lower_expr(expr.operand)
            vtype = ct.decay(self.resolve(vtype))
            pointee = vtype.pointee if isinstance(vtype, ct.PointerType) else ct.INT
            return _MemoryLocation(self._to_reg(value), 0, self.resolve(pointee))
        if isinstance(expr, ast.Index):
            base, base_type = self._lower_expr(expr.base)
            base_type = ct.decay(self.resolve(base_type))
            elem = (
                self.resolve(base_type.pointee)
                if isinstance(base_type, ct.PointerType)
                else ct.INT
            )
            index, _ = self._lower_expr(expr.index)
            if isinstance(index, (int, float)):
                return _MemoryLocation(
                    self._to_reg(base), int(index) * elem.sizeof(), elem
                )
            scaled = self.ir.new_vreg()
            self.ir.emit(ir.IRBinOp("mul", scaled, index, elem.sizeof()))
            addr = self.ir.new_vreg()
            self.ir.emit(ir.IRBinOp("add", addr, self._to_reg(base), scaled))
            return _MemoryLocation(addr, 0, elem)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base, base_type = self._lower_expr(expr.base)
                base_type = ct.decay(self.resolve(base_type))
                struct = (
                    self.resolve(base_type.pointee)
                    if isinstance(base_type, ct.PointerType)
                    else None
                )
                base_addr: ir.Operand = self._to_reg(base)
                base_offset = 0
            else:
                base_loc = self._lower_lvalue(expr.base)
                if isinstance(base_loc, _RegisterLocation):
                    raise LoweringError("member access on register-allocated struct")
                struct = self.resolve(base_loc.type)
                base_addr = base_loc.addr
                base_offset = base_loc.offset
            if not isinstance(struct, ct.StructType):
                raise LoweringError(f"member access {expr.field_name!r} on non-struct")
            struct = self.structs.get(struct.tag, struct)
            if not struct.has_field(expr.field_name):
                raise LoweringError(
                    f"struct {struct.tag} has no field {expr.field_name!r}"
                )
            return _MemoryLocation(
                base_addr,
                base_offset + struct.field_offset(expr.field_name),
                self.resolve(struct.field_type(expr.field_name)),
            )
        if isinstance(expr, ast.Cast):
            return self._lower_lvalue(expr.operand)
        raise LoweringError(f"{type(expr).__name__} is not an lvalue")

    # -- operators ---------------------------------------------------------------

    _BINOP_MAP = {
        "+": "add",
        "-": "sub",
        "*": "mul",
        "/": "div",
        "%": "mod",
        "<<": "shl",
        ">>": "shr",
        "&": "and",
        "|": "or",
        "^": "xor",
    }
    _CMP_MAP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}

    def _lower_binary(self, expr: ast.BinaryOp) -> Tuple[ir.Operand, ct.CType]:
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        if op == ",":
            self._lower_expr(expr.left)
            return self._lower_expr(expr.right)

        left, left_type = self._lower_expr(expr.left)
        right, right_type = self._lower_expr(expr.right)
        left_type = ct.decay(self.resolve(left_type))
        right_type = ct.decay(self.resolve(right_type))

        if op in self._CMP_MAP:
            is_float = self._is_float(left_type) or self._is_float(right_type)
            bits = 64
            unsigned = False
            if is_float:
                left = self._convert(left, left_type, ct.DOUBLE)
                right = self._convert(right, right_type, ct.DOUBLE)
            elif isinstance(left_type, ct.IntType) and isinstance(
                right_type, ct.IntType
            ):
                # Compare in the common type, as C does: the conversions are
                # what make mixed signed/unsigned comparisons well defined.
                common = ct.usual_arithmetic_conversion(
                    ct.integer_promote(left_type), ct.integer_promote(right_type)
                )
                left = self._convert(left, left_type, common)
                right = self._convert(right, right_type, common)
                bits, unsigned = self._width(common)
            dst = self.ir.new_vreg(False, 32)
            self.ir.emit(
                ir.IRCmp(
                    self._CMP_MAP[op], dst, self._to_reg(left, is_float), right,
                    is_float, unsigned, bits,
                )
            )
            return dst, ct.INT

        if op not in self._BINOP_MAP:
            raise LoweringError(f"unsupported binary operator {op!r}")

        # Pointer arithmetic scaling.
        if (
            op in ("+", "-")
            and isinstance(left_type, ct.PointerType)
            and not isinstance(right_type, ct.PointerType)
        ):
            step = max(1, self.resolve(left_type.pointee).sizeof())
            right = self._scale(right, step)
            dst = self.ir.new_vreg()
            self.ir.emit(
                ir.IRBinOp(self._BINOP_MAP[op], dst, self._to_reg(left), right)
            )
            return dst, left_type
        if op == "+" and isinstance(right_type, ct.PointerType) and not isinstance(
            left_type, ct.PointerType
        ):
            step = max(1, self.resolve(right_type.pointee).sizeof())
            left = self._scale(left, step)
            dst = self.ir.new_vreg()
            self.ir.emit(ir.IRBinOp("add", dst, self._to_reg(right), left))
            return dst, right_type
        if op == "-" and isinstance(left_type, ct.PointerType) and isinstance(
            right_type, ct.PointerType
        ):
            step = max(1, self.resolve(left_type.pointee).sizeof())
            diff = self.ir.new_vreg()
            self.ir.emit(ir.IRBinOp("sub", diff, self._to_reg(left), right))
            dst = self.ir.new_vreg()
            self.ir.emit(ir.IRBinOp("div", dst, diff, step))
            return dst, ct.LONG

        if op in ("<<", ">>") and left_type.is_integer():
            # Shifts take the promoted LEFT operand's type; the count is not
            # converted (backends mask it by the operation width, exactly as
            # ctypes.int_binop does).
            result_type = ct.integer_promote(left_type)
        else:
            result_type = ct.usual_arithmetic_conversion(
                ct.integer_promote(left_type)
                if left_type.is_arithmetic()
                else left_type,
                ct.integer_promote(right_type)
                if right_type.is_arithmetic()
                else right_type,
            )
        facts = self._type_facts.get(id(result_type)) or self._facts(result_type)
        is_float = facts.is_float
        left = self._convert(left, left_type, result_type)
        if op not in ("<<", ">>"):
            right = self._convert(right, right_type, result_type)
        bits, unsigned = facts.width
        dst = self.ir.new_vreg(is_float, bits, unsigned)
        self.ir.emit(
            ir.IRBinOp(
                self._BINOP_MAP[op], dst, self._to_reg(left, is_float), right,
                is_float, unsigned, bits,
            )
        )
        return dst, result_type

    def _scale(self, operand: ir.Operand, step: int) -> ir.Operand:
        if step == 1:
            return operand
        if isinstance(operand, (int, float)):
            return int(operand) * step
        dst = self.ir.new_vreg()
        self.ir.emit(ir.IRBinOp("mul", dst, operand, step))
        return dst

    def _lower_logical(self, expr: ast.BinaryOp) -> Tuple[ir.Operand, ct.CType]:
        result = self.ir.new_vreg(False, 32)
        right_label = self.ir.new_label("Llog")
        end_label = self.ir.new_label("Lend")
        short_label = self.ir.new_label("Lshort")

        left, _ = self._lower_expr(expr.left)
        left_reg = self._to_reg(left)
        if expr.op == "&&":
            self.ir.emit(ir.IRBranch(left_reg, right_label, short_label))
            short_value = 0
        else:
            self.ir.emit(ir.IRBranch(left_reg, short_label, right_label))
            short_value = 1
        self.ir.emit(ir.IRLabel(right_label))
        right, _ = self._lower_expr(expr.right)
        norm = self.ir.new_vreg(False, 32)
        self.ir.emit(ir.IRCmp("ne", norm, self._to_reg(right), 0))
        self.ir.emit(ir.IRMove(result, norm))
        self.ir.emit(ir.IRJump(end_label))
        self.ir.emit(ir.IRLabel(short_label))
        self.ir.emit(ir.IRConst(result, short_value))
        self.ir.emit(ir.IRLabel(end_label))
        return result, ct.INT

    def _lower_unary(self, expr: ast.UnaryOp) -> Tuple[ir.Operand, ct.CType]:
        if expr.op == "&":
            location = self._lower_lvalue(expr.operand)
            if isinstance(location, _RegisterLocation):
                raise LoweringError("cannot take the address of a register variable")
            if location.offset == 0:
                return location.addr, ct.PointerType(location.type)
            dst = self.ir.new_vreg()
            self.ir.emit(
                ir.IRBinOp("add", dst, self._to_reg(location.addr), location.offset)
            )
            return dst, ct.PointerType(location.type)
        if expr.op == "*":
            location = self._lower_lvalue(expr)
            return self._load_location(location)
        if expr.op in ("++", "--"):
            return self._lower_incdec(expr.operand, expr.op, postfix=False)

        value, vtype = self._lower_expr(expr.operand)
        vtype = self.resolve(vtype)
        if expr.op == "+":
            return value, vtype
        if expr.op == "-":
            is_float = self._is_float(vtype)
            if is_float:
                dst = self.ir.new_vreg(True)
                self.ir.emit(ir.IRUnary("neg", dst, self._to_reg(value, True), True))
                return dst, vtype
            result_type = ct.integer_promote(vtype) if vtype.is_integer() else vtype
            value = self._convert(value, vtype, result_type)
            bits, unsigned = self._width(result_type)
            dst = self.ir.new_vreg(False, bits, unsigned)
            self.ir.emit(
                ir.IRUnary("neg", dst, self._to_reg(value), False, bits, unsigned)
            )
            return dst, result_type
        if expr.op == "~":
            result_type = ct.integer_promote(vtype) if vtype.is_integer() else ct.INT
            value = self._convert(value, vtype, result_type)
            bits, unsigned = self._width(result_type)
            dst = self.ir.new_vreg(False, bits, unsigned)
            self.ir.emit(
                ir.IRUnary("not", dst, self._to_reg(value), False, bits, unsigned)
            )
            return dst, result_type
        if expr.op == "!":
            dst = self.ir.new_vreg(False, 32)
            self.ir.emit(ir.IRCmp("eq", dst, self._to_reg(value), 0))
            return dst, ct.INT
        raise LoweringError(f"unsupported unary operator {expr.op!r}")

    def _lower_incdec(self, target: ast.Expr, op: str, postfix: bool) -> Tuple[
        ir.Operand, ct.CType
    ]:
        location = self._lower_lvalue(target)
        current, t = self._load_location_or_reg(location)
        t = self.resolve(t)
        step = 1
        op_type = t
        if isinstance(ct.decay(t), ct.PointerType):
            step = max(1, self.resolve(ct.decay(t).pointee).sizeof())
        elif t.is_integer():
            # ++/-- compute in the promoted type and narrow on the store.
            op_type = ct.integer_promote(t)
            current = self._convert(current, t, op_type)
        is_float = self._is_float(t)
        bits, unsigned = self._width(op_type)
        current_reg = self._to_reg(current, is_float)
        if (
            postfix
            and isinstance(location, _RegisterLocation)
            and current_reg == location.reg
        ):
            # x++ must yield the ORIGINAL value: for a register-promoted
            # variable the store below overwrites the vreg we would return,
            # so save a copy first.
            saved = self.ir.new_vreg(is_float, current_reg.bits, current_reg.unsigned)
            self.ir.emit(ir.IRMove(saved, current_reg))
            current_reg = saved
        updated = self.ir.new_vreg(is_float, bits, unsigned)
        self.ir.emit(
            ir.IRBinOp(
                "add" if op == "++" else "sub", updated, current_reg, step,
                is_float, unsigned, bits,
            )
        )
        self._store_location(location, updated, op_type)
        if postfix:
            return current_reg, t
        # The value of ++x is the updated value converted back to x's type.
        return self._convert(updated, op_type, t), t

    def _lower_assignment(self, expr: ast.Assignment) -> Tuple[ir.Operand, ct.CType]:
        location = self._lower_lvalue(expr.target)
        target_type = self.resolve(
            location.type if isinstance(
                location, (_RegisterLocation, _MemoryLocation)
            ) else ct.INT
        )
        if expr.op == "=":
            value, vtype = self._lower_expr(expr.value)
            # The value of the assignment expression is the stored value,
            # i.e. the RHS *after* conversion to the target's type.
            converted = self._convert(value, vtype, target_type)
            self._store_location(location, converted, target_type)
            return converted, target_type

        # Compound assignment: load-modify-store.  The operation happens in
        # the same type a standalone ``x op y`` would use (the usual
        # arithmetic conversions; promoted left type for shifts) and the
        # result is converted back to the target's type by the store.
        current, _ = self._load_location_or_reg(location)
        value, vtype = self._lower_expr(expr.value)
        vtype = ct.decay(self.resolve(vtype))
        op = expr.op[:-1]
        decayed = ct.decay(target_type)
        if isinstance(decayed, ct.PointerType) and op in ("+", "-"):
            op_type: ct.CType = decayed
            value = self._scale(value, max(1, self.resolve(decayed.pointee).sizeof()))
        elif op in ("<<", ">>") and target_type.is_integer():
            op_type = ct.integer_promote(target_type)
            current = self._convert(current, target_type, op_type)
        else:
            op_type = ct.usual_arithmetic_conversion(
                ct.integer_promote(target_type)
                if target_type.is_arithmetic()
                else target_type,
                ct.integer_promote(vtype) if vtype.is_arithmetic() else vtype,
            )
            current = self._convert(current, target_type, op_type)
            value = self._convert(value, vtype, op_type)
        is_float = self._is_float(op_type)
        bits, unsigned = self._width(op_type)
        dst = self.ir.new_vreg(is_float, bits, unsigned)
        self.ir.emit(
            ir.IRBinOp(
                self._BINOP_MAP[op], dst, self._to_reg(current, is_float), value,
                is_float, unsigned, bits,
            )
        )
        self._store_location(location, dst, op_type)
        return self._convert(dst, op_type, target_type), target_type

    def _lower_conditional(self, expr: ast.Conditional) -> Tuple[ir.Operand, ct.CType]:
        then_label = self.ir.new_label("Lt")
        else_label = self.ir.new_label("Lf")
        end_label = self.ir.new_label("Lend")
        cond, _ = self._lower_expr(expr.cond)
        self.ir.emit(ir.IRBranch(self._to_reg(cond), then_label, else_label))
        self.ir.emit(ir.IRLabel(then_label))
        then_value, then_type = self._lower_expr(expr.then)
        # Both branches convert to the conditional's common type — the one
        # the checker annotated (usual arithmetic conversions).  Falling
        # back to the then-branch type keeps unannotated ASTs working.
        result_type = then_type
        if expr.ctype is not None:
            annotated = self.resolve(expr.ctype)
            if annotated.is_arithmetic() or isinstance(annotated, ct.PointerType):
                result_type = annotated
        is_float = self._is_float(result_type)
        bits, unsigned = self._width(result_type)
        result = self.ir.new_vreg(is_float, bits, unsigned)
        self.ir.emit(
            ir.IRMove(result, self._convert(then_value, then_type, result_type))
        )
        self.ir.emit(ir.IRJump(end_label))
        self.ir.emit(ir.IRLabel(else_label))
        else_value, else_type = self._lower_expr(expr.otherwise)
        self.ir.emit(
            ir.IRMove(result, self._convert(else_value, else_type, result_type))
        )
        self.ir.emit(ir.IRLabel(end_label))
        return result, result_type

    def _lower_call(self, expr: ast.Call) -> Tuple[ir.Operand, ct.CType]:
        if not isinstance(expr.func, ast.Identifier):
            raise LoweringError("indirect calls are not supported")
        name = expr.func.name
        ftype = self.functions.get(name)
        return_type = self.resolve(ftype.return_type) if ftype is not None else ct.INT
        args: List[ir.Operand] = []
        for index, arg in enumerate(expr.args):
            value, vtype = self._lower_expr(arg)
            if ftype is not None and index < len(ftype.param_types):
                value = self._convert(
                    value, vtype, ct.decay(self.resolve(ftype.param_types[index]))
                )
            args.append(value)
        if ct.is_void(return_type):
            self.ir.emit(ir.IRCall(None, name, args))
            return 0, ct.VOID
        is_float = self._is_float(return_type)
        bits, unsigned = self._width(return_type)
        dst = self.ir.new_vreg(is_float, bits, unsigned)
        self.ir.emit(ir.IRCall(dst, name, args, is_float))
        return dst, return_type


#: Lowering dispatch, keyed by the node's exact class (one dict lookup per
#: node instead of an isinstance chain, as in the interpreter).  A class with
#: no entry raises ``LoweringError("cannot lower statement/expression ...")``.
_STMT_DISPATCH = {
    ast.Block: Lowerer._lower_block,
    ast.Declaration: Lowerer._lower_declaration,
    ast.ExprStmt: Lowerer._lower_expr_stmt,
    ast.If: Lowerer._lower_if,
    ast.While: Lowerer._lower_while,
    ast.DoWhile: Lowerer._lower_do_while,
    ast.For: Lowerer._lower_for,
    ast.Return: Lowerer._lower_return,
    ast.Break: Lowerer._lower_break,
    ast.Continue: Lowerer._lower_continue,
    ast.EmptyStmt: Lowerer._lower_empty,
}

_EXPR_DISPATCH = {
    ast.IntLiteral: Lowerer._lower_int_literal,
    ast.FloatLiteral: Lowerer._lower_float_literal,
    ast.CharLiteral: Lowerer._lower_char_literal,
    ast.StringLiteral: Lowerer._lower_string_literal,
    ast.Identifier: Lowerer._lower_identifier,
    ast.BinaryOp: Lowerer._lower_binary,
    ast.UnaryOp: Lowerer._lower_unary,
    ast.PostfixOp: Lowerer._lower_postfix,
    ast.Assignment: Lowerer._lower_assignment,
    ast.Conditional: Lowerer._lower_conditional,
    ast.Call: Lowerer._lower_call,
    ast.Index: Lowerer._lower_access,
    ast.Member: Lowerer._lower_access,
    ast.Cast: Lowerer._lower_cast,
    ast.SizeOf: Lowerer._lower_sizeof,
}
