"""Typed-invariant verifier for the Mini-C compiler IR.

The IR carries a representation invariant (see :class:`repro.compiler.ir.VReg`):
an integer register always holds the 64-bit sign-extension (signed) or
zero-extension (unsigned) of its ``bits``-wide value.  Lowering maintains it
with explicit ``sext*``/``zext*`` casts and every -O3 pass must preserve it —
a dropped re-extension is exactly the kind of bug that otherwise surfaces only
as a differential-fuzz needle thousands of cases later.

:func:`verify_function` checks, per instruction:

* every virtual register is defined (by a parameter or an earlier
  instruction) before it is used, with a consistent annotation;
* ``IRBinOp``/``IRCmp``/``IRUnary`` operands are *representable* at the
  instruction's ``(bits, unsigned)`` — an operand annotated wider than the
  operation means a narrowing cast was dropped, an equal-width operand with
  the opposite signedness means a re-extension was dropped (the shift count
  operand is exempt: the semantics mask it, so lowering passes it raw);
* ``IRCast`` destinations match the cast kind's ``(bits, unsigned)`` from
  :data:`repro.compiler.ir.WIDTH_CASTS` and float/int register classes are
  used consistently everywhere;
* integer constants are already wrapped into the width they are used at;
* branch/jump targets resolve to labels defined exactly once, frame
  addresses name real slots, call arity is consistent across call sites,
  and control cannot fall off the end of the function.

Diagnostics carry the optimisation pass after which the invariant broke
(``pass_name``), so a future opt bug reads ``after local_fold_and_propagate[1]``
instead of "the fuzzer found a divergence".

CLI (the IR is ISA-independent — both backends emit from the same
instruction list — so one run covers x86 and arm)::

    python -m repro.analysis.verifier --seed 0 --count 500
    python -m repro.analysis.verifier --seed 0 --count 500 --opt-levels O0,O3
    python -m repro.analysis.verifier path/to/file.c
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import ir
from repro.lang import ctypes as ct

#: Callees the dialect treats as variadic: call sites legitimately disagree
#: on argument counts, so cross-site arity consistency is not checked.
VARIADIC_CALLEES = frozenset(
    {"printf", "fprintf", "sprintf", "snprintf", "scanf", "sscanf"}
)

#: Non-width IRCast kinds (width casts live in ir.WIDTH_CASTS).
_CLASS_CASTS = ("i2f", "f2i", "f2f")

_BIN_OPS = frozenset(ir.BIN_OPS)

_CMP_OPS = frozenset(ir.CMP_OPS)

_UNARY_OPS = frozenset({"neg", "not"})

_LOAD_STORE_SIZES = frozenset({1, 2, 4, 8})


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation, attributed to the pass that introduced it."""

    function: str
    pass_name: str
    index: int  # instruction index, -1 for function-level findings
    message: str
    instr: str = ""

    def __str__(self) -> str:
        where = f"{self.function} after {self.pass_name}"
        if self.index >= 0:
            where += f", instr #{self.index}"
        text = f"[ir-verifier] {where}: {self.message}"
        if self.instr:
            text += f"   <{self.instr}>"
        return text


class IRVerificationError(Exception):
    """Raised by :func:`verify_function_or_raise` when the IR is broken."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics: List[Diagnostic] = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))

    @property
    def pass_name(self) -> str:
        return self.diagnostics[0].pass_name if self.diagnostics else "unknown"


def verify_function(
    func: ir.IRFunction,
    pass_name: str = "lowering",
    signatures: Optional[Dict[str, int]] = None,
) -> List[Diagnostic]:
    """Check every invariant on ``func`` and return the violations found.

    ``signatures`` optionally maps callee names to their parameter counts;
    the verified function's own name is always checked against its actual
    parameter list.
    """
    return _FunctionVerifier(func, pass_name, signatures or {}).run()


def verify_function_or_raise(
    func: ir.IRFunction,
    pass_name: str = "lowering",
    signatures: Optional[Dict[str, int]] = None,
) -> None:
    diagnostics = verify_function(func, pass_name, signatures)
    if diagnostics:
        raise IRVerificationError(diagnostics)


def _const_fits(value: int, bits: int, unsigned: bool) -> bool:
    """Is an integer immediate already wrapped into the width it is used at?"""
    if bits >= 64:
        return -(1 << 63) <= value < (1 << 64)
    return ct.int_type_for_bits(bits, unsigned).wrap(value) == value


def _operand_representable(reg: ir.VReg, bits: int, unsigned: bool) -> bool:
    """Is ``reg``'s 64-bit extension also a valid extension at (bits, unsigned)?

    Mirrors the no-op cases of lowering's ``_narrow``: at 64 bits any integer
    register is acceptable (no representation change happens at full width);
    below that, a wider register means a dropped narrowing cast, an
    equal-width register must agree on signedness, and a narrower register is
    only acceptable when its extension is reusable (unsigned source, or
    signed source feeding a signed operation).
    """
    if bits >= 64:
        return True
    if reg.bits > bits:
        return False
    if reg.bits == bits:
        return reg.unsigned == unsigned
    return reg.unsigned or not unsigned


class _FunctionVerifier:
    def __init__(
        self, func: ir.IRFunction, pass_name: str, signatures: Dict[str, int]
    ) -> None:
        self.func = func
        self.pass_name = pass_name
        self.signatures = dict(signatures)
        self.diagnostics: List[Diagnostic] = []
        self.labels: Dict[str, int] = {}
        # id -> the VReg value it was defined with (annotation consistency).
        self.defined: Dict[int, ir.VReg] = {}
        self.arities: Dict[str, Tuple[int, int]] = {}  # name -> (argc, index)
        # id -> known immediate for registers materialised by IRConst.
        # Lowering emits constants into default 64-bit registers (the wrapped
        # value's 64-bit pattern is simultaneously a valid narrow extension),
        # so operand checks judge a constant-valued register by its value,
        # not its annotation.
        self.const_values: Dict[int, Optional[int]] = {}

    # -- reporting ----------------------------------------------------------

    def report(self, index: int, instr: Optional[ir.IRInstr], message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                self.func.name,
                self.pass_name,
                index,
                message,
                str(instr) if instr is not None else "",
            )
        )

    # -- driver -------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        self._collect_labels()
        for param in self.func.params:
            self._define_param(param)
        defined = self.defined
        const_values = self.const_values
        checks = _CHECKS
        for index, instr in enumerate(self.func.instrs):
            for reg in instr.uses():
                seen = defined.get(reg.id)
                # Lowering hands the same VReg object to every use, so the
                # identity test settles almost every register without ``==``.
                if seen is not reg:
                    self._check_use(index, instr, reg, seen)
            check = checks.get(instr.__class__)
            if check is None:
                self.report(index, instr, f"unknown instruction {type(instr).__name__}")
            else:
                check(self, index, instr)
            for dst in instr.defs():
                seen = defined.get(dst.id)
                if seen is not None and seen is not dst:
                    self._check_redefinition(index, instr, dst, seen)
                defined[dst.id] = dst
                if instr.__class__ is ir.IRConst and isinstance(instr.value, int):
                    const_values[dst.id] = instr.value
                else:
                    const_values[dst.id] = None
        self._check_terminator()
        return self.diagnostics

    def _define_param(self, reg: ir.VReg) -> None:
        seen = self.defined.get(reg.id)
        if seen is not None:
            self._check_redefinition(-1, None, reg, seen)
        self.defined[reg.id] = reg

    def _check_redefinition(
        self,
        index: int,
        instr: Optional[ir.IRInstr],
        reg: ir.VReg,
        seen: ir.VReg,
    ) -> None:
        if seen != reg:
            self.report(
                index,
                instr,
                f"register %{'f' if reg.is_float else 'v'}{reg.id} redefined with "
                f"annotation (float={reg.is_float}, bits={reg.bits}, "
                f"unsigned={reg.unsigned}); originally (float={seen.is_float}, "
                f"bits={seen.bits}, unsigned={seen.unsigned})",
            )

    # -- structural checks --------------------------------------------------

    def _collect_labels(self) -> None:
        for index, instr in enumerate(self.func.instrs):
            if instr.__class__ is ir.IRLabel:
                if instr.name in self.labels:
                    self.report(
                        index,
                        instr,
                        f"label {instr.name} defined more than once "
                        f"(first at instr #{self.labels[instr.name]})",
                    )
                else:
                    self.labels[instr.name] = index

    def _check_use(
        self,
        index: int,
        instr: ir.IRInstr,
        reg: ir.VReg,
        seen: Optional[ir.VReg],
    ) -> None:
        """Report a use of ``reg`` whose definition ``seen`` is missing or
        carries another annotation."""
        if seen is None:
            self.report(index, instr, f"use of undefined register {reg}")
        elif seen != reg:
            self.report(
                index,
                instr,
                f"register {reg} used with annotation (float={reg.is_float}, "
                f"bits={reg.bits}, unsigned={reg.unsigned}) but defined with "
                f"(float={seen.is_float}, bits={seen.bits}, "
                f"unsigned={seen.unsigned})",
            )

    def _check_target(self, index: int, instr: ir.IRInstr, target: str) -> None:
        if target not in self.labels:
            self.report(index, instr, f"branch target {target} is not a label")

    def _check_terminator(self) -> None:
        instrs = self.func.instrs
        if not instrs:
            self.report(-1, None, "function has an empty body")
            return
        last = instrs[-1]
        if not isinstance(last, (ir.IRRet, ir.IRJump, ir.IRBranch)):
            self.report(
                len(instrs) - 1,
                last,
                "control falls off the end of the function "
                "(last instruction is not ret/jmp/br)",
            )

    # -- operand typing -----------------------------------------------------

    def _check_int_operand(
        self,
        index: int,
        instr: ir.IRInstr,
        operand: ir.Operand,
        bits: int,
        unsigned: bool,
        what: str,
    ) -> None:
        if operand.__class__ is ir.VReg:
            if operand.is_float:
                self.report(
                    index, instr, f"{what} is a float register in an integer op"
                )
                return
            known = self.const_values.get(operand.id)
            if known is not None:
                if not _const_fits(known, bits, unsigned):
                    self.report(
                        index,
                        instr,
                        f"{what} {operand} holds immediate {known}, which is "
                        f"not wrapped at (bits={bits}, unsigned={unsigned})",
                    )
            elif bits < 64 and not _operand_representable(operand, bits, unsigned):
                kind = (
                    "missing narrowing cast"
                    if operand.bits > bits
                    else "dropped re-extension (signedness mismatch)"
                )
                self.report(
                    index,
                    instr,
                    f"{what} {operand} (bits={operand.bits}, "
                    f"unsigned={operand.unsigned}) is not representable at the "
                    f"op's width (bits={bits}, unsigned={unsigned}): {kind}",
                )
        elif isinstance(operand, float):
            self.report(index, instr, f"{what} is a float constant in an integer op")
        elif not _const_fits(operand, bits, unsigned):
            self.report(
                index,
                instr,
                f"{what} constant {operand} is not wrapped at "
                f"(bits={bits}, unsigned={unsigned})",
            )

    def _check_float_operand(
        self, index: int, instr: ir.IRInstr, operand: ir.Operand, what: str
    ) -> None:
        if isinstance(operand, ir.VReg) and not operand.is_float:
            self.report(
                index, instr, f"{what} is an integer register in a float op"
            )

    def _check_shift_count(
        self, index: int, instr: ir.IRInstr, operand: ir.Operand
    ) -> None:
        # The shift count is masked by the width at execution time, so
        # lowering passes it unconverted: only the register class matters.
        if isinstance(operand, ir.VReg):
            if operand.is_float:
                self.report(index, instr, "shift count is a float register")
        elif isinstance(operand, float):
            self.report(index, instr, "shift count is a float constant")

    # -- per-instruction checks ---------------------------------------------

    def _check_frame_addr(self, index: int, instr: ir.IRFrameAddr) -> None:
        if instr.slot not in self.func.slots:
            self.report(index, instr, f"frameaddr of unknown slot {instr.slot!r}")
        self._check_address_dst(index, instr, instr.dst)

    def _check_global_addr(self, index: int, instr: ir.IRGlobalAddr) -> None:
        self._check_address_dst(index, instr, instr.dst)

    def _check_jump(self, index: int, instr: ir.IRJump) -> None:
        self._check_target(index, instr, instr.target)

    def _check_branch(self, index: int, instr: ir.IRBranch) -> None:
        self._check_target(index, instr, instr.true_target)
        self._check_target(index, instr, instr.false_target)
        if instr.cond.is_float:
            self.report(index, instr, "branch condition is a float register")

    def _check_label(self, index: int, instr: ir.IRLabel) -> None:
        """Labels are checked once, up front, by :meth:`_collect_labels`."""

    def _check_address_dst(
        self, index: int, instr: ir.IRInstr, dst: ir.VReg
    ) -> None:
        if dst.is_float:
            self.report(index, instr, "address computed into a float register")
        elif dst.bits != 64:
            self.report(
                index, instr, f"address register annotated {dst.bits}-bit (want 64)"
            )

    def _check_const(self, index: int, instr: ir.IRConst) -> None:
        if instr.dst.is_float:
            return  # any numeric immediate is fine in the FP class
        if isinstance(instr.value, float):
            self.report(index, instr, "float immediate into an integer register")
        elif not _const_fits(instr.value, instr.dst.bits, instr.dst.unsigned):
            self.report(
                index,
                instr,
                f"immediate {instr.value} is not wrapped at the destination's "
                f"annotation (bits={instr.dst.bits}, unsigned={instr.dst.unsigned})",
            )

    def _check_move(self, index: int, instr: ir.IRMove) -> None:
        if instr.dst.is_float:
            self._check_float_operand(index, instr, instr.src, "move source")
            return
        self._check_int_operand(
            index, instr, instr.src, instr.dst.bits, instr.dst.unsigned, "move source"
        )

    def _check_binop(self, index: int, instr: ir.IRBinOp) -> None:
        if instr.op not in _BIN_OPS:
            self.report(index, instr, f"unknown binary op {instr.op!r}")
            return
        if instr.is_float:
            if not instr.dst.is_float:
                self.report(index, instr, "float op into an integer register")
            self._check_float_operand(index, instr, instr.left, "left operand")
            self._check_float_operand(index, instr, instr.right, "right operand")
            return
        if instr.dst.is_float:
            self.report(index, instr, "integer op into a float register")
        elif (instr.dst.bits, instr.dst.unsigned) != (instr.bits, instr.unsigned):
            self.report(
                index,
                instr,
                f"result register annotated (bits={instr.dst.bits}, "
                f"unsigned={instr.dst.unsigned}) but the op computes at "
                f"(bits={instr.bits}, unsigned={instr.unsigned})",
            )
        self._check_int_operand(
            index, instr, instr.left, instr.bits, instr.unsigned, "left operand"
        )
        if instr.op in ("shl", "shr"):
            self._check_shift_count(index, instr, instr.right)
        else:
            self._check_int_operand(
                index, instr, instr.right, instr.bits, instr.unsigned, "right operand"
            )

    def _check_cmp(self, index: int, instr: ir.IRCmp) -> None:
        if instr.op not in _CMP_OPS:
            self.report(index, instr, f"unknown comparison op {instr.op!r}")
            return
        if instr.dst.is_float:
            self.report(index, instr, "comparison result in a float register")
        if instr.is_float:
            self._check_float_operand(index, instr, instr.left, "left operand")
            self._check_float_operand(index, instr, instr.right, "right operand")
            return
        self._check_int_operand(
            index, instr, instr.left, instr.bits, instr.unsigned, "left operand"
        )
        self._check_int_operand(
            index, instr, instr.right, instr.bits, instr.unsigned, "right operand"
        )

    def _check_unary(self, index: int, instr: ir.IRUnary) -> None:
        if instr.op not in _UNARY_OPS:
            self.report(index, instr, f"unknown unary op {instr.op!r}")
            return
        if instr.is_float:
            if not instr.dst.is_float:
                self.report(index, instr, "float op into an integer register")
            self._check_float_operand(index, instr, instr.src, "operand")
            return
        if instr.dst.is_float:
            self.report(index, instr, "integer op into a float register")
        elif (instr.dst.bits, instr.dst.unsigned) != (instr.bits, instr.unsigned):
            self.report(
                index,
                instr,
                f"result register annotated (bits={instr.dst.bits}, "
                f"unsigned={instr.dst.unsigned}) but the op computes at "
                f"(bits={instr.bits}, unsigned={instr.unsigned})",
            )
        self._check_int_operand(
            index, instr, instr.src, instr.bits, instr.unsigned, "operand"
        )

    def _check_cast(self, index: int, instr: ir.IRCast) -> None:
        width = ir.WIDTH_CASTS.get(instr.kind)
        if width is not None:
            bits, unsigned = width
            if instr.dst.is_float:
                self.report(index, instr, "width cast into a float register")
            elif (instr.dst.bits, instr.dst.unsigned) != (bits, unsigned):
                self.report(
                    index,
                    instr,
                    f"{instr.kind} destination annotated (bits={instr.dst.bits}, "
                    f"unsigned={instr.dst.unsigned}); the cast produces "
                    f"(bits={bits}, unsigned={unsigned})",
                )
            if isinstance(instr.src, ir.VReg) and instr.src.is_float:
                self.report(index, instr, "width cast of a float register")
            elif isinstance(instr.src, float):
                self.report(index, instr, "width cast of a float constant")
            return
        if instr.kind == "i2f":
            if not instr.dst.is_float:
                self.report(index, instr, "i2f into an integer register")
            if isinstance(instr.src, ir.VReg) and instr.src.is_float:
                self.report(index, instr, "i2f of a float register")
        elif instr.kind == "f2i":
            if instr.dst.is_float:
                self.report(index, instr, "f2i into a float register")
            self._check_float_operand(index, instr, instr.src, "f2i source")
        elif instr.kind == "f2f":
            if not instr.dst.is_float:
                self.report(index, instr, "f2f into an integer register")
            self._check_float_operand(index, instr, instr.src, "f2f source")
        else:
            self.report(index, instr, f"unknown cast kind {instr.kind!r}")

    def _check_load(self, index: int, instr: ir.IRLoad) -> None:
        if instr.size not in _LOAD_STORE_SIZES:
            self.report(index, instr, f"load of unsupported size {instr.size}")
            return
        if instr.addr.is_float:
            self.report(index, instr, "load address in a float register")
        if instr.is_float:
            if not instr.dst.is_float:
                self.report(index, instr, "float load into an integer register")
            return
        if instr.dst.is_float:
            self.report(index, instr, "integer load into a float register")
            return
        if instr.size == 8:
            if instr.dst.bits != 64:
                self.report(
                    index,
                    instr,
                    f"8-byte load annotated {instr.dst.bits}-bit (want 64)",
                )
        else:
            expected = (8 * instr.size, not instr.signed)
            if (instr.dst.bits, instr.dst.unsigned) != expected:
                self.report(
                    index,
                    instr,
                    f"load{instr.size} (signed={instr.signed}) destination "
                    f"annotated (bits={instr.dst.bits}, "
                    f"unsigned={instr.dst.unsigned}); the extending load "
                    f"produces (bits={expected[0]}, unsigned={expected[1]})",
                )

    def _check_store(self, index: int, instr: ir.IRStore) -> None:
        if instr.size not in _LOAD_STORE_SIZES:
            self.report(index, instr, f"store of unsupported size {instr.size}")
            return
        if instr.addr.is_float:
            self.report(index, instr, "store address in a float register")
        if instr.is_float:
            self._check_float_operand(index, instr, instr.src, "store source")
        elif isinstance(instr.src, ir.VReg) and instr.src.is_float:
            self.report(index, instr, "float register in an integer store")
        elif isinstance(instr.src, float):
            self.report(index, instr, "float constant in an integer store")
        elif isinstance(instr.src, int) and not _const_fits(instr.src, 64, False):
            self.report(index, instr, f"store immediate {instr.src} out of range")

    def _check_call(self, index: int, instr: ir.IRCall) -> None:
        if instr.dst is not None and instr.dst.is_float != instr.float_ret:
            self.report(
                index,
                instr,
                f"call result register class (float={instr.dst.is_float}) "
                f"disagrees with float_ret={instr.float_ret}",
            )
        argc = len(instr.args)
        if instr.name == self.func.name:
            if argc != len(self.func.params):
                self.report(
                    index,
                    instr,
                    f"recursive call passes {argc} argument(s); "
                    f"{self.func.name} takes {len(self.func.params)}",
                )
            return
        if instr.name in VARIADIC_CALLEES:
            return
        expected = self.signatures.get(instr.name)
        if expected is not None:
            if argc != expected:
                self.report(
                    index,
                    instr,
                    f"call passes {argc} argument(s); "
                    f"{instr.name} takes {expected}",
                )
            return
        seen = self.arities.get(instr.name)
        if seen is None:
            self.arities[instr.name] = (argc, index)
        elif seen[0] != argc:
            self.report(
                index,
                instr,
                f"call passes {argc} argument(s); an earlier call site "
                f"(instr #{seen[1]}) passed {seen[0]}",
            )

    def _check_ret(self, index: int, instr: ir.IRRet) -> None:
        if instr.value is None:
            return
        if instr.is_float != self.func.returns_float:
            self.report(
                index,
                instr,
                f"ret is_float={instr.is_float} disagrees with the function's "
                f"returns_float={self.func.returns_float}",
            )
        if instr.is_float:
            self._check_float_operand(index, instr, instr.value, "return value")
        elif isinstance(instr.value, ir.VReg) and instr.value.is_float:
            self.report(
                index, instr, "float register returned from an integer function"
            )


#: Per-instruction checks, keyed by the instruction's exact class (one dict
#: lookup per instruction instead of an isinstance chain).  A class with no
#: entry gets the ``unknown instruction`` diagnostic.
_CHECKS = {
    ir.IRConst: _FunctionVerifier._check_const,
    ir.IRMove: _FunctionVerifier._check_move,
    ir.IRBinOp: _FunctionVerifier._check_binop,
    ir.IRCmp: _FunctionVerifier._check_cmp,
    ir.IRUnary: _FunctionVerifier._check_unary,
    ir.IRCast: _FunctionVerifier._check_cast,
    ir.IRLoad: _FunctionVerifier._check_load,
    ir.IRStore: _FunctionVerifier._check_store,
    ir.IRFrameAddr: _FunctionVerifier._check_frame_addr,
    ir.IRGlobalAddr: _FunctionVerifier._check_global_addr,
    ir.IRCall: _FunctionVerifier._check_call,
    ir.IRJump: _FunctionVerifier._check_jump,
    ir.IRBranch: _FunctionVerifier._check_branch,
    ir.IRRet: _FunctionVerifier._check_ret,
    ir.IRLabel: _FunctionVerifier._check_label,
}


# ---------------------------------------------------------------------------
# Standalone CLI
# ---------------------------------------------------------------------------


def _verify_program_source(
    source: str,
    opt_levels: Sequence[str],
    label: str,
    name: Optional[str] = None,
    verbose: bool = False,
) -> List[str]:
    """Lower ``source`` at each opt level with verification on; return failures."""
    # Import the canonical error class from the package: when this module
    # runs as ``python -m`` it executes as ``__main__`` and the module-level
    # ``IRVerificationError`` would be a different class object from the one
    # the driver raises.
    from repro.analysis.verifier import IRVerificationError as VerifierError
    from repro.compiler.driver import lower_for_backend
    from repro.lang.parser import parse_program
    from repro.lang.typecheck import TypeChecker

    program = parse_program(source)
    checker = TypeChecker(program)
    checker.check()
    failures: List[str] = []
    names = [f.name for f in program.functions()] if name is None else [name]
    for func_name in names:
        for opt_level in opt_levels:
            try:
                lower_for_backend(
                    program,
                    name=func_name,
                    opt_level=opt_level,
                    checker=checker,
                    verify_ir=True,
                )
            except VerifierError as exc:
                for diagnostic in exc.diagnostics:
                    failures.append(f"{label} [{opt_level}] {diagnostic}")
            else:
                if verbose:
                    print(f"  {label} {func_name} [{opt_level}]: ok")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.verifier",
        description="Verify IR invariants over generated programs or source files. "
        "The IR is ISA-independent (both backends emit from the same "
        "instruction list), so one run covers x86 and arm.",
    )
    parser.add_argument(
        "sources", nargs="*", help="Mini-C source files (default: seeded corpus)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base corpus seed")
    parser.add_argument(
        "--count", type=int, default=500, help="number of generated programs"
    )
    parser.add_argument(
        "--max-stmts", type=int, default=12, help="statement budget per program"
    )
    parser.add_argument(
        "--opt-levels",
        default="O0,O3",
        help="comma-separated opt levels to verify (default O0,O3)",
    )
    parser.add_argument("--verbose", action="store_true", help="print per-case status")
    args = parser.parse_args(argv)

    opt_levels = [
        level.strip() for level in args.opt_levels.split(",") if level.strip()
    ]
    failures: List[str] = []
    checked = 0

    if args.sources:
        from pathlib import Path

        for path in args.sources:
            source = Path(path).read_text()
            failures.extend(
                _verify_program_source(source, opt_levels, path, verbose=args.verbose)
            )
            checked += 1
    else:
        from repro.testing.fuzz import case_seed
        from repro.testing.generator import ProgramGenerator

        for index in range(args.count):
            seed = case_seed(args.seed, index)
            case = ProgramGenerator(seed, max_stmts=args.max_stmts).generate()
            case_failures = _verify_program_source(
                case.source,
                opt_levels,
                f"case {index} (seed {seed})",
                name=case.name,
                verbose=args.verbose,
            )
            if case_failures:
                failures.extend(case_failures)
                print(f"case {index} (seed {seed}) FAILS verification:")
                for line in case_failures:
                    print(f"  {line}")
                print(case.source)
            checked += 1
            if not args.verbose and checked % 100 == 0:
                print(
                    f"  {checked}/"
                    f"{args.count if not args.sources else checked} verified"
                )

    if failures:
        print(
            f"\n{len(failures)} violation(s) across {checked} program(s) "
            f"at {'/'.join(opt_levels)}"
        )
        return 1
    print(
        f"\nall {checked} program(s) verify clean at {'/'.join(opt_levels)} "
        f"({len(opt_levels)} lowering(s) each; IR shared by both backends)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
