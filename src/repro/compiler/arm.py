"""AArch64 backend for the Mini-C compiler.

Mirrors :mod:`repro.compiler.x86` with the AAPCS64 conventions: operands are
materialised in instruction-local scratch registers, operated on and written
back to the destination's assigned location.  At -O0 everything lives in the
stack frame; at -O3 the linear-scan allocator hands out callee-saved
registers so values survive calls.

Register usage:

* ``x9``/``x10``/``x11`` are instruction-local integer scratch registers,
  ``x17`` is reserved for literal-pool and global addressing.
* ``d16``/``d17`` are instruction-local FP scratch registers.
* ``x19``–``x28`` are the allocatable integer registers (callee-saved).
* ``d8``–``d15`` are the allocatable FP registers (callee-saved low halves).

The frame is addressed off ``sp`` (positive offsets), with ``x29``/``x30``
saved by an initial ``stp`` so incoming stack arguments sit at ``x29 + 16``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import ir
from repro.compiler.regalloc import Allocation

_INT_ARGS = tuple(f"x{i}" for i in range(8))
_FLOAT_ARGS = tuple(f"d{i}" for i in range(8))

_CC_SIGNED = {"eq": "eq", "ne": "ne", "lt": "lt", "le": "le", "gt": "gt", "ge": "ge"}
_CC_UNSIGNED = {"eq": "eq", "ne": "ne", "lt": "lo", "le": "ls", "gt": "hi", "ge": "hs"}
#: fcmp condition codes (mi/ls are the unordered-safe forms GCC uses).
_CC_FLOAT = {"eq": "eq", "ne": "ne", "lt": "mi", "le": "ls", "gt": "gt", "ge": "ge"}


#: (size, unsigned) -> the load that refills a narrow spill slot with the
#: value's own extension (unsigned loads target the ``w`` register).
_SPILL_LOADS = {
    (1, False): "ldrsb", (1, True): "ldrb",
    (2, False): "ldrsh", (2, True): "ldrh",
    (4, False): "ldrsw", (4, True): "ldr",
}
#: size -> the store of that many bytes.
_STORES = {1: "strb", 2: "strh", 4: "str", 8: "str"}


def _w(reg: str) -> str:
    """The 32-bit view of an ``x`` register (``x9`` -> ``w9``)."""
    return "w" + reg[1:]


def _escape_string(text: str) -> str:
    out = []
    for ch in text:
        code = ord(ch)
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif 32 <= code < 127:
            out.append(ch)
        else:
            out.append(f"\\{code & 0xFF:03o}")
    return "".join(out)


class ArmBackend:
    """Backend descriptor handed to the driver."""

    name = "arm"
    INT_ALLOCATABLE: Sequence[str] = tuple(f"x{i}" for i in range(19, 29))
    FLOAT_ALLOCATABLE: Sequence[str] = tuple(f"d{i}" for i in range(8, 16))

    def int_registers(self, opt_level: str) -> List[str]:
        return list(self.INT_ALLOCATABLE) if opt_level == "O3" else []

    def float_registers(self, opt_level: str) -> List[str]:
        return list(self.FLOAT_ALLOCATABLE) if opt_level == "O3" else []

    def emit_function(
        self,
        func: ir.IRFunction,
        allocation: Allocation,
        string_literals: Dict[str, str],
        global_sizes: Dict[str, int],
        global_inits: Optional[Dict[str, ir.GlobalInit]] = None,
    ) -> str:
        return _Emitter(
            func, allocation, string_literals, global_sizes, global_inits
        ).emit()


class _Emitter:
    def __init__(
        self,
        func: ir.IRFunction,
        allocation: Allocation,
        string_literals: Dict[str, str],
        global_sizes: Dict[str, int],
        global_inits: Optional[Dict[str, ir.GlobalInit]] = None,
    ) -> None:
        self.func = func
        self.string_literals = string_literals
        self.global_sizes = global_sizes
        self.global_inits = global_inits or {}
        self.body: List[str] = []
        self.float_pool: Dict[int, str] = {}
        self.used_globals: List[str] = []
        self.ret_label = f".Lret_{func.name}"
        self.saved_int = allocation.used_registers(ArmBackend.INT_ALLOCATABLE)
        self.saved_float = allocation.used_registers(ArmBackend.FLOAT_ALLOCATABLE)
        self._layout_frame()
        # vreg -> (register, None) or (None, its spill slot's memory operand):
        # the allocation's answer with the frame offset already rendered, so
        # each operand costs one dict lookup.
        self.locations: Dict[ir.VReg, Tuple[Optional[str], Optional[str]]] = {
            reg: (None, f"[sp, #{self.slot_offsets[slot]}]")
            for reg, slot in allocation.spill_slot_of.items()
        }
        self.locations.update(
            (reg, (name, None)) for reg, name in allocation.register_of.items()
        )

    # -- frame ---------------------------------------------------------------

    def _layout_frame(self) -> None:
        offset = 0
        self.slot_offsets: Dict[str, int] = {}
        for slot in self.func.slots.values():
            size = max(slot.size, 1)
            # Narrow spill slots pack at their natural alignment; anything
            # larger than a word (arrays, structs) stays 8-byte aligned.
            align = size if size in (1, 2, 4) else 8
            offset = -(-offset // align) * align
            self.slot_offsets[slot.name] = offset
            slot.offset = offset
            offset += size
        offset = (offset + 7) & ~7
        self.save_offsets: Dict[str, int] = {}
        for reg in list(self.saved_int) + list(self.saved_float):
            self.save_offsets[reg] = offset
            offset += 8
        self.frame_size = (offset + 15) & ~15

    # -- emission helpers ----------------------------------------------------

    def op(self, text: str) -> None:
        self.body.append("\t" + text)

    def label(self, name: str) -> None:
        self.body.append(f"{name}:")

    def _float_label(self, value: float) -> str:
        bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        if bits not in self.float_pool:
            self.float_pool[bits] = f".LCF{len(self.float_pool)}"
        return self.float_pool[bits]

    def _mov_imm(self, reg: str, value: int) -> None:
        if 0 <= value < (1 << 16):
            self.op(f"mov\t{reg}, #{value}")
            return
        if value < 0 and ~value < (1 << 16):
            self.op(f"movn\t{reg}, #{~value}")
            return
        bits = value & 0xFFFFFFFFFFFFFFFF
        chunks = [(bits >> shift) & 0xFFFF for shift in (0, 16, 32, 48)]
        first = True
        for position, chunk in enumerate(chunks):
            if chunk == 0:
                continue
            mnemonic = "movz" if first else "movk"
            shift = f", lsl #{16 * position}" if position else ""
            self.op(f"{mnemonic}\t{reg}, #{chunk}{shift}")
            first = False
        if first:
            self.op(f"mov\t{reg}, #0")

    def _add_imm(self, dst: str, src: str, value: int) -> None:
        """dst = src + value, handling the 12-bit immediate limit."""
        if value == 0:
            if dst != src:
                self.op(f"mov\t{dst}, {src}")
        elif 0 < value < (1 << 12):
            self.op(f"add\t{dst}, {src}, #{value}")
        elif -(1 << 12) < value < 0:
            self.op(f"sub\t{dst}, {src}, #{-value}")
        else:
            self._mov_imm("x17", value)
            self.op(f"add\t{dst}, {src}, x17")

    def _sp_adjust(self, mnemonic: str, amount: int) -> None:
        while amount > 0:
            step = min(amount, 0xFF0)
            self.op(f"{mnemonic}\tsp, sp, #{step}")
            amount -= step

    def read_int(self, operand: ir.Operand, scratch: str) -> str:
        """Materialise an integer operand in ``scratch`` and return it.

        Values in physical registers are kept fully extended; narrow spill
        slots are reloaded with the matching sign-/zero-extending load.
        """
        if operand.__class__ is ir.VReg:
            name, mem = self.locations[operand]
            if name is not None:
                if name != scratch:
                    self.op(f"mov\t{scratch}, {name}")
            else:
                size = max(1, operand.bits // 8)
                if size == 8:
                    self.op(f"ldr\t{scratch}, {mem}")
                else:
                    mnemonic = _SPILL_LOADS[(size, operand.unsigned)]
                    dest = scratch if not operand.unsigned else _w(scratch)
                    self.op(f"{mnemonic}\t{dest}, {mem}")
        else:
            self._mov_imm(scratch, int(operand))
        return scratch

    def write_int(self, scratch: str, dst: ir.VReg) -> None:
        name, mem = self.locations[dst]
        if name is not None:
            if name != scratch:
                self.op(f"mov\t{name}, {scratch}")
        else:
            size = max(1, dst.bits // 8)
            reg = scratch if size == 8 else _w(scratch)
            self.op(f"{_STORES[size]}\t{reg}, {mem}")

    def read_float(self, operand: ir.Operand, scratch: str) -> str:
        if operand.__class__ is ir.VReg:
            name, mem = self.locations[operand]
            if name is not None:
                if name != scratch:
                    self.op(f"fmov\t{scratch}, {name}")
            else:
                self.op(f"ldr\t{scratch}, {mem}")
        else:
            label = self._float_label(float(operand))
            self.op(f"adrp\tx17, {label}")
            self.op(f"ldr\t{scratch}, [x17, #:lo12:{label}]")
        return scratch

    def write_float(self, scratch: str, dst: ir.VReg) -> None:
        name, mem = self.locations[dst]
        if name is not None:
            if name != scratch:
                self.op(f"fmov\t{name}, {scratch}")
        else:
            self.op(f"str\t{scratch}, {mem}")

    def _is_float_operand(self, operand: ir.Operand) -> bool:
        if isinstance(operand, ir.VReg):
            return operand.is_float
        return isinstance(operand, float)

    # -- prologue / epilogue -------------------------------------------------

    def _emit_prologue(self) -> None:
        self.op("stp\tx29, x30, [sp, #-16]!")
        self.op("mov\tx29, sp")
        if self.frame_size:
            self._sp_adjust("sub", self.frame_size)
        for reg in self.saved_int + self.saved_float:
            self.op(f"str\t{reg}, [sp, #{self.save_offsets[reg]}]")
        int_index = 0
        float_index = 0
        stack_offset = 16
        for param in self.func.params:
            if param.is_float:
                if float_index < len(_FLOAT_ARGS):
                    src = _FLOAT_ARGS[float_index]
                    float_index += 1
                else:
                    self.op(f"ldr\td16, [x29, #{stack_offset}]")
                    stack_offset += 8
                    src = "d16"
                self.write_float(src, param)
            else:
                if int_index < len(_INT_ARGS):
                    src = _INT_ARGS[int_index]
                    int_index += 1
                else:
                    self.op(f"ldr\tx9, [x29, #{stack_offset}]")
                    stack_offset += 8
                    src = "x9"
                self.write_int(src, param)

    def _emit_epilogue(self) -> None:
        self.label(self.ret_label)
        for reg in self.saved_int + self.saved_float:
            self.op(f"ldr\t{reg}, [sp, #{self.save_offsets[reg]}]")
        if self.frame_size:
            self._sp_adjust("add", self.frame_size)
        self.op("ldp\tx29, x30, [sp], #16")
        self.op("ret")

    # -- instruction emission --------------------------------------------------

    def emit(self) -> str:
        self._emit_prologue()
        for index, instr in enumerate(self.func.instrs):
            self._emit_instr(instr, index)
        self._emit_epilogue()
        return self._assemble()

    def _next_label(self, index: int) -> str:
        nxt = self.func.instrs[index + 1] if index + 1 < len(self.func.instrs) else None
        return nxt.name if isinstance(nxt, ir.IRLabel) else ""

    def _emit_instr(self, instr: ir.IRInstr, index: int) -> None:
        handler = _EMIT_DISPATCH.get(instr.__class__)
        if handler is None:
            raise NotImplementedError(f"arm backend cannot emit {type(instr).__name__}")
        handler(self, instr, index)

    def _emit_label(self, instr: ir.IRLabel, index: int) -> None:
        self.label(instr.name)

    def _emit_const(self, instr: ir.IRConst, index: int) -> None:
        if instr.dst.is_float:
            self.write_float(self.read_float(float(instr.value), "d16"), instr.dst)
        else:
            self.write_int(self.read_int(int(instr.value), "x9"), instr.dst)

    def _emit_move(self, instr: ir.IRMove, index: int) -> None:
        if instr.dst.is_float or self._is_float_operand(instr.src):
            self.write_float(self.read_float(instr.src, "d16"), instr.dst)
        else:
            self.write_int(self.read_int(instr.src, "x9"), instr.dst)

    def _emit_frame_addr(self, instr: ir.IRFrameAddr, index: int) -> None:
        self._add_imm("x9", "sp", self.slot_offsets[instr.slot])
        self.write_int("x9", instr.dst)

    def _emit_global_addr(self, instr: ir.IRGlobalAddr, index: int) -> None:
        if (
            instr.symbol not in self.string_literals
            and instr.symbol not in self.used_globals
        ):
            self.used_globals.append(instr.symbol)
        self.op(f"adrp\tx9, {instr.symbol}")
        self.op(f"add\tx9, x9, :lo12:{instr.symbol}")
        self.write_int("x9", instr.dst)

    def _emit_jump(self, instr: ir.IRJump, index: int) -> None:
        if instr.target != self._next_label(index):
            self.op(f"b\t{instr.target}")

    def _emit_branch(self, instr: ir.IRBranch, index: int) -> None:
        self.read_int(instr.cond, "x9")
        self.op(f"cbnz\tx9, {instr.true_target}")
        if instr.false_target != self._next_label(index):
            self.op(f"b\t{instr.false_target}")

    def _emit_ret(self, instr: ir.IRRet, index: int) -> None:
        if instr.value is not None:
            if instr.is_float or self._is_float_operand(instr.value):
                self.read_float(instr.value, "d0")
            else:
                self.read_int(instr.value, "x0")
        if index != len(self.func.instrs) - 1:
            self.op(f"b\t{self.ret_label}")

    def _extend(self, scratch: str, bits: int, unsigned: bool) -> None:
        """Restore the full-width register invariant after a narrow op.

        32-bit (``w``-register) instructions already zero the upper half,
        so unsigned values need nothing; signed results get an ``sxtw``.
        """
        if bits >= 64 or unsigned:
            return
        self.op(f"sxtw\t{scratch}, {_w(scratch)}")

    def _emit_binop(self, instr: ir.IRBinOp, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.left, "d16")
            self.read_float(instr.right, "d17")
            mnemonic = {"add": "fadd", "sub": "fsub", "mul": "fmul", "div": "fdiv"}[
                instr.op
            ]
            self.op(f"{mnemonic}\td16, d16, d17")
            self.write_float("d16", instr.dst)
            return
        self.read_int(instr.left, "x9")
        self.read_int(instr.right, "x10")
        # Integer binops happen at int width or wider (C's promotions).
        wide = instr.bits > 32
        acc, rhs, tmp = ("x9", "x10", "x11") if wide else ("w9", "w10", "w11")
        if instr.op in ("add", "sub", "mul", "and", "or", "xor", "shl"):
            mnemonic = {
                "add": "add", "sub": "sub", "mul": "mul",
                "and": "and", "or": "orr", "xor": "eor", "shl": "lsl",
            }[instr.op]
            self.op(f"{mnemonic}\t{acc}, {acc}, {rhs}")
        elif instr.op == "shr":
            self.op(f"{'lsr' if instr.unsigned else 'asr'}\t{acc}, {acc}, {rhs}")
        elif instr.op == "div":
            self.op(f"{'udiv' if instr.unsigned else 'sdiv'}\t{acc}, {acc}, {rhs}")
        elif instr.op == "mod":
            self.op(f"{'udiv' if instr.unsigned else 'sdiv'}\t{tmp}, {acc}, {rhs}")
            self.op(f"msub\t{acc}, {tmp}, {rhs}, {acc}")
        else:
            raise NotImplementedError(f"arm backend cannot emit binop {instr.op!r}")
        self._extend("x9", instr.bits, instr.unsigned)
        self.write_int("x9", instr.dst)

    def _emit_cmp(self, instr: ir.IRCmp, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.left, "d16")
            self.read_float(instr.right, "d17")
            self.op("fcmp\td16, d17")
            cond = _CC_FLOAT[instr.op]
        else:
            self.read_int(instr.left, "x9")
            self.read_int(instr.right, "x10")
            if instr.bits > 32:
                self.op("cmp\tx9, x10")
            else:
                self.op("cmp\tw9, w10")
            cond = (_CC_UNSIGNED if instr.unsigned else _CC_SIGNED)[instr.op]
        self.op(f"cset\tx9, {cond}")
        self.write_int("x9", instr.dst)

    def _emit_unary(self, instr: ir.IRUnary, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.src, "d16")
            self.op("fneg\td16, d16")
            self.write_float("d16", instr.dst)
            return
        self.read_int(instr.src, "x9")
        reg = "x9" if instr.bits > 32 else "w9"
        self.op(f"neg\t{reg}, {reg}" if instr.op == "neg" else f"mvn\t{reg}, {reg}")
        self._extend("x9", instr.bits, instr.unsigned)
        self.write_int("x9", instr.dst)

    def _emit_cast(self, instr: ir.IRCast, index: int) -> None:
        if instr.kind == "i2f":
            self.read_int(instr.src, "x9")
            self.op("scvtf\td16, x9")
            self.write_float("d16", instr.dst)
        elif instr.kind == "f2i":
            self.read_float(instr.src, "d16")
            self.op("fcvtzs\tx9, d16")
            self.write_int("x9", instr.dst)
        elif instr.kind in ir.WIDTH_CASTS:
            bits, unsigned = ir.WIDTH_CASTS[instr.kind]
            self.read_int(instr.src, "x9")
            if unsigned:
                # Writing the w-register zero-extends into the full x9.
                mnemonic = {8: "uxtb", 16: "uxth", 32: "mov"}[bits]
                self.op(f"{mnemonic}\tw9, w9")
            else:
                mnemonic = {8: "sxtb", 16: "sxth", 32: "sxtw"}[bits]
                self.op(f"{mnemonic}\tx9, w9")
            self.write_int("x9", instr.dst)
        elif instr.dst.is_float:
            self.write_float(self.read_float(instr.src, "d16"), instr.dst)
        else:
            self.write_int(self.read_int(instr.src, "x9"), instr.dst)

    def _emit_load(self, instr: ir.IRLoad, index: int) -> None:
        self.read_int(instr.addr, "x10")
        if instr.offset:
            self._add_imm("x10", "x10", instr.offset)
        if instr.is_float:
            if instr.size == 4:
                self.op("ldr\ts16, [x10]")
                self.op("fcvt\td16, s16")
            else:
                self.op("ldr\td16, [x10]")
            self.write_float("d16", instr.dst)
            return
        if instr.size == 8:
            self.op("ldr\tx9, [x10]")
        elif instr.size == 4:
            self.op(
                f"{'ldrsw' if instr.signed else 'ldr'}\t"
                f"{'x9' if instr.signed else 'w9'}, [x10]"
            )
        elif instr.size == 2:
            self.op(
                f"{'ldrsh' if instr.signed else 'ldrh'}\t"
                f"{'x9' if instr.signed else 'w9'}, [x10]"
            )
        else:
            self.op(
                f"{'ldrsb' if instr.signed else 'ldrb'}\t"
                f"{'x9' if instr.signed else 'w9'}, [x10]"
            )
        self.write_int("x9", instr.dst)

    def _emit_store(self, instr: ir.IRStore, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.src, "d16")
            self.read_int(instr.addr, "x10")
            if instr.offset:
                self._add_imm("x10", "x10", instr.offset)
            if instr.size == 4:
                self.op("fcvt\ts16, d16")
                self.op("str\ts16, [x10]")
            else:
                self.op("str\td16, [x10]")
            return
        self.read_int(instr.src, "x9")
        self.read_int(instr.addr, "x10")
        if instr.offset:
            self._add_imm("x10", "x10", instr.offset)
        reg = "x9" if instr.size == 8 else "w9"
        self.op(f"{_STORES[instr.size]}\t{reg}, [x10]")

    def _emit_call(self, instr: ir.IRCall, index: int) -> None:
        int_index = 0
        float_index = 0
        for arg in instr.args:
            if self._is_float_operand(arg):
                if float_index >= len(_FLOAT_ARGS):
                    raise NotImplementedError(
                        "arm backend supports at most 8 FP arguments"
                    )
                self.read_float(arg, _FLOAT_ARGS[float_index])
                float_index += 1
            else:
                if int_index >= len(_INT_ARGS):
                    raise NotImplementedError(
                        "arm backend supports at most 8 integer arguments"
                    )
                self.read_int(arg, _INT_ARGS[int_index])
                int_index += 1
        self.op(f"bl\t{instr.name}")
        if instr.dst is not None:
            if instr.float_ret or instr.dst.is_float:
                self.write_float("d0", instr.dst)
            else:
                self.write_int("x0", instr.dst)

    # -- file assembly ---------------------------------------------------------

    def _assemble(self) -> str:
        name = self.func.name
        lines = [
            "\t.arch\tarmv8-a",
            f'\t.file\t"{name}.c"',
            "\t.text",
            "\t.align\t2",
            f"\t.global\t{name}",
            f"\t.type\t{name}, %function",
            f"{name}:",
        ]
        lines.extend(self.body)
        lines.append(f"\t.size\t{name}, .-{name}")
        if self.string_literals or self.float_pool:
            lines.append("\t.section\t.rodata")
            for symbol, text in self.string_literals.items():
                lines.append(f"{symbol}:")
                lines.append(f'\t.string\t"{_escape_string(text)}"')
            for bits, label in self.float_pool.items():
                value = struct.unpack("<d", struct.pack("<Q", bits))[0]
                lines.append("\t.align\t3")
                lines.append(f"{label}:")
                lines.append(f"\t.xword\t0x{bits:016x}\t// double {value!r}")
        data_directives = {1: ".byte", 2: ".hword", 4: ".word", 8: ".xword"}
        emitted_data = False
        for symbol in self.used_globals:
            init = self.global_inits.get(symbol)
            if init is not None:
                if not emitted_data:
                    lines.append("\t.data")
                    emitted_data = True
                # Weak definition, for the same reason as the x86 backend:
                # per-function translation units sharing an initialised
                # global must still link together.
                lines.append(f"\t.weak\t{symbol}")
                lines.append("\t.align\t3")
                lines.append(f"\t.type\t{symbol}, %object")
                lines.append(f"\t.size\t{symbol}, {init.size}")
                lines.append(f"{symbol}:")
                for elem_size, raw in init.items:
                    lines.append(f"\t{data_directives[elem_size]}\t{raw}")
                emitted = sum(elem_size for elem_size, _ in init.items)
                if emitted < init.size:
                    lines.append(f"\t.zero\t{init.size - emitted}")
                continue
            size = self.global_sizes.get(symbol)
            if size is not None:
                lines.append(f"\t.comm\t{symbol},{size},8")
        lines.append('\t.section\t.note.GNU-stack,"",%progbits')
        lines.append("")
        return "\n".join(lines)


#: Instruction emitters, keyed by the instruction's exact class (one dict
#: lookup per instruction instead of an isinstance chain).  A class with no
#: entry raises NotImplementedError, which the driver reports as a
#: CompileError.
_EMIT_DISPATCH = {
    ir.IRLabel: _Emitter._emit_label,
    ir.IRConst: _Emitter._emit_const,
    ir.IRMove: _Emitter._emit_move,
    ir.IRBinOp: _Emitter._emit_binop,
    ir.IRCmp: _Emitter._emit_cmp,
    ir.IRUnary: _Emitter._emit_unary,
    ir.IRCast: _Emitter._emit_cast,
    ir.IRLoad: _Emitter._emit_load,
    ir.IRStore: _Emitter._emit_store,
    ir.IRFrameAddr: _Emitter._emit_frame_addr,
    ir.IRGlobalAddr: _Emitter._emit_global_addr,
    ir.IRCall: _Emitter._emit_call,
    ir.IRJump: _Emitter._emit_jump,
    ir.IRBranch: _Emitter._emit_branch,
    ir.IRRet: _Emitter._emit_ret,
}
