"""x86-64 (AT&T syntax) backend for the Mini-C compiler.

The emitter walks the flat IR instruction list and, for every instruction,
loads operands into reserved scratch registers, performs the operation and
stores the result back to the destination's assigned location (a physical
register at -O3, a stack slot at -O0).  This load/op/store discipline is
exactly how GCC -O0 shapes its output, which is the dialect the paper's
training pairs are drawn from.

Register usage:

* ``%r10``/``%r11`` (plus ``%rax``/``%rdx``/``%rcx`` for division and
  shifts) are instruction-local integer scratch registers.
* ``%xmm14``/``%xmm15`` are instruction-local FP scratch registers.
* ``%rbx``, ``%r12``–``%r15`` are the allocatable integer registers handed
  to the linear-scan allocator at -O3.  They are callee-saved in the SysV
  ABI, so values survive calls without caller-save bookkeeping.
* The SysV ABI has no callee-saved vector registers, so FP virtual
  registers always live in spill slots and are loaded on demand.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import ir
from repro.compiler.regalloc import Allocation

#: Integer argument registers in SysV order.
_INT_ARGS = ("%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9")
#: FP argument registers in SysV order.
_FLOAT_ARGS = tuple(f"%xmm{i}" for i in range(8))

#: Sub-register names (1/2/4/8 bytes) for every general-purpose register.
_LEGACY_SUBREGS = {
    "%rax": ("%al", "%ax", "%eax"), "%rbx": ("%bl", "%bx", "%ebx"),
    "%rcx": ("%cl", "%cx", "%ecx"), "%rdx": ("%dl", "%dx", "%edx"),
    "%rsi": ("%sil", "%si", "%esi"), "%rdi": ("%dil", "%di", "%edi"),
    "%rbp": ("%bpl", "%bp", "%ebp"), "%rsp": ("%spl", "%sp", "%esp"),
}


def _subreg(reg: str, size: int) -> str:
    """The ``size``-byte view of a 64-bit register name."""
    if size == 8:
        return reg
    if reg in _LEGACY_SUBREGS:
        return _LEGACY_SUBREGS[reg][{1: 0, 2: 1, 4: 2}[size]]
    return reg + {1: "b", 2: "w", 4: "d"}[size]


#: (size, signed) -> the load that sign-/zero-extends ``size`` bytes to 64
#: bits (4-byte unsigned loads are a plain ``movl``, which zero-extends).
_EXTENDING_LOADS = {
    (1, True): "movsbq", (1, False): "movzbq",
    (2, True): "movswq", (2, False): "movzwq",
    (4, True): "movslq",
}
#: size -> the store of that many bytes.
_STORES = {1: "movb", 2: "movw", 4: "movl", 8: "movq"}

#: setCC suffixes for signed and unsigned integer comparisons.
_CC_SIGNED = {"eq": "e", "ne": "ne", "lt": "l", "le": "le", "gt": "g", "ge": "ge"}
_CC_UNSIGNED = {"eq": "e", "ne": "ne", "lt": "b", "le": "be", "gt": "a", "ge": "ae"}
#: ucomisd sets CF/ZF like an unsigned compare.
_CC_FLOAT = _CC_UNSIGNED


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


class X86Backend:
    """Backend descriptor handed to the driver."""

    name = "x86"
    INT_ALLOCATABLE: Sequence[str] = ("%rbx", "%r12", "%r13", "%r14", "%r15")
    FLOAT_ALLOCATABLE: Sequence[str] = ()

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
        self.float_pool: Dict[int, str] = {}  # IEEE bits -> label
        self.used_globals: List[str] = []
        self.ret_label = f".Lret_{func.name}"
        self.saved = allocation.used_registers(X86Backend.INT_ALLOCATABLE)
        self._layout_frame()
        # vreg -> (register, None) or (None, its spill slot's memory operand):
        # the allocation's answer with the frame offset already rendered, so
        # each operand costs one dict lookup.
        self.locations: Dict[ir.VReg, Tuple[Optional[str], Optional[str]]] = {
            reg: (None, self._slot_addr(slot))
            for reg, slot in allocation.spill_slot_of.items()
        }
        self.locations.update(
            (reg, (name, None)) for reg, name in allocation.register_of.items()
        )

    # -- frame ---------------------------------------------------------------

    def _layout_frame(self) -> None:
        offset = 0
        self.save_offsets: Dict[str, int] = {}
        for reg in self.saved:
            offset += 8
            self.save_offsets[reg] = offset
        self.slot_offsets: Dict[str, int] = {}
        for slot in self.func.slots.values():
            size = max(slot.size, 1)
            # Narrow spill slots pack at their natural alignment; anything
            # larger than a word (arrays, structs) stays 8-byte aligned.
            align = size if size in (1, 2, 4) else 8
            offset = -(-(offset + size) // align) * align
            self.slot_offsets[slot.name] = offset
            slot.offset = -offset
        self.frame_size = (offset + 15) & ~15

    def _slot_addr(self, slot_name: str) -> str:
        return f"-{self.slot_offsets[slot_name]}(%rbp)"

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

    def _load_imm(self, value: int, scratch: str) -> None:
        if -(1 << 31) <= value < (1 << 31):
            self.op(f"movq\t${value}, {scratch}")
        else:
            self.op(f"movabsq\t${value}, {scratch}")

    def read_int(self, operand: ir.Operand, scratch: str) -> str:
        """Materialise an integer operand in ``scratch`` and return it.

        Values in physical registers are kept fully extended, so a plain
        ``movq`` suffices; narrow spill slots are reloaded with the
        sign-/zero-extending load that matches the value's type.
        """
        if operand.__class__ is ir.VReg:
            name, mem = self.locations[operand]
            if name is not None:
                if name != scratch:
                    self.op(f"movq\t{name}, {scratch}")
            else:
                size = max(1, operand.bits // 8)
                if size == 8:
                    self.op(f"movq\t{mem}, {scratch}")
                elif size == 4 and operand.unsigned:
                    self.op(f"movl\t{mem}, {_subreg(scratch, 4)}")
                else:
                    mnemonic = _EXTENDING_LOADS[(size, not operand.unsigned)]
                    self.op(f"{mnemonic}\t{mem}, {scratch}")
        else:
            self._load_imm(int(operand), scratch)
        return scratch

    def write_int(self, scratch: str, dst: ir.VReg) -> None:
        name, mem = self.locations[dst]
        if name is not None:
            if name != scratch:
                self.op(f"movq\t{scratch}, {name}")
        else:
            size = max(1, dst.bits // 8)
            self.op(f"{_STORES[size]}\t{_subreg(scratch, size)}, {mem}")

    def read_float(self, operand: ir.Operand, scratch: str) -> str:
        if operand.__class__ is ir.VReg:
            name, mem = self.locations[operand]
            if name is not None:
                if name != scratch:
                    self.op(f"movsd\t{name}, {scratch}")
            else:
                self.op(f"movsd\t{mem}, {scratch}")
        else:
            label = self._float_label(float(operand))
            self.op(f"movsd\t{label}(%rip), {scratch}")
        return scratch

    def write_float(self, scratch: str, dst: ir.VReg) -> None:
        name, mem = self.locations[dst]
        if name is not None:
            if name != scratch:
                self.op(f"movsd\t{scratch}, {name}")
        else:
            self.op(f"movsd\t{scratch}, {mem}")

    def _is_float_operand(self, operand: ir.Operand) -> bool:
        if isinstance(operand, ir.VReg):
            return operand.is_float
        return isinstance(operand, float)

    # -- prologue / epilogue -------------------------------------------------

    def _emit_prologue(self) -> None:
        self.op("pushq\t%rbp")
        self.op("movq\t%rsp, %rbp")
        if self.frame_size:
            self.op(f"subq\t${self.frame_size}, %rsp")
        for reg in self.saved:
            self.op(f"movq\t{reg}, -{self.save_offsets[reg]}(%rbp)")
        int_index = 0
        float_index = 0
        stack_offset = 16
        for param in self.func.params:
            if param.is_float:
                if float_index < len(_FLOAT_ARGS):
                    src = _FLOAT_ARGS[float_index]
                    float_index += 1
                else:
                    self.op(f"movsd\t{stack_offset}(%rbp), %xmm14")
                    stack_offset += 8
                    src = "%xmm14"
                self.write_float(src, param)
            else:
                if int_index < len(_INT_ARGS):
                    src = _INT_ARGS[int_index]
                    int_index += 1
                else:
                    self.op(f"movq\t{stack_offset}(%rbp), %r10")
                    stack_offset += 8
                    src = "%r10"
                self.write_int(src, param)

    def _emit_epilogue(self) -> None:
        self.label(self.ret_label)
        for reg in self.saved:
            self.op(f"movq\t-{self.save_offsets[reg]}(%rbp), {reg}")
        self.op("leave")
        self.op("ret")

    # -- instruction emission --------------------------------------------------

    def emit(self) -> str:
        self._emit_prologue()
        instrs = self.func.instrs
        for index, instr in enumerate(instrs):
            self._emit_instr(instr, index)
        self._emit_epilogue()
        return self._assemble()

    def _next_label(self, index: int) -> str:
        nxt = self.func.instrs[index + 1] if index + 1 < len(self.func.instrs) else None
        return nxt.name if isinstance(nxt, ir.IRLabel) else ""

    def _emit_instr(self, instr: ir.IRInstr, index: int) -> None:
        handler = _EMIT_DISPATCH.get(instr.__class__)
        if handler is None:
            raise NotImplementedError(f"x86 backend cannot emit {type(instr).__name__}")
        handler(self, instr, index)

    def _emit_label(self, instr: ir.IRLabel, index: int) -> None:
        self.label(instr.name)

    def _emit_const(self, instr: ir.IRConst, index: int) -> None:
        if instr.dst.is_float:
            self.write_float(self.read_float(float(instr.value), "%xmm14"), instr.dst)
        else:
            self.write_int(self.read_int(int(instr.value), "%r10"), instr.dst)

    def _emit_move(self, instr: ir.IRMove, index: int) -> None:
        if instr.dst.is_float or self._is_float_operand(instr.src):
            self.write_float(self.read_float(instr.src, "%xmm14"), instr.dst)
        else:
            self.write_int(self.read_int(instr.src, "%r10"), instr.dst)

    def _emit_frame_addr(self, instr: ir.IRFrameAddr, index: int) -> None:
        self.op(f"leaq\t{self._slot_addr(instr.slot)}, %r10")
        self.write_int("%r10", instr.dst)

    def _emit_global_addr(self, instr: ir.IRGlobalAddr, index: int) -> None:
        if (
            instr.symbol not in self.string_literals
            and instr.symbol not in self.used_globals
        ):
            self.used_globals.append(instr.symbol)
        self.op(f"leaq\t{instr.symbol}(%rip), %r10")
        self.write_int("%r10", instr.dst)

    def _emit_jump(self, instr: ir.IRJump, index: int) -> None:
        if instr.target != self._next_label(index):
            self.op(f"jmp\t{instr.target}")

    def _emit_branch(self, instr: ir.IRBranch, index: int) -> None:
        self.read_int(instr.cond, "%r10")
        self.op("testq\t%r10, %r10")
        self.op(f"jne\t{instr.true_target}")
        if instr.false_target != self._next_label(index):
            self.op(f"jmp\t{instr.false_target}")

    def _emit_ret(self, instr: ir.IRRet, index: int) -> None:
        if instr.value is not None:
            if instr.is_float or self._is_float_operand(instr.value):
                self.read_float(instr.value, "%xmm0")
            else:
                self.read_int(instr.value, "%rax")
        if index != len(self.func.instrs) - 1:
            self.op(f"jmp\t{self.ret_label}")

    def _extend(self, scratch: str, bits: int, unsigned: bool) -> None:
        """Restore the full-width register invariant after a narrow op.

        32-bit instructions already zero the upper half, so unsigned values
        need nothing; signed results are sign-extended back to 64 bits.
        """
        if bits >= 64 or unsigned:
            return
        self.op(f"movslq\t{_subreg(scratch, 4)}, {scratch}")

    def _emit_binop(self, instr: ir.IRBinOp, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.left, "%xmm14")
            self.read_float(instr.right, "%xmm15")
            mnemonic = {"add": "addsd", "sub": "subsd", "mul": "mulsd", "div": "divsd"}[
                instr.op
            ]
            self.op(f"{mnemonic}\t%xmm15, %xmm14")
            self.write_float("%xmm14", instr.dst)
            return
        self.read_int(instr.left, "%r10")
        self.read_int(instr.right, "%r11")
        # Integer binops happen at int width or wider (C's promotions).
        wide = instr.bits > 32
        suffix = "q" if wide else "l"
        acc = "%r10" if wide else "%r10d"
        rhs = "%r11" if wide else "%r11d"
        if instr.op in ("add", "sub", "mul", "and", "or", "xor"):
            mnemonic = {
                "add": "add", "sub": "sub", "mul": "imul",
                "and": "and", "or": "or", "xor": "xor",
            }[instr.op]
            self.op(f"{mnemonic}{suffix}\t{rhs}, {acc}")
        elif instr.op in ("div", "mod"):
            self.op(f"mov{suffix}\t{acc}, {_subreg('%rax', 4 if not wide else 8)}")
            if instr.unsigned:
                self.op("xorl\t%edx, %edx")
                self.op(f"div{suffix}\t{rhs}")
            else:
                self.op("cqto" if wide else "cltd")
                self.op(f"idiv{suffix}\t{rhs}")
            result = "%rax" if instr.op == "div" else "%rdx"
            self.op(f"mov{suffix}\t{_subreg(result, 4 if not wide else 8)}, {acc}")
        elif instr.op in ("shl", "shr"):
            self.op("movq\t%r11, %rcx")
            if instr.op == "shl":
                self.op(f"sal{suffix}\t%cl, {acc}")
            elif instr.unsigned:
                self.op(f"shr{suffix}\t%cl, {acc}")
            else:
                self.op(f"sar{suffix}\t%cl, {acc}")
        else:
            raise NotImplementedError(f"x86 backend cannot emit binop {instr.op!r}")
        self._extend("%r10", instr.bits, instr.unsigned)
        self.write_int("%r10", instr.dst)

    def _emit_cmp(self, instr: ir.IRCmp, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.left, "%xmm14")
            self.read_float(instr.right, "%xmm15")
            self.op("ucomisd\t%xmm15, %xmm14")
            suffix = _CC_FLOAT[instr.op]
        else:
            self.read_int(instr.left, "%r10")
            self.read_int(instr.right, "%r11")
            if instr.bits > 32:
                self.op("cmpq\t%r11, %r10")
            else:
                self.op("cmpl\t%r11d, %r10d")
            table = _CC_UNSIGNED if instr.unsigned else _CC_SIGNED
            suffix = table[instr.op]
        self.op(f"set{suffix}\t%r10b")
        self.op("movzbq\t%r10b, %r10")
        self.write_int("%r10", instr.dst)

    def _emit_unary(self, instr: ir.IRUnary, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.src, "%xmm15")
            self.op("pxor\t%xmm14, %xmm14")
            self.op("subsd\t%xmm15, %xmm14")
            self.write_float("%xmm14", instr.dst)
            return
        self.read_int(instr.src, "%r10")
        wide = instr.bits > 32
        mnemonic = "neg" if instr.op == "neg" else "not"
        self.op(f"{mnemonic}{'q' if wide else 'l'}\t{'%r10' if wide else '%r10d'}")
        self._extend("%r10", instr.bits, instr.unsigned)
        self.write_int("%r10", instr.dst)

    def _emit_cast(self, instr: ir.IRCast, index: int) -> None:
        if instr.kind == "i2f":
            self.read_int(instr.src, "%r10")
            self.op("cvtsi2sdq\t%r10, %xmm14")
            self.write_float("%xmm14", instr.dst)
        elif instr.kind == "f2i":
            self.read_float(instr.src, "%xmm14")
            self.op("cvttsd2si\t%xmm14, %r10")
            self.write_int("%r10", instr.dst)
        elif instr.kind in ir.WIDTH_CASTS:
            bits, unsigned = ir.WIDTH_CASTS[instr.kind]
            self.read_int(instr.src, "%r10")
            if bits == 32 and unsigned:
                self.op("movl\t%r10d, %r10d")
            else:
                mnemonic = {
                    (8, False): "movsbq", (8, True): "movzbq",
                    (16, False): "movswq", (16, True): "movzwq",
                    (32, False): "movslq",
                }[(bits, unsigned)]
                self.op(f"{mnemonic}\t{_subreg('%r10', bits // 8)}, %r10")
            self.write_int("%r10", instr.dst)
        elif instr.dst.is_float:
            self.write_float(self.read_float(instr.src, "%xmm14"), instr.dst)
        else:
            self.write_int(self.read_int(instr.src, "%r10"), instr.dst)

    def _emit_load(self, instr: ir.IRLoad, index: int) -> None:
        self.read_int(instr.addr, "%r11")
        mem = f"{instr.offset}(%r11)" if instr.offset else "(%r11)"
        if instr.is_float:
            if instr.size == 4:
                self.op(f"movss\t{mem}, %xmm14")
                self.op("cvtss2sd\t%xmm14, %xmm14")
            else:
                self.op(f"movsd\t{mem}, %xmm14")
            self.write_float("%xmm14", instr.dst)
            return
        if instr.size == 8:
            self.op(f"movq\t{mem}, %r10")
        elif instr.size == 4 and not instr.signed:
            self.op(f"movl\t{mem}, %r10d")
        else:
            mnemonic = _EXTENDING_LOADS[(instr.size, instr.signed)]
            self.op(f"{mnemonic}\t{mem}, %r10")
        self.write_int("%r10", instr.dst)

    def _emit_store(self, instr: ir.IRStore, index: int) -> None:
        if instr.is_float:
            self.read_float(instr.src, "%xmm14")
            self.read_int(instr.addr, "%r11")
            mem = f"{instr.offset}(%r11)" if instr.offset else "(%r11)"
            if instr.size == 4:
                self.op("cvtsd2ss\t%xmm14, %xmm14")
                self.op(f"movss\t%xmm14, {mem}")
            else:
                self.op(f"movsd\t%xmm14, {mem}")
            return
        self.read_int(instr.src, "%r10")
        self.read_int(instr.addr, "%r11")
        mem = f"{instr.offset}(%r11)" if instr.offset else "(%r11)"
        self.op(f"{_STORES[instr.size]}\t{_subreg('%r10', instr.size)}, {mem}")

    def _emit_call(self, instr: ir.IRCall, index: int) -> None:
        int_index = 0
        float_index = 0
        stack_args: List[ir.Operand] = []
        for arg in instr.args:
            if self._is_float_operand(arg):
                if float_index < len(_FLOAT_ARGS):
                    self.read_float(arg, _FLOAT_ARGS[float_index])
                    float_index += 1
                else:
                    stack_args.append(arg)
            else:
                if int_index < len(_INT_ARGS):
                    self.read_int(arg, _INT_ARGS[int_index])
                    int_index += 1
                else:
                    stack_args.append(arg)
        stack_bytes = (8 * len(stack_args) + 15) & ~15
        if stack_args:
            self.op(f"subq\t${stack_bytes}, %rsp")
            for slot, arg in enumerate(stack_args):
                if self._is_float_operand(arg):
                    self.read_float(arg, "%xmm14")
                    self.op(f"movsd\t%xmm14, {8 * slot}(%rsp)")
                else:
                    self.read_int(arg, "%r10")
                    self.op(f"movq\t%r10, {8 * slot}(%rsp)")
        self.op(f"movl\t${float_index}, %eax")
        self.op(f"call\t{instr.name}")
        if stack_args:
            self.op(f"addq\t${stack_bytes}, %rsp")
        if instr.dst is not None:
            if instr.float_ret or instr.dst.is_float:
                self.write_float("%xmm0", instr.dst)
            else:
                self.write_int("%rax", instr.dst)

    # -- file assembly ---------------------------------------------------------

    def _assemble(self) -> str:
        name = self.func.name
        lines = [
            f'\t.file\t"{name}.c"',
            "\t.text",
            f"\t.globl\t{name}",
            f"\t.type\t{name}, @function",
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
                lines.append("\t.align\t8")
                lines.append(f"{label}:")
                lines.append(f"\t.quad\t0x{bits:016x}\t# double {value!r}")
        data_directives = {1: ".byte", 2: ".value", 4: ".long", 8: ".quad"}
        emitted_data = False
        for symbol in self.used_globals:
            init = self.global_inits.get(symbol)
            if init is not None:
                if not emitted_data:
                    lines.append("\t.data")
                    emitted_data = True
                # Weak definition: every compiled function is its own
                # translation unit, so two functions sharing an initialised
                # global must still link together (as their .comm symbols
                # always did).  The definitions are identical; the linker
                # keeps one.
                lines.append(f"\t.weak\t{symbol}")
                lines.append("\t.align\t8")
                lines.append(f"\t.type\t{symbol}, @object")
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
        lines.append('\t.section\t.note.GNU-stack,"",@progbits')
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
