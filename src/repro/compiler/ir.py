"""Three-address intermediate representation used by the Mini-C compiler.

An :class:`IRFunction` is a flat list of instructions over an unbounded set
of virtual registers (:class:`VReg`).  Labels are instructions themselves, so
the representation is easy to transform by simple list rewriting; the
optimiser reconstructs basic-block structure where it needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union


@dataclass(frozen=True)
class VReg:
    """A virtual register.  ``is_float`` selects the FP register class.

    Integer registers carry the width (``bits``) and signedness of the C
    value they hold.  The invariant maintained by lowering and the backends
    is that an integer register always holds the 64-bit sign-extension
    (signed) or zero-extension (unsigned) of its ``bits``-wide value, so
    widening conversions are no-ops and narrow spill slots can be reloaded
    with the matching extending load.
    """

    id: int
    is_float: bool = False
    bits: int = 64
    unsigned: bool = False

    def __hash__(self) -> int:
        # VRegs key every per-register table in the middle end (use counts,
        # register allocation, the verifier, the IR executor's register
        # file).  Equal registers share an id, so the id alone is a valid
        # hash, and it skips building and hashing the 4-tuple of fields.
        return self.id

    def __str__(self) -> str:
        prefix = "f" if self.is_float else "v"
        return f"%{prefix}{self.id}"


#: An operand is either a virtual register or an immediate constant.
Operand = Union[VReg, int, float]


@dataclass
class StackSlot:
    """A named slot in the function's stack frame."""

    name: str
    size: int
    offset: int = 0  # assigned by the backend


@dataclass
class GlobalInit:
    """Constant initialiser data for one global symbol.

    ``items`` is the packed sequence of ``(element_size, raw_value)`` pairs
    the backend renders as data directives (raw values are the unsigned
    two's-complement byte patterns, so floats arrive as IEEE bit patterns).
    Trailing zero bytes up to ``size`` are implied.
    """

    size: int
    items: List[tuple] = field(default_factory=list)  # (elem_size, raw_value)


class IRInstr:
    """Base class for IR instructions."""

    def defs(self) -> List[VReg]:
        """Registers written by this instruction."""
        return []

    def uses(self) -> List[VReg]:
        """Registers read by this instruction."""
        return []

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        """Substitute operands according to ``mapping`` (used by copy prop)."""


# ``uses()`` runs for every instruction of every pass and of the verifier,
# so these test their one or two operands directly rather than filter a
# varargs tuple through isinstance.


def _uses_of(operand: Operand) -> List[VReg]:
    return [operand] if operand.__class__ is VReg else []


def _uses_of_pair(left: Operand, right: Operand) -> List[VReg]:
    if left.__class__ is VReg:
        return [left, right] if right.__class__ is VReg else [left]
    return [right] if right.__class__ is VReg else []


@dataclass
class IRConst(IRInstr):
    dst: VReg
    value: Union[int, float]

    def defs(self) -> List[VReg]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = const {self.value}"


@dataclass
class IRMove(IRInstr):
    dst: VReg
    src: Operand

    def defs(self) -> List[VReg]:
        return [self.dst]

    def uses(self) -> List[VReg]:
        return _uses_of(self.src)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.src, VReg) and self.src in mapping:
            self.src = mapping[self.src]

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


#: Arithmetic/bitwise operation names used by IRBinOp.
BIN_OPS = ("add", "sub", "mul", "div", "mod", "shl", "shr", "and", "or", "xor")
#: Comparison operation names used by IRCmp.
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


@dataclass
class IRBinOp(IRInstr):
    """``dst = left <op> right`` at a fixed integer width.

    ``bits`` is the width of the C type the operation is performed in (after
    the usual arithmetic conversions); backends must produce a result that
    wraps at that width and is then re-extended to 64 bits.
    """

    op: str
    dst: VReg
    left: Operand
    right: Operand
    is_float: bool = False
    unsigned: bool = False
    bits: int = 64

    def defs(self) -> List[VReg]:
        return [self.dst]

    def uses(self) -> List[VReg]:
        return _uses_of_pair(self.left, self.right)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.left, VReg) and self.left in mapping:
            self.left = mapping[self.left]
        if isinstance(self.right, VReg) and self.right in mapping:
            self.right = mapping[self.right]

    def __str__(self) -> str:
        suffix = "" if self.bits == 64 else f".{self.bits}"
        return f"{self.dst} = {self.op}{suffix} {self.left}, {self.right}"


@dataclass
class IRCmp(IRInstr):
    """``dst = left <op> right ? 1 : 0``, compared at ``bits`` wide."""

    op: str
    dst: VReg
    left: Operand
    right: Operand
    is_float: bool = False
    unsigned: bool = False
    bits: int = 64

    def defs(self) -> List[VReg]:
        return [self.dst]

    def uses(self) -> List[VReg]:
        return _uses_of_pair(self.left, self.right)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.left, VReg) and self.left in mapping:
            self.left = mapping[self.left]
        if isinstance(self.right, VReg) and self.right in mapping:
            self.right = mapping[self.right]

    def __str__(self) -> str:
        suffix = "" if self.bits == 64 else f".{self.bits}"
        return f"{self.dst} = cmp{suffix}.{self.op} {self.left}, {self.right}"


@dataclass
class IRUnary(IRInstr):
    """``neg`` or ``not`` (bitwise complement) at ``bits`` wide."""

    op: str
    dst: VReg
    src: Operand
    is_float: bool = False
    bits: int = 64
    unsigned: bool = False

    def defs(self) -> List[VReg]:
        return [self.dst]

    def uses(self) -> List[VReg]:
        return _uses_of(self.src)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.src, VReg) and self.src in mapping:
            self.src = mapping[self.src]

    def __str__(self) -> str:
        return f"{self.dst} = {self.op} {self.src}"


#: Integer width-change cast kinds: truncate the source to N bits, then
#: sign- (``sext``) or zero- (``zext``) extend back to the full register.
WIDTH_CASTS = {
    "sext8": (8, False), "zext8": (8, True),
    "sext16": (16, False), "zext16": (16, True),
    "sext32": (32, False), "zext32": (32, True),
}


@dataclass
class IRCast(IRInstr):
    """Conversions: ``i2f``, ``f2i``, ``f2f`` (float<->double is a no-op
    here), and the integer width changes listed in :data:`WIDTH_CASTS`."""

    kind: str
    dst: VReg
    src: Operand

    def defs(self) -> List[VReg]:
        return [self.dst]

    def uses(self) -> List[VReg]:
        return _uses_of(self.src)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.src, VReg) and self.src in mapping:
            self.src = mapping[self.src]

    def __str__(self) -> str:
        return f"{self.dst} = {self.kind} {self.src}"


@dataclass
class IRLoad(IRInstr):
    dst: VReg
    addr: VReg
    offset: int = 0
    size: int = 8
    signed: bool = True
    is_float: bool = False

    def defs(self) -> List[VReg]:
        return [self.dst]

    def uses(self) -> List[VReg]:
        return [self.addr]

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if self.addr in mapping and isinstance(mapping[self.addr], VReg):
            self.addr = mapping[self.addr]  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"{self.dst} = load{self.size} [{self.addr}+{self.offset}]"


@dataclass
class IRStore(IRInstr):
    src: Operand
    addr: VReg
    offset: int = 0
    size: int = 8
    is_float: bool = False

    def uses(self) -> List[VReg]:
        return _uses_of_pair(self.src, self.addr)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.src, VReg) and self.src in mapping:
            self.src = mapping[self.src]
        if self.addr in mapping and isinstance(mapping[self.addr], VReg):
            self.addr = mapping[self.addr]  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"store{self.size} [{self.addr}+{self.offset}], {self.src}"


@dataclass
class IRFrameAddr(IRInstr):
    """dst = address of a stack slot."""

    dst: VReg
    slot: str

    def defs(self) -> List[VReg]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = frameaddr {self.slot}"


@dataclass
class IRGlobalAddr(IRInstr):
    """dst = address of a global symbol."""

    dst: VReg
    symbol: str

    def defs(self) -> List[VReg]:
        return [self.dst]

    def __str__(self) -> str:
        return f"{self.dst} = globaladdr {self.symbol}"


@dataclass
class IRCall(IRInstr):
    dst: Optional[VReg]
    name: str
    args: List[Operand] = field(default_factory=list)
    float_ret: bool = False

    def defs(self) -> List[VReg]:
        return [self.dst] if self.dst is not None else []

    def uses(self) -> List[VReg]:
        return [a for a in self.args if a.__class__ is VReg]

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        self.args = [mapping.get(a, a) if isinstance(a, VReg) else a for a in self.args]

    def __str__(self) -> str:
        prefix = f"{self.dst} = " if self.dst else ""
        return f"{prefix}call {self.name}({', '.join(map(str, self.args))})"


@dataclass
class IRLabel(IRInstr):
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass
class IRJump(IRInstr):
    target: str

    def __str__(self) -> str:
        return f"jmp {self.target}"


@dataclass
class IRBranch(IRInstr):
    """Conditional branch: if cond != 0 goto ``true_target`` else fall to
    ``false_target`` (the backend emits an explicit jump when needed)."""

    cond: VReg
    true_target: str
    false_target: str

    def uses(self) -> List[VReg]:
        return [self.cond]

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if self.cond in mapping and isinstance(mapping[self.cond], VReg):
            self.cond = mapping[self.cond]  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"br {self.cond} ? {self.true_target} : {self.false_target}"


@dataclass
class IRRet(IRInstr):
    value: Optional[Operand] = None
    is_float: bool = False

    def uses(self) -> List[VReg]:
        return _uses_of(self.value)

    def replace_uses(self, mapping: Dict[VReg, Operand]) -> None:
        if isinstance(self.value, VReg) and self.value in mapping:
            self.value = mapping[self.value]

    def __str__(self) -> str:
        return f"ret {self.value if self.value is not None else ''}".rstrip()


@dataclass
class IRFunction:
    """A lowered function: parameters, frame slots and a flat instruction list."""

    name: str
    params: List[VReg] = field(default_factory=list)
    param_names: List[str] = field(default_factory=list)
    instrs: List[IRInstr] = field(default_factory=list)
    slots: Dict[str, StackSlot] = field(default_factory=dict)
    returns_float: bool = False
    next_vreg: int = 0
    next_label: int = 0

    def new_vreg(
        self, is_float: bool = False, bits: int = 64, unsigned: bool = False
    ) -> VReg:
        reg = VReg(self.next_vreg, is_float, 64 if is_float else bits, unsigned)
        self.next_vreg += 1
        return reg

    def new_label(self, hint: str = "L") -> str:
        label = f".{hint}{self.next_label}"
        self.next_label += 1
        return label

    def add_slot(self, name: str, size: int) -> StackSlot:
        slot = StackSlot(name, size)
        self.slots[name] = slot
        return slot

    def emit(self, instr: IRInstr) -> IRInstr:
        self.instrs.append(instr)
        return instr

    def __str__(self) -> str:
        lines = [f"function {self.name}({', '.join(map(str, self.params))})"]
        for slot in self.slots.values():
            lines.append(f"  slot {slot.name}: {slot.size} bytes")
        for instr in self.instrs:
            if isinstance(instr, IRLabel):
                lines.append(str(instr))
            else:
                lines.append("  " + str(instr))
        return "\n".join(lines)
