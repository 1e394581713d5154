"""The Mini-C type system.

Types are modelled as immutable-ish dataclasses.  The same representation is
shared by the type checker (:mod:`repro.lang.typecheck`), the interpreter
(:mod:`repro.lang.interpreter`), the compiler (:mod:`repro.compiler`) and
the testing and analysis tools built on them (the program generator, the IR
executor and verifier, the native harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class CType:
    """Base class for all Mini-C types."""

    def is_integer(self) -> bool:
        return False

    def is_float(self) -> bool:
        return False

    def is_arithmetic(self) -> bool:
        return self.is_integer() or self.is_float()

    def is_pointer(self) -> bool:
        return False

    def sizeof(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - overridden
        return self.__class__.__name__


@dataclass(frozen=True)
class VoidType(CType):
    """The ``void`` type."""

    def sizeof(self) -> int:
        return 1

    def __str__(self) -> str:
        return "void"


#: Integer kinds, ordered by conversion rank.
_INT_RANKS = {"char": 0, "short": 1, "int": 2, "long": 3, "long long": 4}
_INT_SIZES = {"char": 1, "short": 2, "int": 4, "long": 8, "long long": 8}
#: unsigned -> kind -> (value mask, sign bit) for :meth:`IntType.wrap`; the
#: sign bit is 0 for unsigned kinds, which never wrap negative.
_WRAP_MASKS: Dict[bool, Dict[str, Tuple[int, int]]] = {
    unsigned: {
        kind: ((1 << (8 * size)) - 1, 0 if unsigned else 1 << (8 * size - 1))
        for kind, size in _INT_SIZES.items()
    }
    for unsigned in (False, True)
}


@dataclass(frozen=True)
class IntType(CType):
    """An integer type such as ``int`` or ``unsigned long``."""

    kind: str = "int"
    unsigned: bool = False

    def is_integer(self) -> bool:
        return True

    def sizeof(self) -> int:
        return _INT_SIZES[self.kind]

    @property
    def rank(self) -> int:
        return _INT_RANKS[self.kind]

    def min_value(self) -> int:
        if self.unsigned:
            return 0
        return -(1 << (8 * self.sizeof() - 1))

    def max_value(self) -> int:
        bits = 8 * self.sizeof()
        if self.unsigned:
            return (1 << bits) - 1
        return (1 << (bits - 1)) - 1

    def wrap(self, value: int) -> int:
        """Wrap an arbitrary Python int into this type's representable range."""
        mask, sign_bit = _WRAP_MASKS[self.unsigned][self.kind]
        value &= mask
        if value & sign_bit:
            value -= mask + 1
        return value

    def __str__(self) -> str:
        prefix = "unsigned " if self.unsigned else ""
        return prefix + self.kind


@dataclass(frozen=True)
class FloatType(CType):
    """A floating point type (``float`` or ``double``)."""

    kind: str = "double"

    def is_float(self) -> bool:
        return True

    def sizeof(self) -> int:
        return 4 if self.kind == "float" else 8

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class PointerType(CType):
    """A pointer to some pointee type."""

    pointee: CType

    def is_pointer(self) -> bool:
        return True

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee} *"


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed- or unknown-length array."""

    element: CType
    length: Optional[int] = None

    def sizeof(self) -> int:
        if self.length is None:
            return 8
        return self.element.sizeof() * self.length

    def decay(self) -> PointerType:
        """Return the pointer type this array decays to in expressions."""
        return PointerType(self.element)

    def __str__(self) -> str:
        length = "" if self.length is None else str(self.length)
        return f"{self.element} [{length}]"


@dataclass(frozen=True)
class StructField:
    """A named member of a struct."""

    name: str
    type: CType


@dataclass
class StructType(CType):
    """A struct type.  Equality is nominal (by tag)."""

    tag: str
    fields: List[StructField] = field(default_factory=list)
    complete: bool = True

    def sizeof(self) -> int:
        # No padding/alignment model: fields are packed.  Both the interpreter
        # and the VMs use the same layout so behaviour is consistent.
        return sum(f.type.sizeof() for f in self.fields) if self.fields else 1

    def field_offset(self, name: str) -> int:
        offset = 0
        for f in self.fields:
            if f.name == name:
                return offset
            offset += f.type.sizeof()
        raise KeyError(f"struct {self.tag} has no field {name!r}")

    def field_type(self, name: str) -> CType:
        for f in self.fields:
            if f.name == name:
                return f.type
        raise KeyError(f"struct {self.tag} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("struct", self.tag))

    def __str__(self) -> str:
        return f"struct {self.tag}"


@dataclass(frozen=True)
class FunctionType(CType):
    """A function type (return type plus parameter types)."""

    return_type: CType
    param_types: Tuple[CType, ...] = ()
    variadic: bool = False

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types) or "void"
        return f"{self.return_type} ({params})"


@dataclass(frozen=True)
class NamedType(CType):
    """A reference to a typedef name whose definition may be unknown.

    The type checker resolves these against the typedef table; unresolved
    names are exactly what the type-inference engine synthesises definitions
    for.
    """

    name: str

    def sizeof(self) -> int:
        return 8

    def __str__(self) -> str:
        return self.name


# Convenient singletons used throughout the code base.
VOID = VoidType()
CHAR = IntType("char")
UCHAR = IntType("char", unsigned=True)
SHORT = IntType("short")
USHORT = IntType("short", unsigned=True)
INT = IntType("int")
UINT = IntType("int", unsigned=True)
LONG = IntType("long")
ULONG = IntType("long", unsigned=True)
FLOAT = FloatType("float")
DOUBLE = FloatType("double")


def is_void(t: CType) -> bool:
    return isinstance(t, VoidType)


def decay(t: CType) -> CType:
    """Apply array-to-pointer decay if applicable."""
    if isinstance(t, ArrayType):
        return t.decay()
    return t


def usual_arithmetic_conversion(left: CType, right: CType) -> CType:
    """Return the common type of a binary arithmetic expression.

    This implements a simplified version of C's "usual arithmetic
    conversions": floats win over integers, ``double`` wins over ``float``,
    larger rank wins, unsigned wins on ties.
    """
    if isinstance(left, FloatType) or isinstance(right, FloatType):
        if (isinstance(left, FloatType) and left.kind == "double") or (
            isinstance(right, FloatType) and right.kind == "double"
        ):
            return DOUBLE
        return FLOAT
    if isinstance(left, IntType) and isinstance(right, IntType):
        # Ranks are read from the table directly: this runs for every
        # binary operator the checker, interpreter and lowering meet.
        left_rank = _INT_RANKS[left.kind]
        right_rank = _INT_RANKS[right.kind]
        if left_rank == right_rank:
            if left.unsigned or right.unsigned:
                return IntType(
                    left.kind if left_rank >= right_rank else right.kind, unsigned=True
                )
            return left
        bigger = left if left_rank > right_rank else right
        # Promote to at least int.
        if max(left_rank, right_rank) < _INT_RANKS["int"]:
            return INT
        return bigger
    # Pointers and other cases: fall back to the left type.
    return left


def integer_promote(t: CType) -> CType:
    """Promote small integer types to ``int``."""
    if isinstance(t, IntType) and _INT_RANKS[t.kind] < _INT_RANKS["int"]:
        return INT
    return t


def literal_int_type(value: int) -> IntType:
    """The C type of a decimal integer literal: int, or long beyond it.

    The single source of truth for the type checker, the interpreter's
    static typing, lowering and the constant folder — they must agree or
    the substrates diverge on wide literals.
    """
    return LONG if abs(value) > 0x7FFFFFFF else INT


#: Integer kind with exactly N bits, used to rebuild a type from a width.
_BITS_TO_KIND = {8: "char", 16: "short", 32: "int", 64: "long"}

#: All eight (bits, unsigned) combinations, interned once — this lookup is
#: on the per-instruction hot path of the IR executor.
_INT_TYPE_CACHE: Dict[Tuple[int, bool], IntType] = {
    (bits, unsigned): IntType(kind, unsigned=unsigned)
    for bits, kind in _BITS_TO_KIND.items()
    for unsigned in (False, True)
}


def int_type_for_bits(bits: int, unsigned: bool = False) -> IntType:
    """The :class:`IntType` of width ``bits`` (8/16/32/64)."""
    return _INT_TYPE_CACHE[(bits, unsigned)]


def int_binop(
    op: str, left: int, right: int, bits: int = 64, unsigned: bool = False
) -> int:
    """Apply a C integer operator at a fixed width with wrapped semantics.

    This is the single source of truth shared by the interpreter
    (:func:`repro.lang.interpreter.apply_binary`) and the compiler's
    constant folder (:mod:`repro.compiler.opt`), so the two cannot drift.
    Operands are first converted into the type's domain (so ``-1`` becomes
    ``2**bits - 1`` when ``unsigned``), division truncates toward zero,
    shift counts are masked by the width, and the result wraps to the
    width.  Raises :class:`ZeroDivisionError` for ``/ 0`` and ``% 0``.
    """
    t = int_type_for_bits(bits, unsigned=unsigned)
    li = t.wrap(int(left))
    ri = t.wrap(int(right))
    if op == "+":
        result = li + ri
    elif op == "-":
        result = li - ri
    elif op == "*":
        result = li * ri
    elif op == "/":
        if ri == 0:
            raise ZeroDivisionError("integer division by zero")
        quotient = abs(li) // abs(ri)
        result = quotient if (li >= 0) == (ri >= 0) else -quotient
    elif op == "%":
        if ri == 0:
            raise ZeroDivisionError("integer modulo by zero")
        quotient = abs(li) // abs(ri)
        signed_quotient = quotient if (li >= 0) == (ri >= 0) else -quotient
        result = li - signed_quotient * ri
    elif op == "<<":
        result = li << (ri & (bits - 1))
    elif op == ">>":
        result = li >> (ri & (bits - 1))
    elif op == "&":
        result = li & ri
    elif op == "|":
        result = li | ri
    elif op == "^":
        result = li ^ ri
    else:
        raise ValueError(f"unsupported integer operator {op!r}")
    return t.wrap(result)


def types_compatible(a: CType, b: CType) -> bool:
    """Loose compatibility check used for assignments and calls."""
    a = decay(a)
    b = decay(b)
    if a.is_arithmetic() and b.is_arithmetic():
        return True
    if isinstance(a, PointerType) and isinstance(b, PointerType):
        return True
    if isinstance(a, PointerType) and b.is_integer():
        return True
    if a.is_integer() and isinstance(b, PointerType):
        return True
    if isinstance(a, StructType) and isinstance(b, StructType):
        return a.tag == b.tag
    if isinstance(a, NamedType) or isinstance(b, NamedType):
        return True
    if isinstance(a, VoidType) and isinstance(b, VoidType):
        return True
    return False


#: Builtin typedef names that decompilers routinely emit; used both by the
#: parser (to recognise them as types) and by the type-inference engine.
BUILTIN_TYPEDEFS: Dict[str, CType] = {
    "size_t": ULONG,
    "ssize_t": LONG,
    "ptrdiff_t": LONG,
    "intptr_t": LONG,
    "uintptr_t": ULONG,
    "int8_t": CHAR,
    "uint8_t": UCHAR,
    "int16_t": SHORT,
    "uint16_t": USHORT,
    "int32_t": INT,
    "uint32_t": UINT,
    "int64_t": LONG,
    "uint64_t": ULONG,
    "int_32": INT,
    "bool": INT,
    "_Bool": INT,
    "uint": UINT,
    "ulong": ULONG,
    "ushort": USHORT,
    "uchar": UCHAR,
    "byte": UCHAR,
    "undefined": UCHAR,
    "undefined1": UCHAR,
    "undefined2": USHORT,
    "undefined4": UINT,
    "undefined8": ULONG,
}
