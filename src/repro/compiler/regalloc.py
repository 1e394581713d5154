"""Linear-scan register allocation for the Mini-C compiler backends.

The allocator assigns every virtual register either a physical register
(from a per-class free list supplied by the backend) or a spill slot in the
stack frame.  The -O0 pipeline passes empty register lists, so everything
spills and the emitted assembly is maximally verbose — mirroring how GCC -O0
keeps every value in memory.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.compiler import ir


@dataclass
class LiveRange:
    """Closed interval of instruction indices during which a vreg is live."""

    reg: ir.VReg
    start: int
    end: int


@dataclass
class Allocation:
    """The result of register allocation for one function."""

    register_of: Dict[ir.VReg, str]
    spill_slot_of: Dict[ir.VReg, str]

    def used_registers(self, ordering: Sequence[str]) -> List[str]:
        """Physical registers this allocation uses, in ``ordering`` order.

        Backends save/restore exactly these (callee-saved) registers in the
        prologue/epilogue, so the order must be deterministic.
        """
        used = set(self.register_of.values())
        return [reg for reg in ordering if reg in used]


def compute_live_ranges(func: ir.IRFunction) -> List[LiveRange]:
    """Compute conservative linear live ranges.

    Because the IR is not in SSA form and control flow can jump backwards,
    a register used inside a loop must stay live across the whole loop.  We
    approximate this by extending every range that overlaps a backwards
    branch to cover the branch target's extent.  This is conservative but
    safe.
    """
    first_def: Dict[ir.VReg, int] = {}
    last_use: Dict[ir.VReg, int] = {}
    label_pos: Dict[str, int] = {}
    for index, instr in enumerate(func.instrs):
        if instr.__class__ is ir.IRLabel:
            label_pos[instr.name] = index  # type: ignore[attr-defined]
        # Indices only grow, so the latest mention is the last use.
        for reg in instr.defs():
            first_def.setdefault(reg, index)
            last_use[reg] = index
        for reg in instr.uses():
            first_def.setdefault(reg, index)
            last_use[reg] = index
    for index, reg in enumerate(func.params):
        first_def[reg] = -1 - (len(func.params) - index)
        last_use.setdefault(reg, 0)

    # Extend ranges across backwards jumps (loops).
    loop_spans: List[Tuple[int, int]] = []
    for index, instr in enumerate(func.instrs):
        targets: List[str] = []
        if instr.__class__ is ir.IRJump:
            targets = [instr.target]  # type: ignore[attr-defined]
        elif instr.__class__ is ir.IRBranch:
            targets = [instr.true_target, instr.false_target]  # type: ignore[attr-defined]
        for target in targets:
            target_index = label_pos.get(target, index)
            if target_index < index:
                loop_spans.append((target_index, index))

    # A range overlapping a loop body must cover it: while some span has
    # span_start <= end < span_end, ``end`` moves to that span's end.  Every
    # range has end >= start, so whether it overlaps depends on ``end``
    # alone, and the fixpoint from a given end is the same for every range:
    # with the spans sorted by start, jump to the furthest end among the
    # spans that start at or before ``end`` until that no longer moves it.
    loop_spans.sort()
    span_starts = [span_start for span_start, _ in loop_spans]
    furthest: List[int] = []
    for _, span_end in loop_spans:
        furthest.append(max(span_end, furthest[-1]) if furthest else span_end)
    extended: Dict[int, int] = {}

    def extend(end: int) -> int:
        result = extended.get(end)
        if result is None:
            result = end
            while True:
                count = bisect_right(span_starts, result)
                if not count or furthest[count - 1] <= result:
                    break
                result = furthest[count - 1]
            extended[end] = result
        return result

    ranges = [
        LiveRange(reg, start, extend(last_use.get(reg, start)))
        for reg, start in first_def.items()
    ]
    ranges.sort(key=lambda r: r.start)
    return ranges


def linear_scan(
    func: ir.IRFunction,
    int_registers: Sequence[str],
    float_registers: Sequence[str],
    slot_prefix: str = "spill",
) -> Allocation:
    """Allocate registers with the classic linear-scan algorithm.

    Spilled virtual registers get fresh slots added to ``func.slots``.
    With no registers to hand out (-O0), every vreg spills, in the order
    the scan would meet it — parameters first, then by first appearance —
    and the live ranges are never computed.
    """
    register_of: Dict[ir.VReg, str] = {}
    spill_slot_of: Dict[ir.VReg, str] = {}

    def expire(position: int) -> None:
        nonlocal active
        still_active = []
        for live, phys in active:
            if live.end < position:
                if live.reg.is_float:
                    free_float.append(phys)
                else:
                    free_int.append(phys)
            else:
                still_active.append((live, phys))
        active = still_active

    def spill(reg: ir.VReg) -> None:
        slot_name = f"{slot_prefix}.{reg.id}"
        if slot_name not in func.slots:
            # Slots are sized by the value's width: a 32-bit value spills to
            # a 4-byte slot and is reloaded with the matching extending load.
            size = 8 if reg.is_float else max(1, reg.bits // 8)
            func.add_slot(slot_name, size)
        spill_slot_of[reg] = slot_name

    if not int_registers and not float_registers:
        order = dict.fromkeys(func.params)
        for instr in func.instrs:
            for reg in instr.defs():
                order.setdefault(reg)
            for reg in instr.uses():
                order.setdefault(reg)
        for reg in order:
            spill(reg)
        return Allocation(register_of, spill_slot_of)

    ranges = compute_live_ranges(func)
    active: List[Tuple[LiveRange, str]] = []
    free_int = list(int_registers)
    free_float = list(float_registers)

    for live in ranges:
        expire(live.start)
        pool = free_float if live.reg.is_float else free_int
        if pool:
            phys = pool.pop(0)
            register_of[live.reg] = phys
            active.append((live, phys))
            active.sort(key=lambda item: item[0].end)
        else:
            # Spill the interval that ends last (standard heuristic).
            candidates = [
                (index, item)
                for index, item in enumerate(active)
                if item[0].reg.is_float == live.reg.is_float
            ]
            if candidates and candidates[-1][1][0].end > live.end:
                index, (victim, phys) = candidates[-1]
                del register_of[victim.reg]
                spill(victim.reg)
                register_of[live.reg] = phys
                active[index] = (live, phys)
                active.sort(key=lambda item: item[0].end)
            else:
                spill(live.reg)

    return Allocation(register_of, spill_slot_of)
