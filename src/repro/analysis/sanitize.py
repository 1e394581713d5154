"""Sanitizer-instrumented native legs for the differential pipeline.

The verifier and linter prove invariants statically; this module closes the
loop dynamically: every case's **Mini-C source is also valid C**, so it can
be compiled with the host gcc under ``-fsanitize=undefined`` (optionally
``address``) and driven over the same input vectors as the differential
legs.  Any runtime-error report is attributed back to the owning case and
surfaced by the oracle as a first-class observation (category
``"sanitizer"``), distinct from an IO divergence.

The leg is **report-only**: its outputs are never compared against the
interpreter, because gcc compiles the source under C semantics while the
dialect defines several behaviours C leaves undefined.  The sanitizer
flags are trimmed accordingly:

* ``-fwrapv`` / ``-fno-sanitize=signed-integer-overflow`` — the dialect
  wraps two's-complement;
* ``-fno-sanitize=shift-base`` — left-shifting negative values wraps;
* ``-fno-sanitize=float-cast-overflow`` — out-of-range ``f2i`` is defined
  by the IR semantics;
* ``shift-exponent``, ``integer-divide-by-zero`` etc. stay **on**: the
  dialect masks shift counts and traps on division, so a report here marks
  exactly the inputs where C and the dialect part ways — the UB boundary
  the paper's IO-equivalence argument has to respect.

Batching mirrors :class:`repro.testing.native.NativeBatch`: one binary per
batch, ``PAIR n``/``DONE n`` markers to attribute traps, one extra
subprocess per trap/timeout to resume past it.  Unlike the assembly batch,
each case is compiled as its **own translation unit** (``<tag>_caseN.c``)
so typedef names and struct tags cannot collide across cases and sanitizer
reports carry the owning case's file name — that file name *is* the
attribution.  Only external-linkage symbols (defined functions and
non-static globals) need the ``__caseN_`` rename.

Cases whose programs use structs are skipped (``skipped`` records why):
the dialect packs struct layout while gcc pads it, so the packed argument
buffers would be misread under C compilation.
"""

from __future__ import annotations

import re
import struct
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lang import ctypes as ct
from repro.lang.printer import type_to_str
from repro.testing.frontend import CaseContext
from repro.testing.native import BatchExecutionError, _encode_argument

#: UBSan checks disabled because the dialect defines the behaviour.
UNDEFINED_DISABLED = ("shift-base", "signed-integer-overflow", "float-cast-overflow")

#: Scalar arguments are spelled as literals in the instrumented harness;
#: doubles go through their exact bit pattern.
_BITS_HELPER = """
static double bits_to_double(unsigned long long u) {
    union { unsigned long long u; double d; } cvt; cvt.u = u; return cvt.d;
}
"""


def _scalar_literal(value: Any, t: ct.CType) -> str:
    if isinstance(t, ct.FloatType):
        bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        return f"bits_to_double(0x{bits:016x}ULL)"
    wrapped = t.wrap(int(value)) if isinstance(t, ct.IntType) else int(value)
    return f"(long long)0x{wrapped & 0xFFFFFFFFFFFFFFFF:016x}ULL"


def _prototype(
    symbol: str, param_types: Sequence[ct.CType], return_type: ct.CType
) -> str:
    args = ", ".join(
        "double" if isinstance(t, ct.FloatType) else "long long" for t in param_types
    ) or "void"
    if ct.is_void(return_type):
        ret = "void"
    elif isinstance(return_type, ct.FloatType):
        ret = "double"
    else:
        ret = "long long"
    return f"extern {ret} {symbol}({args});"


@dataclass(frozen=True)
class SanitizerConfig:
    """Which sanitizers to build the leg with.

    ``kinds`` is any subset of ``("undefined", "address")``.
    """

    kinds: Tuple[str, ...] = ("undefined",)
    run_timeout: float = 10.0

    def cflags(self) -> List[str]:
        flags: List[str] = []
        if "undefined" in self.kinds:
            flags.append("-fsanitize=undefined")
            flags.append("-fno-sanitize=" + ",".join(UNDEFINED_DISABLED))
        if "address" in self.kinds:
            flags.append("-fsanitize=address")
        flags.append("-fwrapv")
        return flags


@dataclass(frozen=True)
class SanitizerReport:
    """One sanitizer finding, attributed to its owning case."""

    case_index: int
    kind: str  # "runtime" (UBSan, non-fatal) | "fatal" (ASan or hard stop)
    location: str  # "fileN.c:LINE:COL" for runtime reports, "" otherwise
    message: str

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return f"case {self.case_index}{where}: {self.message}"


_REPORT_RE = re.compile(r"([^\s:]+\.c):(\d+):(\d+): runtime error: (.+)")


def parse_sanitizer_reports(
    stderr: str, case_for_file: Dict[str, int]
) -> List[SanitizerReport]:
    """Extract UBSan ``runtime error`` lines and map them to case indices.

    ``case_for_file`` maps translation-unit *file names* (no directory) to
    case indices; reports naming unknown files are dropped.  Duplicate
    (case, location, message) triples — the same site firing on several
    inputs — are collapsed to one report.
    """
    reports: List[SanitizerReport] = []
    seen = set()
    for match in _REPORT_RE.finditer(stderr):
        fname = Path(match.group(1)).name
        case_index = case_for_file.get(fname)
        if case_index is None:
            continue
        location = f"{fname}:{match.group(2)}:{match.group(3)}"
        key = (case_index, location, match.group(4).strip())
        if key in seen:
            continue
        seen.add(key)
        reports.append(
            SanitizerReport(case_index, "runtime", location, match.group(4).strip())
        )
    return reports


def sanitizer_supported(context: CaseContext) -> Optional[str]:
    """None when the case can run under the sanitized C leg, else the reason.

    Structs are the one layout the dialect and gcc disagree on (packed vs
    padded), so any program that declares or names one is skipped.
    """
    if context.program.structs():
        return "program declares a struct (packed vs padded layout)"
    if "struct" in context.source:
        return "program references a struct type (packed vs padded layout)"
    return None


def _mangle(index: int, name: str) -> str:
    return f"__case{index}_{name}"


def _rename_c_symbols(text: str, index: int, names: Sequence[str]) -> str:
    """Whole-word rename of one case's external-linkage symbols.

    Same textual contract as the assembly batch rename: generator- and
    corpus-produced identifiers are plain words that never collide with C
    keywords, so ``\\b``-delimited substitution is sound.  No ``.L`` pass —
    C sources have no assembler-local labels.
    """
    for name in names:
        text = re.sub(rf"\b{re.escape(name)}\b", _mangle(index, name), text)
    return text


def _entry_symbol(index: int) -> str:
    return f"__san{index}_entry"


def _make_wrapper(index: int, context: CaseContext) -> str:
    """An adapter with the harness ABI, defined inside the case's own TU.

    The shared harness calls through ``long long``/``double`` prototypes
    (exactly like the assembly legs), but gcc compiles the case with its
    *real* C parameter types — so the adapter, which sees those types in
    scope, narrows each argument with an explicit cast.  It is emitted
    before the symbol rename, so its call to the entry point is renamed
    together with the definition.
    """
    func = context.function()
    params: List[str] = []
    args: List[str] = []
    for j, param in enumerate(func.params):
        decayed = ct.decay(context.resolve(param.type))
        if isinstance(decayed, ct.FloatType):
            params.append(f"double a{j}")
        else:
            params.append(f"long long a{j}")
        args.append(f"({type_to_str(decayed)})a{j}")
    call = f"{func.name}({', '.join(args)})"
    return_type = context.return_type()
    if ct.is_void(return_type):
        ret, body = "void", f"    {call};"
    elif isinstance(return_type, ct.FloatType):
        ret, body = "double", f"    return (double){call};"
    else:
        ret, body = "long long", f"    return (long long){call};"
    signature = f"{ret} {_entry_symbol(index)}({', '.join(params) or 'void'})"
    return f"{signature} {{\n{body}\n}}\n"


@dataclass
class _SanEntry:
    """Per-case build products of a :class:`SanitizerBatch`."""

    index: int  # the caller's case index
    context: CaseContext
    inputs: List[Tuple]
    filename: str
    globals: List[Tuple[str, int]]  # (original name, byte size), non-static


class SanitizerBatch:
    """Many cases, one sanitizer-instrumented binary, one run per batch.

    ``cases`` is a sequence of objects exposing ``source``, ``name`` and
    ``inputs`` (optionally ``context``).  Cases the leg cannot soundly run
    are recorded in ``skipped`` (case index → reason) rather than built;
    cases gcc rejects as C are skipped the same way after one rebuild.
    """

    PER_PAIR_ALLOWANCE = 0.1

    def __init__(
        self,
        cases: Sequence[Any],
        workdir: Path,
        config: Optional[SanitizerConfig] = None,
        tag: str = "san",
    ) -> None:
        self.config = config if config is not None else SanitizerConfig()
        self.workdir = Path(workdir)
        self.tag = tag
        self.skipped: Dict[int, str] = {}
        self.entries: List[_SanEntry] = []
        self._pairs: List[Tuple[int, int]] = []  # flat -> (entry pos, input index)
        self._reports: Optional[List[SanitizerReport]] = None

        for index, case in enumerate(cases):
            context = getattr(case, "context", None)
            if context is None:
                context = CaseContext(case.source, case.name)
            reason = sanitizer_supported(context)
            if reason is not None:
                self.skipped[index] = reason
                continue
            entry = self._write_case_tu(index, context, list(case.inputs))
            self.entries.append(entry)
        self._build()
        for pos, entry in enumerate(self.entries):
            for input_index in range(len(entry.inputs)):
                self._pairs.append((pos, input_index))

    # -- build ---------------------------------------------------------------

    def _write_case_tu(
        self, index: int, context: CaseContext, inputs: List[Tuple]
    ) -> _SanEntry:
        program = context.program
        defined = [f.name for f in program.functions()]
        globals_decls = [g for g in program.globals() if g.storage != "extern"]
        rename = defined + [g.name for g in globals_decls]
        visible = [
            (g.name, context.global_type(g.name).sizeof())
            for g in globals_decls
            if g.storage != "static"
        ]
        text = context.source + "\n" + _make_wrapper(index, context)
        text = _rename_c_symbols(text, index, rename)
        filename = f"{self.tag}_case{index}.c"
        (self.workdir / filename).write_text(text)
        return _SanEntry(index, context, inputs, filename, visible)

    def _build(self) -> None:
        if not self.entries:
            self.binary = None
            return
        harness_path = self.workdir / f"{self.tag}_main.c"
        harness_path.write_text(self._generate_harness())
        self.binary = self.workdir / self.tag
        sources = [harness_path] + [self.workdir / e.filename for e in self.entries]
        command = (
            ["gcc", "-O0", "-w", "-no-pie"]
            + self.config.cflags()
            + ["-o", str(self.binary), *map(str, sources)]
        )
        try:
            subprocess.run(command, check=True, capture_output=True, timeout=300)
        except subprocess.CalledProcessError as exc:
            # A case gcc rejects as C (the dialect is *almost* a subset)
            # becomes a skip, and the batch is rebuilt once without it.
            stderr = (exc.stderr or b"").decode("utf-8", "replace")
            rejected = [e for e in self.entries if e.filename in stderr]
            if not rejected:
                raise BatchExecutionError(
                    f"sanitizer batch build failed: {stderr[-2000:]}"
                ) from exc
            for entry in rejected:
                self.skipped[entry.index] = "gcc rejected the source as C"
                self.entries.remove(entry)
            self._build()

    def _generate_harness(self) -> str:
        lines = [
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "#include <string.h>",
            "",
        ]
        for entry in self.entries:
            context = entry.context
            lines.append(
                _prototype(
                    _entry_symbol(entry.index),
                    context.param_types(),
                    context.return_type(),
                )
            )
            for gname, gsize in entry.globals:
                lines.append(f"extern unsigned char {_mangle(entry.index, gname)}[];")
                lines.append(
                    f"static unsigned char snap{entry.index}_{gname}[{gsize}];"
                )
        lines.append(_BITS_HELPER)
        lines.append("int main(int argc, char **argv) {")
        lines.append("    long start = argc > 1 ? atol(argv[1]) : 0;")
        lines.append("    long pair = -1;")
        for entry in self.entries:
            for gname, gsize in entry.globals:
                lines.append(
                    f"    memcpy(snap{entry.index}_{gname}, "
                    f"{_mangle(entry.index, gname)}, {gsize});"
                )
        for entry in self.entries:
            param_types = entry.context.param_types()
            for input_index, args in enumerate(entry.inputs):
                call_args: List[str] = []
                decls: List[str] = []
                for j, (value, ptype) in enumerate(zip(args, param_types)):
                    buf = _encode_argument(value, ptype, entry.context.resolve)
                    if buf is None:
                        call_args.append(_scalar_literal(value, ptype))
                    else:
                        cname = f"in{entry.index}_{input_index}_{j}"
                        data = ", ".join(str(b) for b in buf.data)
                        decls.append(
                            f"        static unsigned char {cname}[] = {{ {data} }};"
                        )
                        call_args.append(f"(long long){cname}")
                lines.append("    pair++;")
                lines.append("    if (pair >= start) {")
                lines.extend(decls)
                lines.append('        printf("PAIR %ld\\n", pair); fflush(stdout);')
                for gname, gsize in entry.globals:
                    lines.append(
                        f"        memcpy({_mangle(entry.index, gname)}, "
                        f"snap{entry.index}_{gname}, {gsize});"
                    )
                lines.append(
                    f"        {_entry_symbol(entry.index)}({', '.join(call_args)});"
                )
                lines.append('        printf("DONE %ld\\n", pair); fflush(stdout);')
                lines.append("    }")
        lines.append("    return 0;")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------------

    def _run_from(self, start: int) -> Tuple[Optional[int], str, Optional[int]]:
        remaining = len(self._pairs) - start
        assert self.binary is not None
        try:
            proc = subprocess.run(
                [str(self.binary), str(start)],
                capture_output=True,
                text=True,
                timeout=self.config.run_timeout + self.PER_PAIR_ALLOWANCE * remaining,
            )
            stdout, stderr, returncode = proc.stdout, proc.stderr, proc.returncode
        except subprocess.TimeoutExpired as exc:
            stdout = exc.stdout or ""
            stderr = exc.stderr or ""
            if isinstance(stdout, bytes):
                stdout = stdout.decode("utf-8", "replace")
            if isinstance(stderr, bytes):
                stderr = stderr.decode("utf-8", "replace")
            returncode = None
        inflight: Optional[int] = None
        for line in stdout.splitlines():
            tag, _, payload = line.partition(" ")
            if tag == "PAIR":
                inflight = int(payload)
            elif tag == "DONE":
                inflight = None
        return inflight, stderr, returncode

    def run(self) -> List[SanitizerReport]:
        """Execute every (case, input) pair; return the attributed reports.

        A pair that traps or times out is resumed past, exactly like the
        assembly batch — an ordinary dialect trap (SIGFPE on division by
        zero) is *not* a sanitizer finding, only ``runtime error`` lines
        and fatal sanitizer aborts are.
        """
        if self._reports is not None:
            return self._reports
        reports: List[SanitizerReport] = []
        if not self.entries:
            self._reports = reports
            return reports
        case_for_file = {entry.filename: entry.index for entry in self.entries}
        stderr_parts: List[str] = []
        start = 0
        total = len(self._pairs)
        while start < total:
            inflight, stderr, returncode = self._run_from(start)
            stderr_parts.append(stderr)
            if returncode == 0 and inflight is None:
                break
            if inflight is None:
                raise BatchExecutionError(
                    f"sanitizer binary failed with status {returncode!r} "
                    f"outside any case (started at pair {start})"
                )
            if "Sanitizer" in stderr and returncode not in (0, None):
                pos = self._pairs[inflight][0]
                first = next(
                    (
                        line.strip()
                        for line in stderr.splitlines()
                        if "Sanitizer" in line
                    ),
                    "fatal sanitizer stop",
                )
                reports.append(
                    SanitizerReport(self.entries[pos].index, "fatal", "", first)
                )
            start = inflight + 1
        reports.extend(parse_sanitizer_reports("\n".join(stderr_parts), case_for_file))
        self._reports = reports
        return reports

    def reports_by_case(self) -> Dict[int, List[SanitizerReport]]:
        out: Dict[int, List[SanitizerReport]] = {}
        for report in self.run():
            out.setdefault(report.case_index, []).append(report)
        return out


__all__ = [
    "SanitizerBatch",
    "SanitizerConfig",
    "SanitizerReport",
    "parse_sanitizer_reports",
    "sanitizer_supported",
]
