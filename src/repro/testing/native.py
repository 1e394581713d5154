"""Native build-and-execute harness for compiled Mini-C assembly.

This is the "run the ground truth for real" half of the paper's
IO-equivalence check.  :class:`NativeBatch` compiles N cases into **one**
build per (ISA, opt level) and executes them on a **fork server**: one
process whose control loop reads (case, input) request lines and
``fork()``s per pair.  Each child inherits pristine globals through
copy-on-write, so trap isolation and state reset come for free — a
trapping pair kills only its child, and the server keeps answering
without any re-exec.  The control loop is generic C built **once per
process**, in the background: every native entry point calls
:func:`start_fork_harnesses` as it begins.  On x86 that build links the
only executable of the run, and each batch is a shared object holding no
libc, crt or control-loop code — a small table TU (the cases, their
globals, and a C call stub for each signature too wide for the argument
registers) plus the concatenated assembly — which the server ``dlopen``s.
The ARM leg links the control-loop object into each batch statically and
runs it under one ``qemu-aarch64`` process.

Builds and execution both run in the background.  The build starts when
the batch is constructed; :meth:`NativeBatch.launch` joins it (and, the
first time, the control-loop build) and starts the server **file-fed**:
its stdin is a file holding every request line and its stdout a file of
records, so it answers all pairs without this process driving it, and a
server that dies or wedges is restarted on the pairs it left unanswered.
A one-case batch is the smallest unit of native execution;
:class:`GroupedBatchRunner` — the one native pipeline, shared by the
scorer, the repair search and the fuzz oracle — packs many units into
shared batches as a lazy iterable yields them, keeps three groups in
flight (one executing, two building), and bisects a group that fails to
build (or whose object cannot be loaded) down to the case at fault.  A
failed control-loop build is no case's fault: it is remembered for the
process and charged to every case at once.

Batching shares one process across cases, so per-case symbols are made
unique: the entry point and every global are renamed ``__caseN_<name>``
(whole-word textual rename — safe for generator-produced programs, whose
identifiers never collide with assembly keywords), and local labels get a
per-case prefix.

Argument buffers use the interpreter's packed memory layout (structs have
no padding), so they are encoded/decoded here as raw bytes rather than
declared as C aggregates.  Scalar parameters are passed through ``long
long``/``double`` prototypes: the compiled code expects integer arguments
sign- or zero-extended to the full 64-bit register, which is exactly what
a ``long long`` prototype makes the C caller do.
"""

from __future__ import annotations

import atexit
import collections
import math
import os
import platform
import re
import shutil
import signal
import struct
import subprocess
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.lang import ctypes as ct
from repro.testing.frontend import CaseContext


def have_native_toolchain() -> bool:
    """True when the host can assemble and run x86-64 code."""
    return (
        platform.machine() in ("x86_64", "AMD64")
        and shutil.which("as") is not None
        and shutil.which("gcc") is not None
    )


_toolchain_ids: Dict[str, str] = {}


def _toolchain_id(isa: str) -> str:
    """Compiler identity folded into artifact-cache keys (once per process).

    A compiler upgrade changes the emitted harness ABI/code, so cached
    binaries keyed under the old identity become unreachable rather than
    stale.  ``platform.machine()`` rides along because the same cache
    directory may be shared across differently-architected runners.
    """
    cached = _toolchain_ids.get(isa)
    if cached is not None:
        return cached
    if isa == "arm" and platform.machine() != "aarch64":
        cc = _arm_cross_compiler() or "missing-arm-cc"
    else:
        cc = "gcc"
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        version = proc.stdout.splitlines()[0] if proc.stdout else cc
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = cc
    identity = f"{platform.machine()}:{cc}:{version}"
    _toolchain_ids[isa] = identity
    return identity

def _arm_cross_compiler() -> Optional[str]:
    for cc in ("aarch64-linux-gnu-gcc", "aarch64-unknown-linux-gnu-gcc"):
        if shutil.which(cc):
            return cc
    return None


def _arm_emulator() -> Optional[List[str]]:
    if platform.machine() == "aarch64":
        return []  # run directly on the host
    for emulator in ("qemu-aarch64", "qemu-aarch64-static"):
        if shutil.which(emulator):
            return [emulator]
    return None


def have_arm_toolchain() -> bool:
    """True when AArch64 output can be assembled and executed.

    Either the host itself is aarch64 with a GNU toolchain, or a cross
    compiler plus ``qemu-aarch64`` user-mode emulation is installed.
    """
    if platform.machine() == "aarch64":
        return shutil.which("gcc") is not None
    return _arm_cross_compiler() is not None and _arm_emulator() is not None


# ---------------------------------------------------------------------------
# Packed-byte encoding of Python argument values (mirrors the interpreter's
# marshalling in Interpreter._marshal_argument / read_typed / write_typed).
# ---------------------------------------------------------------------------


def _encode_scalar(value: Any, t: ct.CType) -> bytes:
    if isinstance(t, ct.FloatType):
        return struct.pack("<f" if t.sizeof() == 4 else "<d", float(value))
    size = t.sizeof()
    return (int(value) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def _decode_scalar(data: bytes, t: ct.CType) -> Any:
    if isinstance(t, ct.FloatType):
        return struct.unpack("<f" if t.sizeof() == 4 else "<d", data)[0]
    signed = not (isinstance(t, ct.IntType) and t.unsigned)
    if isinstance(t, (ct.PointerType, ct.ArrayType)):
        signed = False
    return int.from_bytes(data, "little", signed=signed)


@dataclass
class _Buffer:
    """A pointer argument's backing bytes and how to read it back."""

    data: bytearray
    elem: Optional[ct.CType] = None  # list arguments
    count: int = 0
    struct_type: Optional[ct.StructType] = None  # dict arguments
    as_string: bool = False


def _encode_argument(value: Any, ptype: ct.CType, resolve) -> Optional[_Buffer]:
    """Encode a Python pointer-argument into packed bytes (None for scalars)."""
    if isinstance(value, str) and isinstance(ptype, ct.PointerType):
        data = bytearray(len(value) + 16)
        raw = value.encode("latin-1", errors="replace")
        data[: len(raw)] = raw
        return _Buffer(data, elem=ct.CHAR, count=len(value) + 1, as_string=True)
    if isinstance(value, (list, tuple)) and isinstance(ptype, ct.PointerType):
        elem = resolve(ptype.pointee)
        if isinstance(elem, ct.VoidType):
            elem = ct.CHAR
        data = bytearray(max(1, len(value)) * elem.sizeof() + 16)
        for index, item in enumerate(value):
            encoded = _encode_scalar(item, elem)
            data[index * elem.sizeof() : index * elem.sizeof() + len(encoded)] = encoded
        return _Buffer(data, elem=elem, count=len(value))
    if isinstance(value, dict) and isinstance(ptype, ct.PointerType):
        struct_type = resolve(ptype.pointee)
        data = bytearray(max(struct_type.sizeof(), 8) + 8)
        for fname, fvalue in value.items():
            if struct_type.has_field(fname):
                ftype = resolve(struct_type.field_type(fname))
                encoded = _encode_scalar(fvalue, ftype)
                offset = struct_type.field_offset(fname)
                data[offset : offset + len(encoded)] = encoded
        return _Buffer(data, struct_type=struct_type)
    return None


def _decode_buffer(data: bytes, buf: _Buffer, resolve) -> Any:
    if buf.struct_type is not None:
        out: Dict[str, Any] = {}
        for fld in buf.struct_type.fields:
            ftype = resolve(fld.type)
            offset = buf.struct_type.field_offset(fld.name)
            out[fld.name] = _decode_scalar(
                data[offset : offset + ftype.sizeof()], ftype
            )
        return out
    elem = buf.elem or ct.CHAR
    values = [
        _decode_scalar(data[i * elem.sizeof() : (i + 1) * elem.sizeof()], elem)
        for i in range(buf.count)
    ]
    if buf.as_string:
        chars: List[str] = []
        for v in values:
            if v == 0:
                break
            chars.append(chr(int(v) & 0xFF))
        return "".join(chars)
    return values


def _decode_global(data: bytes, gtype: ct.CType) -> Any:
    if isinstance(gtype, ct.ArrayType):
        elem = gtype.element
        return [
            _decode_scalar(data[i * elem.sizeof() : (i + 1) * elem.sizeof()], elem)
            for i in range(gtype.length or 0)
        ]
    return _decode_scalar(data, gtype)


# ---------------------------------------------------------------------------
# C generation helpers
# ---------------------------------------------------------------------------

def _assembly_globals(assembly: str) -> List[Tuple[str, int]]:
    """(name, size) for every global data symbol the assembly defines.

    Covers both zero-filled ``.comm`` symbols and initialised ``.data``
    objects (recognised by their ``.size name, N`` directive; function
    symbols use ``.size name, .-name`` and so never match).
    """
    found = [
        (name, int(size))
        for name, size in re.findall(r"^\t\.comm\t([A-Za-z_]\w*),(\d+)", assembly, re.M)
    ]
    found.extend(
        (name, int(size))
        for name, size in re.findall(
            r"^\t\.size\t([A-Za-z_]\w*), (\d+)$", assembly, re.M
        )
    )
    return found


def _build_command(isa: str, binary: Path, sources: Sequence[Path]) -> List[str]:
    """The command that builds one batch's ``binary`` from ``sources``.

    On x86 that is a shared object holding only the batch: no libc, crt or
    control-loop code, so building it is a compile and a small link, and
    ``-Bsymbolic`` binds the cases' calls to their own definitions.  On ARM
    it is a static executable with the control-loop object linked in.
    """
    if isa == "x86":
        shared = ["-shared", "-nostdlib", "-fPIC", "-Wl,-Bsymbolic"]
        return ["gcc", *shared, "-o", str(binary), *map(str, sources)]
    sources = [_forkserver_harness(isa), *sources]
    if platform.machine() != "aarch64":
        cc = _arm_cross_compiler()
        assert cc is not None, "no AArch64 cross compiler available"
        return [cc, "-static", "-o", str(binary), *map(str, sources)]
    return ["gcc", "-no-pie", "-o", str(binary), *map(str, sources)]


def _server_command(isa: str, binary: Path, timeout_ms: int) -> List[str]:
    """The fork server's command line for one built batch ``binary``.

    On x86 it joins the control-loop build, which loads ``binary`` by its
    absolute path; on ARM the batch is the server, run under qemu unless
    the host is aarch64.
    """
    if isa == "x86":
        return [str(_forkserver_harness(isa)), str(timeout_ms), os.path.abspath(binary)]
    return [*(_arm_emulator() or []), str(binary), str(timeout_ms)]


@dataclass
class NativeResult:
    """Observable state of one native execution."""

    return_value: Any
    arg_values: List[Any]
    globals: Dict[str, Any]


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------


@dataclass
class BatchCase:
    """One case submitted to a :class:`NativeBatch`."""

    source: str
    name: str
    inputs: List[Tuple]
    context: Optional[CaseContext] = None
    #: Pre-compiled assembly (before renaming).  When None the batch
    #: compiles it from the context.
    assembly: Optional[str] = None


@dataclass
class _BatchEntry:
    """Internal per-case build products."""

    case: BatchCase
    context: CaseContext
    symbol: str  # mangled entry-point name
    globals: List[Tuple[str, int]] = field(default_factory=list)  # original names
    buffers: List[List[Optional[_Buffer]]] = field(default_factory=list)


class BatchExecutionError(Exception):
    """The batch binary failed outside any case (infrastructure problem)."""


def _mangle(index: int, name: str) -> str:
    return f"__case{index}_{name}"


def _rename_case_symbols(assembly: str, index: int, names: Sequence[str]) -> str:
    """Make one case's assembly link-safe inside a many-case TU.

    Local labels (``.L...``) get a per-case prefix; the entry point and the
    globals in ``names`` are renamed to their mangled form.  The rename is
    textual but whole-word, which is sound for generator-produced programs:
    their identifiers are fresh (``g4``, ``fuzz_target``) and never collide
    with mnemonics, registers or directives.
    """
    out = re.sub(r"\.L(?=[A-Za-z0-9_])", f".Lc{index}_", assembly)
    for name in names:
        out = re.sub(rf"\b{re.escape(name)}\b", _mangle(index, name), out)
    return out


# ---------------------------------------------------------------------------
# Fork-server harness
# ---------------------------------------------------------------------------

#: Shared declarations between the precompiled control loop and the
#: generated per-batch table.  Repeated verbatim in both TUs.
_FORK_TABLE_DEFS = """\
typedef union { long long i; double d; } mc_val;
typedef struct { const char *name; unsigned char *addr; long size; } mc_global;
typedef struct mc_case mc_case;
struct mc_case {
    void (*call)(const mc_case *c, const mc_val *args, mc_val *ret);
    void (*fn)(void);
    const char *kinds;       /* per parameter: 'i' integer-class, 'd' double */
    int ret_kind;            /* 0 void, 1 integer, 2 double */
    int nargs;
    int nglobals;
    const mc_global *globals;
};
void mc_call_registers(const mc_case *c, const mc_val *args, mc_val *ret);
"""

#: The x86 control loop's exit status when it cannot load its batch object.
_LOAD_FAILED = 3

#: The generic control loop, built once per (ISA, process).  On x86 it is
#: linked into an executable (``-DMC_DLOPEN``) that ``dlopen``s the batch's
#: shared object named by its second argument and reads that object's
#: ``mc_cases`` table through ``dlsym``; the object calls back into the
#: exported ``mc_call_registers``.  An object it cannot load makes it print
#: the loader's message and exit with ``MC_LOAD_FAILED`` before it reads any
#: request.  On ARM it is compiled into an object file that every batch
#: links statically against its table.  The parent never runs case code:
#: it parses one request line into an argument array sized by the case's
#: table row, ``fork()``s, and the child calls the case through the call
#: stub its row names.
#:
#: ``mc_call_registers`` is the stub of every signature whose parameters
#: travel in registers: at most six integer-class and six double
#: parameters.  Both SysV x86-64 and AAPCS64 assign integer-class and FP
#: argument registers in order and independently of each other, so the
#: callee finds each argument exactly where the 12-argument prototype puts
#: it, and the unused argument registers hold zeros.  Wider signatures get
#: a stub generated into the batch's table (:func:`_call_stub`): compiling
#: any function there costs every build several milliseconds, which the
#: common case should not pay.
_FORK_HARNESS_C = (
    """\
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef MC_DLOPEN
#include <dlfcn.h>
#include <elf.h>
#include <sys/stat.h>
#endif

"""
    + _FORK_TABLE_DEFS
    + f"#define MC_LOAD_FAILED {_LOAD_FAILED}\n"
    + """\
#ifdef MC_DLOPEN
static const mc_case *mc_cases;
static int mc_case_count;

/* 1 when every loadable segment of the ELF object at path lies inside the
   file.  dlopen maps a truncated object without complaint, and the first
   touch past its end raises SIGBUS. */
static int mc_whole_object(const char *path) {
    FILE *f = fopen(path, "rb");
    struct stat st;
    Elf64_Ehdr eh;
    if (!f) return 1; /* dlopen reports it */
    int ok = fstat(fileno(f), &st) == 0 && fread(&eh, sizeof eh, 1, f) == 1
             && eh.e_phentsize == sizeof(Elf64_Phdr)
             && fseek(f, (long)eh.e_phoff, SEEK_SET) == 0;
    for (int i = 0; ok && i < eh.e_phnum; i++) {
        Elf64_Phdr ph;
        ok = fread(&ph, sizeof ph, 1, f) == 1
             && (ph.p_type != PT_LOAD || ph.p_offset + ph.p_filesz <= (Elf64_Off)st.st_size);
    }
    fclose(f);
    return ok;
}
#else
extern const mc_case mc_cases[];
extern const int mc_case_count;
#endif

typedef long long (*mc_ifn)(long long, long long, long long, long long, long long,
                            long long, double, double, double, double, double, double);
typedef double (*mc_dfn)(long long, long long, long long, long long, long long,
                         long long, double, double, double, double, double, double);

void mc_call_registers(const mc_case *c, const mc_val *a, mc_val *r) {
    long long ia[6] = {0};
    double da[6] = {0};
    int ni = 0, nd = 0;
    for (int j = 0; j < c->nargs; j++) {
        if (c->kinds[j] == 'd')
            da[nd++] = a[j].d;
        else
            ia[ni++] = a[j].i;
    }
    if (c->ret_kind == 2)
        r->d = ((mc_dfn)c->fn)(ia[0], ia[1], ia[2], ia[3], ia[4], ia[5],
                               da[0], da[1], da[2], da[3], da[4], da[5]);
    else if (c->ret_kind == 1)
        r->i = ((mc_ifn)c->fn)(ia[0], ia[1], ia[2], ia[3], ia[4], ia[5],
                               da[0], da[1], da[2], da[3], da[4], da[5]);
    else
        ((mc_ifn)c->fn)(ia[0], ia[1], ia[2], ia[3], ia[4], ia[5],
                        da[0], da[1], da[2], da[3], da[4], da[5]);
}

static volatile sig_atomic_t mc_alarm_fired;
static void mc_on_alarm(int sig) { (void)sig; mc_alarm_fired = 1; }

static void mc_dump_hex(const unsigned char *p, long n) {
    if (n == 0) { printf("-\\n"); return; }
    for (long i = 0; i < n; i++) printf("%02x", p[i]);
    printf("\\n");
}

static int mc_hex_nibble(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
}

static void mc_free_args(mc_val *args, unsigned char **argbuf, long *arglen, int n) {
    for (int j = 0; j < n; j++) free(argbuf[j]);
    free(args);
    free(argbuf);
    free(arglen);
}

static char mc_line[1 << 20];

int main(int argc, char **argv) {
    long timeout_ms = argc > 1 ? atol(argv[1]) : 10000;
#ifdef MC_DLOPEN
    const char *why = argc < 3 ? "no batch object named"
                      : !mc_whole_object(argv[2]) ? "batch object is not a whole ELF file"
                      : 0;
    void *batch = why ? 0 : dlopen(argv[2], RTLD_NOW);
    const int *count = batch ? dlsym(batch, "mc_case_count") : 0;
    mc_cases = batch ? dlsym(batch, "mc_cases") : 0;
    if (!count || !mc_cases) {
        if (!why) why = dlerror();
        printf("%s\\n", why ? why : "batch object has no case table");
        return MC_LOAD_FAILED;
    }
    mc_case_count = *count;
#endif
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = mc_on_alarm; /* no SA_RESTART: waitpid must see EINTR */
    sigaction(SIGALRM, &sa, 0);

    while (fgets(mc_line, sizeof mc_line, stdin)) {
        char *tok = strtok(mc_line, " \\n");
        if (!tok || strcmp(tok, "R") != 0) continue;
        tok = strtok(NULL, " \\n");
        int case_index = tok ? atoi(tok) : -1;
        tok = strtok(NULL, " \\n");
        int nargs = tok ? atoi(tok) : -1;
        int bad = case_index < 0 || case_index >= mc_case_count;
        const mc_case *c = bad ? 0 : &mc_cases[case_index];
        if (!bad && (nargs < 0 || nargs > c->nargs)) bad = 1;
        /* Missing trailing arguments stay zero, as calloc leaves them. */
        int slots = bad ? 1 : c->nargs + 1;
        mc_val *args = calloc(slots, sizeof *args);
        unsigned char **argbuf = calloc(slots, sizeof *argbuf);
        long *arglen = calloc(slots, sizeof *arglen);
        for (int j = 0; !bad && j < nargs; j++) {
            tok = strtok(NULL, " \\n");
            if (!tok) { bad = 1; break; }
            if (tok[0] == 'i') {
                args[j].i = (long long)strtoull(tok + 1, 0, 16);
            } else if (tok[0] == 'd') {
                union { unsigned long long u; double d; } cvt;
                cvt.u = strtoull(tok + 1, 0, 16);
                args[j].d = cvt.d;
            } else if (tok[0] == 'b') {
                long n = (long)strlen(tok + 1) / 2;
                unsigned char *p = malloc(n ? n : 1);
                argbuf[j] = p;
                arglen[j] = n;
                args[j].i = (long long)p;
                for (long k = 0; k < n; k++) {
                    int hi = mc_hex_nibble(tok[1 + 2 * k]);
                    int lo = mc_hex_nibble(tok[2 + 2 * k]);
                    if (hi < 0 || lo < 0) { bad = 1; break; }
                    p[k] = (unsigned char)((hi << 4) | lo);
                }
            } else {
                bad = 1;
            }
        }
        if (bad) {
            mc_free_args(args, argbuf, arglen, slots);
            printf("\\nDONE bad-request\\n");
            fflush(stdout);
            continue;
        }
        /* The child inherits the stdout buffer: make sure it is empty so a
           fork never duplicates parent output. */
        fflush(stdout);
        pid_t pid = fork();
        if (pid < 0) {
            mc_free_args(args, argbuf, arglen, slots);
            printf("\\nDONE fork-failed\\n");
            fflush(stdout);
            continue;
        }
        if (pid == 0) {
            mc_val r;
            r.i = 0;
            c->call(c, args, &r);
            if (c->ret_kind == 2)
                printf("RETF %.17g\\n", r.d);
            else if (c->ret_kind == 1)
                printf("RET %lld\\n", r.i);
            for (int j = 0; j < nargs; j++)
                if (argbuf[j]) { printf("ARG%d ", j); mc_dump_hex(argbuf[j], arglen[j]); }
            for (int g = 0; g < c->nglobals; g++) {
                printf("GLB:%s ", c->globals[g].name);
                mc_dump_hex(c->globals[g].addr, c->globals[g].size);
            }
            fflush(stdout);
            _exit(0);
        }
        mc_alarm_fired = 0;
        struct itimerval itv;
        memset(&itv, 0, sizeof itv);
        itv.it_value.tv_sec = timeout_ms / 1000;
        itv.it_value.tv_usec = (timeout_ms % 1000) * 1000;
        setitimer(ITIMER_REAL, &itv, 0);
        int status = 0, timed_out = 0;
        for (;;) {
            pid_t r = waitpid(pid, &status, 0);
            if (r == pid) break;
            if (r < 0 && errno == EINTR) {
                if (mc_alarm_fired) { mc_alarm_fired = 0; timed_out = 1; kill(pid, SIGKILL); }
                continue;
            }
            if (r < 0) { status = 0; break; }
        }
        memset(&itv, 0, sizeof itv);
        setitimer(ITIMER_REAL, &itv, 0);
        mc_free_args(args, argbuf, arglen, slots);
        /* The leading newline terminates any partial line a killed child
           left behind, so DONE always starts a fresh line. */
        if (timed_out)
            printf("\\nDONE timeout\\n");
        else if (WIFSIGNALED(status))
            printf("\\nDONE %d\\n", -WTERMSIG(status));
        else
            printf("\\nDONE %d\\n", WEXITSTATUS(status));
        fflush(stdout);
    }
    return 0;
}
"""
)

#: Built control loops: ISA -> the x86 executable or the ARM object file.
_harnesses: Dict[str, Path] = {}
#: Control-loop builds started but not yet joined: ISA -> (gcc, product).
_harness_builds: Dict[str, Tuple[subprocess.Popen, Path]] = {}
#: Control-loop builds that failed: every later need re-raises the failure.
_harness_failures: Dict[str, "HarnessBuildError"] = {}
_harness_dir: Optional[Path] = None
#: Guards starting and joining the builds: threads that need the control
#: loop at once run one build per ISA and all use the finished product.
_harness_lock = threading.Lock()


class HarnessBuildError(subprocess.CalledProcessError):
    """The fork-server control loop failed to build (compile, link, or a
    build past its deadline).

    It is the whole ISA's failure, not a case's: it is remembered for the
    rest of the process, every batch of that ISA fails with it without
    building, and no runner bisects it.
    """


def _discard_harnesses(directory: Path) -> None:
    """At exit: stop and reap any build still running, then remove the
    harness dir.

    The build runs in its own process group, and SIGTERM reaches all of
    it: the gcc driver deletes its temp files on SIGTERM, while SIGKILL
    left a ``cc*.s`` in ``TMPDIR`` and ``cc1`` running on.
    """
    for proc, _ in list(_harness_builds.values()):
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
    _harness_builds.clear()
    shutil.rmtree(directory, ignore_errors=True)


def _start_harness_build(isa: str) -> None:
    """Start building the control loop for ``isa`` unless it is built,
    building or failed: on x86 ``gcc`` links the executable that
    ``dlopen``s batch objects, on ARM ``gcc -c`` compiles the object every
    batch links in.  The caller holds ``_harness_lock``."""
    global _harness_dir
    if isa in _harnesses or isa in _harness_builds or isa in _harness_failures:
        return
    if _harness_dir is None:
        _harness_dir = Path(tempfile.mkdtemp(prefix="mc_forkserver_"))
        atexit.register(_discard_harnesses, _harness_dir)
    source = _harness_dir / f"forkserver_{isa}.c"
    source.write_text(_FORK_HARNESS_C)
    if isa == "x86":
        # Unoptimised: a pair's cost is its fork, and -O2 would add ~100 ms
        # of CPU to a build the first batch may wait on.
        product = _harness_dir / f"forkserver_{isa}"
        command = ["gcc", "-O0", "-DMC_DLOPEN", "-rdynamic", "-o", str(product)]
        command += [str(source), "-ldl"]
    else:
        product = _harness_dir / f"forkserver_{isa}.o"
        if platform.machine() != "aarch64":
            cc = _arm_cross_compiler()
            assert cc is not None, "no AArch64 cross compiler available"
        else:
            cc = "gcc"
        command = [cc, "-O2", "-c", "-o", str(product), str(source)]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    _harness_builds[isa] = (proc, product)


def _raise_harness_failure(isa: str) -> None:
    """Raise the remembered control-loop failure of ``isa``, if any (a
    fresh copy each time, so tracebacks do not pile up on one object)."""
    failure = _harness_failures.get(isa)
    if failure is not None:
        raise HarnessBuildError(failure.returncode, failure.cmd, failure.output, failure.stderr)


def _forkserver_harness(isa: str) -> Path:
    """The control loop built for ``isa``, once per process: the x86
    executable, or the ARM object file.

    Joins the build :func:`start_fork_harnesses` started, or starts one
    and joins it.  A build that fails or runs past 120 s raises
    :class:`HarnessBuildError`, and so does every later call in this
    process.  A build that cannot start raises ``OSError`` and is tried
    again by the next call.
    """
    with _harness_lock:
        cached = _harnesses.get(isa)
        if cached is not None:
            return cached
        _raise_harness_failure(isa)
        _start_harness_build(isa)
        proc, product = _harness_builds.pop(isa)
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        if proc.returncode != 0:
            _harness_failures[isa] = HarnessBuildError(proc.returncode, proc.args, stdout, stderr)
            _raise_harness_failure(isa)
        _harnesses[isa] = product
        return product


def _runnable_isas(isas: Sequence[str]) -> List[str]:
    """The ISAs of ``isas`` this host can run natively, deduplicated."""
    return [
        isa
        for isa in dict.fromkeys(isas)
        if (isa == "x86" and have_native_toolchain()) or (isa == "arm" and have_arm_toolchain())
    ]


def start_fork_harnesses(isas: Sequence[str]) -> None:
    """Start building the fork-server control loop in the background for
    each of ``isas`` this host can run (other names, such as ``"none"``,
    are skipped).

    Every native entry point calls this as it begins, so gcc runs while
    the main thread stages the first groups.  The first batch to launch
    (x86) or to build (ARM) joins it; batch builds on x86 never wait for
    it, because their objects hold no control-loop code.  A build still
    running at exit is killed and reaped.  A build that cannot start is
    left to the first batch, which starts it again.
    """
    with _harness_lock:
        for isa in _runnable_isas(isas):
            try:
                _start_harness_build(isa)
            except OSError:
                pass


def prepare_fork_harnesses(isas: Sequence[str]) -> None:
    """Build the fork-server control loop for each of ``isas`` this host
    can run, and wait for it: join any build already started.

    Call it before forking a ``multiprocessing`` pool: the workers then
    inherit the finished products instead of each building its own into a
    temp dir, which would leak, because pool workers exit without running
    ``atexit``.  A build still in flight cannot cross the fork either: the
    worker could not wait on its parent's child.  The parent's ``atexit``
    removes the one shared dir.  A failed build does not raise here: the
    workers inherit the remembered failure, and every batch is charged it.
    """
    for isa in _runnable_isas(isas):
        try:
            _forkserver_harness(isa)
        except BATCH_FAILURES:
            pass


def _forkserver_ret_kind(return_type: ct.CType) -> int:
    if ct.is_void(return_type):
        return 0
    if isinstance(return_type, ct.FloatType):
        return 2
    return 1


#: Integer-class and double parameters ``mc_call_registers`` passes.
_REGISTER_ARGS = 6


def _kinds(param_types: Sequence[ct.CType]) -> str:
    """Per parameter: ``d`` for a double, ``i`` for integer-class."""
    return "".join("d" if isinstance(t, ct.FloatType) else "i" for t in param_types)


def _call_stub(name: str, kinds: str, ret_kind: int) -> str:
    """The C call stub for cases whose signature is too wide for
    ``mc_call_registers``.

    The stub casts the case's entry point to its prototype, so the
    compiler applies the ABI — stack-passed arguments included — on both
    ISAs.  Cases of one signature share a stub.  Trailing zero arguments
    pad a class that has fewer than six parameters up to six, so unused
    argument registers hold zeros here too.
    """
    ints = kinds.count("i")
    padded = (
        kinds
        + "i" * max(0, _REGISTER_ARGS - ints)
        + "d" * max(0, _REGISTER_ARGS - (len(kinds) - ints))
    )
    params = ", ".join("double" if kind == "d" else "long long" for kind in padded)
    args = [f"a[{j}].{kind}" for j, kind in enumerate(kinds)]
    args += ["0"] * (len(padded) - len(kinds))
    ret = ("void", "long long", "double")[ret_kind]
    call = f"(({ret} (*)({params}))c->fn)({', '.join(args)})"
    body = (f"(void)r; {call};", f"r->i = {call};", f"r->d = {call};")[ret_kind]
    return (
        f"static void {name}(const mc_case *c, const mc_val *a, mc_val *r) "
        f"{{ {body} }}"
    )


def _request_token(value: Any, ptype: ct.CType, buf: Optional[_Buffer]) -> str:
    """One request-line token: raw bits of a scalar, hex of a buffer."""
    if buf is not None:
        return "b" + bytes(buf.data).hex()
    if isinstance(ptype, ct.FloatType):
        bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        return f"d{bits:016x}"
    wrapped = ptype.wrap(int(value)) if isinstance(ptype, ct.IntType) else int(value)
    return f"i{wrapped & 0xFFFFFFFFFFFFFFFF:016x}"


#: Every live fork server, so abnormal interpreter exits (unhandled
#: exception, KeyboardInterrupt unwinding past the batch) still reap the
#: server process groups instead of leaking them — previously only the
#: harness *directory* had an atexit hook, never the live children.
_live_servers: "weakref.WeakSet[_ForkServer]" = weakref.WeakSet()


def _kill_live_servers() -> None:
    for server in list(_live_servers):
        server.kill()


atexit.register(_kill_live_servers)


class _ForkServer:
    """One harness process group, fed from a request file and writing an
    output file.

    The process runs in its own session (= its own process group), so
    :meth:`kill` can take down the server *and* any in-flight forked child
    (or the qemu-emulated ARM server's children) with one ``killpg`` —
    a plain ``proc.kill()`` would orphan them.
    """

    def __init__(self, command: Sequence[str], stdin: BinaryIO, stdout: BinaryIO) -> None:
        self.proc = subprocess.Popen(
            list(command),
            stdin=stdin,
            stdout=stdout,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self._reaped = False
        _live_servers.add(self)

    def kill(self) -> None:
        """SIGKILL the whole server process group and reap the leader.

        The group kill runs even when the server already exited: a child
        forked for the in-flight pair lives in the same group and must not
        survive its parent.  A vanished group is not an error.  After one
        successful group kill + reap the method is a no-op — the pid (and
        therefore the pgid) may be recycled by then.
        """
        if self._reaped:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                self.proc.kill()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5)
            self._reaped = True
        except (OSError, subprocess.TimeoutExpired):
            pass

    def __del__(self) -> None:
        try:
            self.kill()
        except Exception:
            pass


class NativeBatch:
    """Many cases, one build per (ISA, opt level), one fork server per leg.

    The build holds a generated table — the cases, their globals, and a
    call stub for each signature too wide for the argument registers — and
    the cases' assembly.  On x86 it is a libc-free shared object
    (``<tag>_x86_<opt>.so``) that the process-wide control loop loads by
    absolute path; on ARM it is a static executable with the control loop
    linked in.  The server forks per (case, input) request, and each child
    calls its case's stub and dumps the observable state.  Children
    inherit pristine globals by copy-on-write, so no snapshot or restore is
    needed, and a trap costs one dead child instead of a process relaunch.

    Everything runs in the background.  Constructing a batch starts its
    build (``ensure_built()`` joins it, and on x86 the control-loop build
    too).  :meth:`launch` joins the builds and starts the server
    file-fed: stdin is a file holding every request line, stdout a file
    next to the build, so the server answers all pairs while this process
    does other work.  :meth:`outcome` launches the batch if no caller has,
    waits for the server and parses its records.  A server that ends with
    pairs unanswered — killed, or past its deadline of ``run_timeout +
    PER_PAIR_ALLOWANCE`` per pair still to run plus ``SERVER_GRACE`` — is
    restarted on the unanswered pairs; a pair it dies on more than
    ``MAX_PAIR_RETRIES`` times in a row is charged ``limit``.  A build
    failure is the whole batch's, and so is an object the server cannot
    load (it exits with its own status before reading a request, and the
    batch raises ``CalledProcessError`` with the loader's message):
    :class:`GroupedBatchRunner` bisects either down to the case at fault.
    A failed control-loop build (:class:`HarnessBuildError`) fails the
    batch at construction or launch and is never bisected.

    A case brings its assembly (the fuzz oracle's, possibly rewritten by
    its ``asm_transform``) or has it emitted from its context here.
    Callers go through :class:`GroupedBatchRunner`, which constructs every
    batch.
    """

    def __init__(
        self,
        cases: Sequence[BatchCase],
        opt_level: str,
        workdir: Path,
        isa: str = "x86",
        run_timeout: float = 10.0,
        tag: str = "batch",
        cache=None,
    ) -> None:
        self.opt_level = opt_level
        self.isa = isa
        self.run_timeout = run_timeout
        self._timeout_ms = _timer_ms(run_timeout)
        self.entries: List[_BatchEntry] = []
        self._pairs: List[Tuple[int, int]] = []  # flat -> (case, input)
        self._outcomes: Optional[Dict[Tuple[int, int], Tuple[str, Any]]] = None
        self._failure: Optional[Exception] = None
        self._requests: List[str] = []
        self._build_proc: Optional[subprocess.Popen] = None
        self._build_error: Optional[Exception] = None
        self._build_cmd: List[str] = []
        self._cache = cache
        self._cache_key: Optional[str] = None
        # Lifecycle state: close() may race an executing thread, so the
        # live server handle is swapped under a lock.
        self._server: Optional[_ForkServer] = None
        #: (first pair, deadline) of the last server started.
        self._launched: Optional[Tuple[int, float]] = None
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        #: The server's command line, known once the batch is built.
        self._command: Optional[List[str]] = None
        _raise_harness_failure(isa)

        asm_parts: List[str] = []
        for index, case in enumerate(cases):
            context = case.context if case.context is not None else CaseContext(
                case.source, case.name
            )
            assembly = (
                case.assembly
                if case.assembly is not None
                else context.assembly(isa, opt_level)
            )
            entry = _BatchEntry(case, context, _mangle(index, case.name))
            entry.globals = _assembly_globals(assembly)
            asm_parts.append(
                _rename_case_symbols(
                    assembly, index, [case.name] + [g for g, _ in entry.globals]
                )
            )
            self.entries.append(entry)
            for input_index in range(len(case.inputs)):
                self._pairs.append((index, input_index))

        asm_text = "\n".join(asm_parts)
        stem = f"{tag}_{isa}_{opt_level}"
        self.binary = workdir / (stem + ".so" if isa == "x86" else stem)
        # The table is produced even on a cache hit: _generate_table also
        # encodes the request lines and argument buffers execution needs,
        # and its text is part of the cache key.
        table = self._generate_table()
        if cache is not None:
            # The product kind is keyed too: an x86 entry holds a shared
            # object, never an executable cached by a static-link build.
            kind = "shared" if isa == "x86" else "fork"
            self._cache_key = cache.key(
                "binary", isa, kind, _toolchain_id(isa), asm_text, table
            )
            if cache.get_file("binary", self._cache_key, self.binary):
                self._cache_key = None  # satisfied: nothing to store later
                return
        asm_path = workdir / f"{stem}.s"
        asm_path.write_text(asm_text)
        table_path = workdir / f"{stem}_table.c"
        table_path.write_text(table)
        build = _build_command(isa, self.binary, [table_path, asm_path])
        self._build_cmd = build
        self._build_proc = subprocess.Popen(
            build, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )

    def ensure_built(self) -> None:
        """Join the asynchronous build and the control-loop build the
        server needs (x86), raising on compiler failure.

        A failed control loop is raised in preference to the batch's own
        failure: a toolchain that fails both is charged once, as the
        control loop's, instead of being bisected case by case.
        """
        if self._build_error is not None:
            raise self._build_error
        proc, self._build_proc = self._build_proc, None
        if proc is not None:
            try:
                stdout, stderr = proc.communicate(
                    timeout=batch_build_timeout(self.run_timeout, len(self._pairs))
                )
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
            if proc.returncode != 0:
                self._build_error = subprocess.CalledProcessError(
                    proc.returncode, self._build_cmd, stdout, stderr
                )
            elif self._cache is not None and self._cache_key is not None:
                self._cache.put_file("binary", self._cache_key, self.binary)
                self._cache_key = None
        if self._command is None:
            self._command = _server_command(self.isa, self.binary, self._timeout_ms)
        if self._build_error is not None:
            raise self._build_error

    def close(self) -> None:
        """Release every live child process owned by this batch.

        Kills the in-flight fork server's process group (server plus any
        forked child) and reaps a still-running asynchronous build.  After
        closing, :meth:`outcome` raises :class:`BatchExecutionError` —
        results already drained remain readable by whoever holds them.
        Idempotent, and safe to call from a thread other than the one
        executing the batch (the service's shutdown path does exactly
        that).
        """
        with self._lifecycle_lock:
            self._closed = True
            server, self._server = self._server, None
        if server is not None:
            server.kill()
        if self._build_proc is not None:
            self._build_proc.kill()
            self._build_proc.communicate()
            self._build_proc = None
            self._build_error = BatchExecutionError("batch abandoned")

    def __enter__(self) -> "NativeBatch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # Backstop for abnormal unwinds that skip the context manager; the
        # getattr guards cover objects whose __init__ itself failed.
        if getattr(self, "_lifecycle_lock", None) is None:
            return
        try:
            self.close()
        except Exception:
            pass

    # -- C generation --------------------------------------------------------

    def _generate_table(self) -> str:
        """The per-batch table TU linked against the control loop.

        Also encodes every (case, input) pair into its request line and
        records the argument buffers the results are decoded against.
        """
        lines = [_FORK_TABLE_DEFS]
        stubs: Dict[Tuple[str, int], str] = {}
        rows: List[str] = []
        for index, entry in enumerate(self.entries):
            context = entry.context
            kinds = _kinds(context.param_types())
            ret_kind = _forkserver_ret_kind(context.return_type())
            ints = kinds.count("i")
            if ints <= _REGISTER_ARGS and len(kinds) - ints <= _REGISTER_ARGS:
                stub = "mc_call_registers"
            else:
                if (kinds, ret_kind) not in stubs:
                    stubs[(kinds, ret_kind)] = f"mc_call_{len(stubs)}"
                    lines.append(_call_stub(stubs[(kinds, ret_kind)], kinds, ret_kind))
                stub = stubs[(kinds, ret_kind)]
            lines.append(f"extern void {entry.symbol}(void);")
            for gname, _ in entry.globals:
                lines.append(f"extern unsigned char {_mangle(index, gname)}[];")
            if entry.globals:
                cells = ", ".join(
                    f'{{ "{gname}", {_mangle(index, gname)}, {gsize} }}'
                    for gname, gsize in entry.globals
                )
                lines.append(
                    f"static const mc_global mc_globals_{index}[] = {{ {cells} }};"
                )
            globals_ref = f"mc_globals_{index}" if entry.globals else "0"
            rows.append(
                f'    {{ {stub}, {entry.symbol}, "{kinds}", {ret_kind}, '
                f"{len(kinds)}, {len(entry.globals)}, {globals_ref} }},"
            )
        lines.append("const mc_case mc_cases[] = {")
        lines.extend(rows)
        lines.append("};")
        lines.append(f"const int mc_case_count = {len(self.entries)};")

        # Requests are emitted in flat-pair order: cases in batch order,
        # each case's input vectors in order — exactly ``self._pairs``.
        self._requests = []
        for case_index, entry in enumerate(self.entries):
            param_types = entry.context.param_types()
            entry.buffers = []
            for args in entry.case.inputs:
                buffers: List[Optional[_Buffer]] = []
                tokens: List[str] = []
                for value, ptype in zip(args, param_types):
                    buf = _encode_argument(value, ptype, entry.context.resolve)
                    buffers.append(buf)
                    tokens.append(_request_token(value, ptype, buf))
                entry.buffers.append(buffers)
                self._requests.append(
                    " ".join(["R", str(case_index), str(len(tokens)), *tokens]) + "\n"
                )
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------------

    #: Wall-clock allowance per (case, input) pair on top of ``run_timeout``
    #: in the build deadline (:func:`batch_build_timeout`) and the server
    #: deadline.  A healthy pair runs in microseconds; this exists so a
    #: batch of hundreds of pairs (or slow qemu-emulated legs) is not held
    #: to a single pair's budget.
    PER_PAIR_ALLOWANCE = 0.1

    #: Seconds a server may run past its per-pair budget before it is
    #: taken for wedged, killed and charged as dead.
    SERVER_GRACE = 30.0

    #: Restarts tolerated per pair before that pair is charged ``limit``.
    MAX_PAIR_RETRIES = 2

    def _file(self, suffix: str) -> Path:
        """The server's request (``.req``) or output (``.out``) file."""
        return self.binary.with_name(self.binary.name + suffix)

    def launch(self) -> None:
        """Join the build and start the fork server on every pair, in the
        background.  Idempotent; a failed build (or a closed batch) is
        kept for :meth:`outcome` to raise."""
        if self._launched is None and self._failure is None:
            try:
                self.ensure_built()
                self._spawn_server(0)
            except BATCH_FAILURES as exc:
                self._failure = exc

    def _spawn_server(self, start: int) -> None:
        """Start a server, registered for close(), on the pairs from
        ``start`` on: their request lines are its stdin file."""
        requests = self._file(".req")
        requests.write_text("".join(self._requests[start:]))
        assert self._command is not None
        with self._lifecycle_lock:
            if self._closed:
                raise BatchExecutionError("batch closed")
            with open(requests, "rb") as stdin, open(self._file(".out"), "wb") as stdout:
                self._server = _ForkServer(self._command, stdin, stdout)
        budget = (self.run_timeout + self.PER_PAIR_ALLOWANCE) * (len(self._pairs) - start)
        self._launched = (start, time.monotonic() + budget + self.SERVER_GRACE)

    def _execute(self) -> None:
        if self._outcomes is not None:
            return
        self.launch()
        if self._failure is None:
            try:
                self._outcomes = self._collect()
            except Exception as exc:
                self._failure = exc
        if self._failure is not None:
            raise self._failure

    def _collect(self) -> Dict[Tuple[int, int], Tuple[str, Any]]:
        """Wait for the server and decode its records, restarting it on
        the pairs it left unanswered."""
        outcomes: Dict[Tuple[int, int], Tuple[str, Any]] = {}
        deaths = 0
        while True:
            assert self._launched is not None
            start, deadline = self._launched
            server = self._server
            while server is not None and server.proc.poll() is None:
                if time.monotonic() >= deadline:
                    break  # wedged: killed below and charged as a death
                time.sleep(0.001)
            with self._lifecycle_lock:
                server, self._server = self._server, None
            if server is not None:
                server.kill()
            if self._closed:
                raise BatchExecutionError("batch closed")
            answered = self._records()
            if not answered and server is not None and server.proc.returncode == _LOAD_FAILED:
                # Nothing ran: the object cannot be loaded (truncated, or a
                # symbol no definition resolves), which fails the build as
                # a link error would, with the loader's message as stderr.
                raise subprocess.CalledProcessError(
                    _LOAD_FAILED, server.proc.args, b"", self._file(".out").read_bytes()
                )
            for flat, (code, record) in enumerate(answered, start):
                outcomes[self._pairs[flat]] = self._pair_outcome(flat, code, record)
            flat = start + len(answered)
            if flat < len(self._pairs):
                # The server died (or wedged) on pair ``flat``.  One that
                # does so on every attempt (e.g. a crash before its
                # response is flushed) is charged to *that pair*, and the
                # rest of the batch proceeds on a fresh server.
                deaths = (0 if answered else deaths) + 1
                if deaths > self.MAX_PAIR_RETRIES:
                    outcomes[self._pairs[flat]] = (
                        "limit",
                        f"fork server died {deaths} times on this pair",
                    )
                    flat, deaths = flat + 1, 0
            if flat == len(self._pairs):
                return outcomes
            self._spawn_server(flat)

    def _records(self) -> List[Tuple[str, List[str]]]:
        """(DONE code, record lines) of every pair the last server
        answered; an unterminated last line is the in-flight pair's."""
        answered: List[Tuple[str, List[str]]] = []
        record: List[str] = []
        text = self._file(".out").read_bytes().decode("utf-8", "replace")
        for line in text.split("\n")[:-1]:
            if line.startswith("DONE "):
                answered.append((line[5:], record))
                record = []
            elif line:
                record.append(line)
        return answered

    def _pair_outcome(self, flat: int, code: str, record: List[str]) -> Tuple[str, Any]:
        if code == "0":
            return self._decode_pair(flat, record)
        if code == "timeout":
            return ("limit", "execution timeout")
        try:
            return ("trap", f"exit status {int(code)}")
        except ValueError:
            raise BatchExecutionError(f"fork server rejected pair {flat}: {code}") from None

    def _decode_pair(self, flat: int, record: List[str]) -> Tuple[str, Any]:
        case_index, input_index = self._pairs[flat]
        entry = self.entries[case_index]
        return_type = entry.context.return_type()
        return_value: Any = None
        arg_values: List[Any] = list(entry.case.inputs[input_index])
        global_values: Dict[str, Any] = {}
        for line in record:
            tag, _, payload = line.partition(" ")
            if tag == "RET":
                raw = int(payload)
                if isinstance(return_type, ct.IntType):
                    raw = return_type.wrap(raw)
                return_value = raw
            elif tag == "RETF":
                return_value = float(payload)
            elif tag.startswith("ARG"):
                j = int(tag[3:])
                buf = entry.buffers[input_index][j]
                data = b"" if payload == "-" else bytes.fromhex(payload)
                if buf is not None:
                    arg_values[j] = _decode_buffer(data, buf, entry.context.resolve)
            elif tag.startswith("GLB:"):
                gname = tag[4:]
                data = b"" if payload == "-" else bytes.fromhex(payload)
                global_values[gname] = _decode_global(
                    data, entry.context.global_type(gname)
                )
        return ("ok", NativeResult(return_value, arg_values, global_values))

    def outcome(self, case_index: int, input_index: int) -> Tuple[str, Any]:
        """("ok", NativeResult) | ("trap", detail) | ("limit", detail)."""
        self._execute()
        assert self._outcomes is not None
        return self._outcomes[(case_index, input_index)]


def _timer_ms(run_timeout: float) -> int:
    """The fork server's per-pair timer in ms, at least 1: ``setitimer`` arms
    nothing for a zero interval, so a looping pair would run until the
    Python-side deadline killed the whole server."""
    if not 0 < run_timeout < math.inf:  # NaN fails too
        raise ValueError(f"run_timeout must be a finite number of seconds > 0, got {run_timeout!r}")
    return max(1, int(run_timeout * 1000))


def batch_build_timeout(run_timeout: float, pairs: int) -> float:
    """Deadline for joining one batch's asynchronous toolchain build.

    300s is generous for any healthy compile+link, but a batch whose
    *execution* budget (``run_timeout`` for one runaway pair plus the
    per-pair allowance for the rest) legitimately exceeds it must not have
    its build capped below that budget — a slow-but-healthy large batch
    would be killed mid-build and misattributed as a toolchain failure.
    """
    return max(300.0, run_timeout + NativeBatch.PER_PAIR_ALLOWANCE * pairs)


#: What a failed build or drain raises out of a :class:`NativeBatch`.
BATCH_FAILURES = (
    subprocess.CalledProcessError,
    subprocess.TimeoutExpired,
    BatchExecutionError,
    OSError,
)

#: Cap on cases per cross-unit native build in :class:`GroupedBatchRunner`.
DEFAULT_GROUP_CASES = 32

#: One case's result from :meth:`GroupedBatchRunner.run`: the raw
#: ``NativeBatch.outcome`` tuple per input, or — for a case that failed to
#: build or run even in a batch of its own — the exception it failed with.
CaseOutcomes = Union[List[Tuple[str, Any]], Exception]


#: One packed group: its ``(unit_index, unit)`` members.
_Group = List[Tuple[int, Sequence[BatchCase]]]

#: A group in the runner's pipeline: members, cases, tag, and the batch
#: (or the exception its construction raised).
_LiveGroup = Tuple[_Group, List[BatchCase], str, Union[NativeBatch, Exception]]


class GroupedBatchRunner:
    """Cross-unit :class:`NativeBatch` groups, built and run in the background.

    A *unit* is a list of :class:`BatchCase` objects that must stay
    together: the eval scorer's unit is one function's gate survivors, the
    repair search's unit is one target's neighbor chunk, and the fuzz
    oracle's unit is one case's O0 and O3 legs on one backend.  All three
    reach native execution through this runner.  Units are packed greedily
    into shared batches of up to ``group_cases`` cases, so the toolchain
    runs once per group instead of once per unit.

    :meth:`run` takes any iterable of units and pulls it lazily, so the
    caller's staging of later units overlaps native work: a group's build
    starts the moment the group is full.  The pipeline is three groups
    deep — groups 0 and 1 are staged and building, then for each group N
    the runner launches N's server, stages group N+2 and starts its
    build, and only then collects N's records.  Once the units run out,
    the servers of the groups still behind N start at once, so the last
    groups execute side by side rather than one after another.  It yields
    ``(unit_index, outcomes)`` in unit order, with one
    :data:`CaseOutcomes` per case of the unit.  A group that fails to
    build or drain is halved, and each half rebuilt, until the failing
    case stands alone: that case alone gets its exception, and every
    other case keeps its outcomes.  Units with no cases are skipped
    entirely.
    """

    def __init__(
        self,
        opt_level: str,
        workdir: Path,
        isa: str = "x86",
        group_cases: int = DEFAULT_GROUP_CASES,
        tag_prefix: str = "evalg",
        run_timeout: float = 10.0,
        cache=None,
    ) -> None:
        self.opt_level = opt_level
        self.workdir = workdir
        self.isa = isa
        self.group_cases = group_cases
        self.tag_prefix = tag_prefix
        _timer_ms(run_timeout)  # refuse a bad budget before any build
        self.run_timeout = run_timeout
        self.cache = cache
        #: The live groups, oldest first, at most three.
        self._live: Deque[_LiveGroup] = collections.deque()

    def _pack(self, units: Iterable[Sequence[BatchCase]]) -> Iterator[_Group]:
        """Whole units, packed greedily up to the group cap (a unit larger
        than the cap gets a group of its own); each group is yielded as
        soon as no further unit can join it."""
        group: _Group = []
        size = 0
        for index, unit in enumerate(units):
            if not unit:
                continue
            if group and size + len(unit) > self.group_cases:
                yield group
                group, size = [], 0
            group.append((index, unit))
            size += len(unit)
            if size >= self.group_cases:
                yield group
                group, size = [], 0
        if group:
            yield group

    def _make_batch(
        self, cases: Sequence[BatchCase], tag: str
    ) -> Union[NativeBatch, Exception]:
        try:
            return NativeBatch(
                cases,
                self.opt_level,
                self.workdir,
                isa=self.isa,
                run_timeout=self.run_timeout,
                tag=tag,
                cache=self.cache,
            )
        except BATCH_FAILURES as exc:
            return exc

    def _drain(
        self,
        batch: Union[NativeBatch, Exception],
        cases: Sequence[BatchCase],
        tag: str,
    ) -> List[CaseOutcomes]:
        """Every case's outcomes from ``batch``, bisecting it on failure."""
        if isinstance(batch, Exception):
            failure = batch
        else:
            try:
                return [
                    [
                        batch.outcome(case_index, input_index)
                        for input_index in range(len(case.inputs))
                    ]
                    for case_index, case in enumerate(cases)
                ]
            except BATCH_FAILURES as exc:
                failure = exc
            finally:
                batch.close()
        if len(cases) == 1 or isinstance(failure, HarnessBuildError):
            return [failure] * len(cases)
        half = len(cases) // 2
        outcomes: List[CaseOutcomes] = []
        for suffix, part in (("a", cases[:half]), ("b", cases[half:])):
            outcomes.extend(
                self._drain(self._make_batch(part, tag + suffix), part, tag + suffix)
            )
        return outcomes

    def close(self) -> None:
        """Kill/reap every live group's server and build.

        Called from the generator's ``finally`` (so an interrupted consumer
        leaks nothing) and usable directly — the runner is a context
        manager for callers that keep one alive across requests.
        """
        while self._live:
            batch = self._live.popleft()[3]
            if isinstance(batch, NativeBatch):
                batch.close()

    def __enter__(self) -> "GroupedBatchRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(
        self, units: Iterable[Sequence[BatchCase]]
    ) -> Iterator[Tuple[int, List[CaseOutcomes]]]:
        groups = enumerate(self._pack(units))

        def stage() -> bool:
            """Pull the next group's units and start its build; False once
            the units have run out."""
            packed = next(groups, None)
            if packed is None:
                return False
            group_index, group = packed
            cases = [case for _, unit in group for case in unit]
            tag = f"{self.tag_prefix}{group_index}"
            self._live.append((group, cases, tag, self._make_batch(cases, tag)))
            return True

        # Every live batch is tracked on the runner so that close() — or
        # this generator's own finally, which runs on GeneratorExit when
        # the consumer breaks out or an interrupt unwinds it — kills their
        # fork servers and reaps their builds instead of leaking them.
        try:
            stage()
            stage()
            while self._live:
                group, cases, tag, batch = self._live[0]
                if isinstance(batch, NativeBatch):
                    batch.launch()
                if not stage():
                    # Nothing is left to stage, so the groups behind this
                    # one start their servers now and run alongside it.
                    for _, _, _, later in self._live:
                        if isinstance(later, NativeBatch):
                            later.launch()
                outcomes = self._drain(batch, cases, tag)
                self._live.popleft()
                cursor = 0
                for unit_index, unit in group:
                    yield unit_index, outcomes[cursor : cursor + len(unit)]
                    cursor += len(unit)
        finally:
            self.close()


__all__ = [
    "BATCH_FAILURES",
    "BatchCase",
    "BatchExecutionError",
    "CaseOutcomes",
    "DEFAULT_GROUP_CASES",
    "GroupedBatchRunner",
    "HarnessBuildError",
    "NativeBatch",
    "NativeResult",
    "batch_build_timeout",
    "have_arm_toolchain",
    "have_native_toolchain",
    "prepare_fork_harnesses",
    "start_fork_harnesses",
]
