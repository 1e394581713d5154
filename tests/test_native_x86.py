"""Native x86-64 IO-equivalence tests.

Every corpus function is compiled to x86-64 assembly at -O0 and -O3,
assembled and linked with the system GNU toolchain, executed on the host and
compared against the interpreter's observable state (return value,
pointer-argument contents, globals).  This is the strongest check the
reproduction has that the emitted assembly means what the source means —
including the 32-bit wrapping semantics the width-annotated IR carries.

Skipped automatically on non-x86-64 hosts or when ``gcc``, ``as`` or ``ld``
is missing.
"""

import subprocess
import time
from pathlib import Path

import pytest

from corpus import CORPUS, WIDE_SIGNATURES
from repro.testing import native as native_mod
from repro.testing.frontend import CaseContext
from repro.testing.native import (
    BatchCase,
    GroupedBatchRunner,
    NativeBatch,
    have_native_toolchain,
)
from repro.testing.oracle import values_equal

pytestmark = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)

_GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("native")


def _run_native(source, name, inputs, opt, workdir):
    """(native result, interpreter result) per input, from a one-case batch."""
    context = CaseContext(source, name)
    case = BatchCase(source, name, list(inputs), context=context)
    with NativeBatch([case], opt, workdir, tag=name) as batch:
        pairs = []
        for index, args in enumerate(inputs):
            status, actual = batch.outcome(0, index)
            assert status == "ok", f"{name}{args} @ {opt}: {status} ({actual})"
            pairs.append((actual, context.interpreter().run_function(name, args)))
    return pairs


def _check_entry(source, name, inputs, opt, workdir):
    for args, (actual, expected) in zip(
        inputs, _run_native(source, name, inputs, opt, workdir)
    ):
        if expected.return_value is not None:
            assert values_equal(actual.return_value, expected.return_value), (
                f"{name}{args} @ {opt}: native returned "
                f"{actual.return_value!r}, interpreter {expected.return_value!r}"
            )
        for j, value in enumerate(actual.arg_values):
            assert values_equal(value, expected.arg_values[j]), (
                f"{name}{args} @ {opt}: arg {j} native {value!r} "
                f"!= interpreter {expected.arg_values[j]!r}"
            )
        for gname, gvalue in actual.globals.items():
            assert values_equal(gvalue, expected.globals[gname]), (
                f"{name}{args} @ {opt}: global {gname} native "
                f"{gvalue!r} != interpreter {expected.globals[gname]!r}"
            )


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize(
    "source,name,inputs", CORPUS, ids=[entry[1] for entry in CORPUS]
)
def test_native_matches_interpreter(source, name, inputs, opt, workdir):
    _check_entry(source, name, inputs, opt, workdir)


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize(
    "source,name,inputs", WIDE_SIGNATURES, ids=[entry[1] for entry in WIDE_SIGNATURES]
)
def test_wide_signature_matches_interpreter(source, name, inputs, opt, workdir):
    """Signatures wider than the argument registers run on the batch too:
    the control loop's generic caller passes the overflow on the stack."""
    _check_entry(source, name, inputs, opt, workdir)
    if name == "wide_mixed":  # the out-parameter and the global are observed
        actual, _ = _run_native(source, name, inputs[:1], opt, workdir)[0]
        assert actual.arg_values[-1] == [4]
        assert actual.globals == {"wide_total": 290}


def _assert_matches(actual, expected, label):
    assert values_equal(actual.return_value, expected.return_value), label
    for value, want in zip(actual.arg_values, expected.arg_values):
        assert values_equal(value, want), label
    for gname, gvalue in actual.globals.items():
        assert values_equal(gvalue, expected.globals[gname]), label


@pytest.mark.parametrize("opt", ["O0", "O3"])
def test_one_batch_mixes_wide_and_narrow_signatures(opt, workdir):
    """Wide cases (through the control loop's generic caller) and narrow
    ones (through the register caller) share one table and one object."""
    entries = []
    for wide, narrow in zip(WIDE_SIGNATURES, CORPUS):
        entries += [wide, narrow]
    cases = [
        BatchCase(source, name, list(inputs), context=CaseContext(source, name))
        for source, name, inputs in entries
    ]
    with NativeBatch(cases, opt, workdir, tag=f"mixed_{opt}") as batch:
        for case_index, case in enumerate(cases):
            for input_index, args in enumerate(case.inputs):
                label = f"{case.name}{args} @ {opt}"
                status, actual = batch.outcome(case_index, input_index)
                assert status == "ok", f"{label}: {status} ({actual})"
                expected = case.context.interpreter().run_function(case.name, args)
                _assert_matches(actual, expected, label)


def _takes(name, count):
    params = ", ".join(f"long p{j}" for j in range(count))
    return f"long {name}({params}) {{\n    return p0 + p{count - 1};\n}}\n"


def test_a_signature_past_the_wide_caller_is_charged_alone(workdir):
    """A case whose stack-passed arguments exceed the generic caller's
    slots is charged, with a message naming the limit; the cases it was
    grouped with still run."""
    limit = native_mod._WIDE_INT_REGS + native_mod._WIDE_STACK_SLOTS
    counts = {"fits": limit, "too_wide": limit + 1, "narrow": 2}
    units = [
        [BatchCase(_takes(name, count), name, [tuple(range(1, count + 1))])]
        for name, count in counts.items()
    ]
    with GroupedBatchRunner("O0", workdir, tag_prefix="toowide") as runner:
        results = dict(runner.run(units))
    ([(status, fits)],) = results[0]
    assert status == "ok" and fits.return_value == 1 + limit
    (failure,) = results[1]
    assert isinstance(failure, native_mod.BatchExecutionError)
    assert "too_wide" in str(failure)
    assert f"limit of {native_mod._WIDE_STACK_SLOTS}" in str(failure)
    ([(status, narrow)],) = results[2]
    assert status == "ok" and narrow.return_value == 3


def test_overflowing_intermediate_matches_interpreter(workdir):
    """The acceptance criterion spelled out: a 32-bit product that exceeds
    2**31 before being divided must wrap exactly like the interpreter at
    both optimisation levels."""
    source = """
int prod_div(int a, int b, int c) {
    return a * b / c;
}
"""
    inputs = [(100000, 100000, 1000), (46341, 46341, 7)]
    for opt in ("O0", "O3"):
        results = _run_native(source, "prod_div", inputs, opt, workdir)
        for args, (actual, expected) in zip(inputs, results):
            assert actual.return_value == expected.return_value, (
                f"prod_div{args} @ {opt}: native {actual.return_value} != "
                f"interpreter {expected.return_value} (32-bit intermediate not "
                "wrapped?)"
            )
    # Sanity: the overflow really happens (64-bit arithmetic would differ).
    a, b, c = inputs[0]
    wrapped = ((a * b + 2**31) % 2**32 - 2**31) // c
    assert wrapped != (a * b) // c, "test inputs no longer overflow 32 bits"


def test_sub_millisecond_timeout_still_arms_the_timer(workdir):
    """A budget below 1 ms rounds up to 1 ms: the looping pair times out in
    the fork server instead of hanging until the server is killed."""
    source = "int spin(int x) { while (1) { x = x + 1; } return x; }"
    case = BatchCase(source, "spin", [(1,)])
    started = time.monotonic()
    with NativeBatch([case], "O0", workdir, tag="spin", run_timeout=0.0005) as batch:
        assert batch.outcome(0, 0) == ("limit", "execution timeout")
    assert time.monotonic() - started < 20.0


def test_wedged_server_hits_its_deadline_and_is_charged_as_dead(workdir, monkeypatch):
    """A server that stops answering is killed at its deadline, process
    group and all, and charged as a death: restarted on the unanswered
    pairs until the pair it wedges on is charged ``limit``."""
    import os

    monkeypatch.setattr(NativeBatch, "SERVER_GRACE", 0.2)
    original_spawn = NativeBatch._spawn_server
    servers = []

    def recording_spawn(self, start):
        original_spawn(self, start)
        servers.append((start, self._server.proc.pid))

    monkeypatch.setattr(NativeBatch, "_spawn_server", recording_spawn)
    spin = BatchCase("int spin(int x) { while (1) { x = x + 1; } return x; }", "spin", [(1,)])
    clean = BatchCase("int g(int x) { return x * 3; }", "g", [(2,), (5,)])
    started = time.monotonic()
    with NativeBatch([spin, clean], "O0", workdir, tag="wedge", run_timeout=0.05) as batch:
        batch._timeout_ms = 10**7  # the server's own per-pair timer never fires
        assert batch.outcome(0, 0) == (
            "limit",
            f"fork server died {native_mod.NativeBatch.MAX_PAIR_RETRIES + 1} times on this pair",
        )
        assert [batch.outcome(1, i)[1].return_value for i in (0, 1)] == [6, 15]
    assert time.monotonic() - started < 20.0
    assert [start for start, _ in servers] == [0, 0, 0, 1]
    pgids = {pgid for _, pgid in servers}
    deadline = time.monotonic() + 10.0
    while True:  # a killed child may take a moment to die; zombies count as dead
        alive = []
        for entry in os.listdir("/proc"):
            try:
                fields = (Path("/proc") / entry / "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[2]) in pgids and fields[0] != "Z":
                alive.append(int(entry))
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert alive == [], f"processes survived their server's deadline: {alive}"


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_timeout_is_refused(budget, workdir):
    case = BatchCase("int f(int x) { return x; }", "f", [(1,)])
    with pytest.raises(ValueError, match="run_timeout"):
        NativeBatch([case], "O0", workdir, run_timeout=budget)
    with pytest.raises(ValueError, match="run_timeout"):
        GroupedBatchRunner("O0", workdir, run_timeout=budget)


def test_shared_initialised_global_links_across_functions(tmp_path):
    """Two separately compiled functions of one program share an initialised
    global: their .data definitions are weak, so linking both objects into
    one binary must work (as the old mergeable .comm symbols always did)."""
    import subprocess as sp

    from repro.compiler import compile_program

    source = """
int base = 5;

int f(int x) {
    return base + x;
}

int g(int x) {
    return base * x;
}
"""
    grid = compile_program(source, isas=("x86",), opt_levels=("O0",))
    (tmp_path / "f.s").write_text(grid["f"][("x86", "O0")].assembly)
    (tmp_path / "g.s").write_text(grid["g"][("x86", "O0")].assembly)
    (tmp_path / "main.c").write_text(
        '#include <stdio.h>\n'
        "extern long f(long);\n"
        "extern long g(long);\n"
        'int main(void){ printf("%ld %ld\\n", (long)(int)f(2), (long)(int)g(3)); return 0; }\n'
    )
    binary = tmp_path / "run"
    sp.run(
        ["gcc", "-no-pie", "-o", str(binary), str(tmp_path / "main.c"),
         str(tmp_path / "f.s"), str(tmp_path / "g.s")],
        check=True, capture_output=True,
    )
    out = sp.run([str(binary)], check=True, capture_output=True, text=True).stdout
    assert out.strip() == "7 15"


def test_golden_x86_assembles(tmp_path):
    """Every x86 golden file must be accepted by the system GNU assembler."""
    golden = sorted(_GOLDEN_DIR.glob("*_x86_*.s"))
    assert golden, "no x86 golden files found"
    for path in golden:
        subprocess.run(
            ["as", "--64", str(path), "-o", str(tmp_path / (path.stem + ".o"))],
            check=True,
            capture_output=True,
        )
