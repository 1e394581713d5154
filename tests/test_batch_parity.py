"""The fork-server executor's own semantics, and batch/parallel parity.

``NativeBatch`` is the only native executor.  This module pins what it
promises on its own: a trapping pair does not eat later pairs, globals
start pristine for every pair, a killed server costs a restart on the
pairs it left unanswered, a pair that kills it every time is charged
alone, builds get a deadline scaled to the batch, ``close()`` reaps the
whole process group, the grouped runner pulls its units lazily with at
most three batches live, and a group that fails to build is bisected
until only the case at fault is charged.  It also pins that verdicts do
not depend on how cases are batched (``Oracle.check_case`` is a batch of
one) or sharded (``--jobs N``), and that the oracle's verdict stream
keeps input order, drives two backends in lockstep and reaps every batch
when its reader stops early.
"""

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.testing.fuzz import FuzzConfig, case_seed, run_campaign, strip_reextension
from repro.testing.generator import generate_case
from repro.testing.oracle import Oracle

from repro.testing.native import NativeBatch, BatchCase, have_native_toolchain

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)


@dataclass
class _Case:
    source: str
    name: str
    inputs: List[Tuple]


def _swap_first_addl(assembly: str) -> str:
    """A *deterministic* injected miscompile (first ``addl`` -> ``subl``).

    Unlike ``strip_cltd`` — whose misbehaviour reads whatever %edx holds,
    which depends on the code around the division — this transform
    corrupts the result itself, so even the post-divergence outcome lines
    must match byte for byte between a many-case batch and batches of one.
    """
    lines = assembly.splitlines()
    for index, line in enumerate(lines):
        if line.strip().startswith("addl"):
            lines[index] = line.replace("addl", "subl", 1)
            break
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Batch-composition parity: a case's verdict does not depend on its batch
# ---------------------------------------------------------------------------


def test_check_batch_matches_check_case_without_native_legs():
    oracle = Oracle(backends=())
    cases = [generate_case(case_seed(3, index), max_stmts=8) for index in range(12)]
    batch_verdicts = oracle.check_batch(cases)
    for case, batched in zip(cases, batch_verdicts):
        sequential = oracle.check_case(case.source, case.name, case.inputs)
        assert (sequential is None) == (
            batched is None or isinstance(batched, Exception)
        )
        assert not isinstance(batched, Exception)
        assert sequential is None and batched is None


def _break_bad(ir_func) -> None:
    """Inject the verifier-caught IR miscompile into functions named bad*."""
    if ir_func.name.startswith("bad"):
        strip_reextension(ir_func)


def _verdict_kind(verdict) -> str:
    if verdict is None:
        return "clean"
    if isinstance(verdict, Exception):
        return type(verdict).__name__
    return f"{verdict.category}:{verdict.name}"


def _assert_verdicts_in_input_order(backends) -> None:
    """Cases that fail before execution (a parse error, a verifier
    divergence) interleaved with clean ones: every verdict comes back at
    its case's position, in one chunk or in chunks whose executed cases
    share native batches across chunk boundaries."""
    oracle = Oracle(backends=backends, ir_transform=_break_bad)
    assert oracle.legs()[2:] == [f"{b}-{opt}" for b in backends for opt in ("O0", "O3")]
    good = generate_case(case_seed(3, 0), max_stmts=6)
    unparseable = _Case("int f( {", "f", [(1,)])
    broken = _Case("int bad(int a) { char c = a; return c + 1; }", "bad", [(5,)])
    clean = _Case("int g(int a) {\n    return a + 1;\n}\n", "g", [(1,), (41,)])
    expected_kinds = [
        (good, "clean"),
        (unparseable, "ParseError"),
        (clean, "clean"),
        (broken, "ir-verifier:bad"),
        (good, "clean"),
        (unparseable, "ParseError"),
        (broken, "ir-verifier:bad"),
        (clean, "clean"),
        (good, "clean"),
    ]
    cases = [case for case, _ in expected_kinds]
    expected = [kind for _, kind in expected_kinds]
    verdicts = oracle.check_batch(cases)
    assert [_verdict_kind(verdict) for verdict in verdicts] == expected
    chunked = oracle.check_batches([cases[start : start + 2] for start in range(0, 9, 2)], 2)
    assert [_verdict_kind(v) for chunk in chunked for v in chunk] == expected


def test_check_batch_reports_parse_errors_per_case():
    _assert_verdicts_in_input_order(())


@needs_toolchain
def test_check_batch_reports_parse_errors_per_case_with_native_legs():
    _assert_verdicts_in_input_order(("x86",))


@needs_toolchain
def test_two_backends_are_driven_in_lockstep_over_one_staged_stream(monkeypatch):
    """With two native backends (``--backend both``) every chunk is
    prepared once, each group is built once per backend, and the verdicts
    are one backend's.  This host runs one ISA, so x86 stands in for both."""
    from repro.testing import native

    built, prepared = [], []
    original_init = native.NativeBatch.__init__
    original_prepare = Oracle.prepare_batch

    def recording_init(self, cases, *args, **kwargs):
        built.append(len(cases))
        original_init(self, cases, *args, **kwargs)

    def recording_prepare(self, cases):
        prepared.append(len(cases))
        return original_prepare(self, cases)

    monkeypatch.setattr(native.NativeBatch, "__init__", recording_init)
    monkeypatch.setattr(Oracle, "prepare_batch", recording_prepare)
    cases = [generate_case(case_seed(0, index), max_stmts=8) for index in range(12)]
    oracle = Oracle(backends=("x86", "x86"), asm_transform=_swap_first_addl)
    chunks = [cases[start : start + 4] for start in range(0, 12, 4)]
    both = [verdict for chunk in oracle.check_batches(chunks, 4) for verdict in chunk]
    assert prepared == [4, 4, 4]
    assert len(built) == 6 and sorted(built) == sorted(built[:3] * 2)
    one = Oracle(backends=("x86",), asm_transform=_swap_first_addl).check_batch(cases)

    def shape(verdict):
        if verdict is None or isinstance(verdict, Exception):
            return _verdict_kind(verdict)
        return (verdict.input_index, verdict.diverging_leg, verdict.field)

    assert [shape(verdict) for verdict in both] == [shape(verdict) for verdict in one]
    assert any(verdict is not None for verdict in one)


@needs_toolchain
def test_closing_the_verdict_stream_early_reaps_every_batch(tmp_path, monkeypatch):
    """The sequential fuzz CLI stops reading verdicts at a divergence.
    Closing the stream after its first chunk, with later batches staged
    and building, leaves no fork server, no running build and no live
    batch."""
    from repro.testing import native

    batches, started = [], []
    original_init = native.NativeBatch.__init__
    real_popen = native.subprocess.Popen

    def recording_init(self, *args, **kwargs):
        batches.append(self)
        original_init(self, *args, **kwargs)

    def recording_popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(native.NativeBatch, "__init__", recording_init)
    monkeypatch.setattr(native.subprocess, "Popen", recording_popen)
    oracle = Oracle(backends=("x86",), workdir=tmp_path)
    chunks = (
        [generate_case(case_seed(7, start + index), max_stmts=6) for index in range(4)]
        for start in range(0, 40, 4)
    )
    stream = oracle.check_batches(chunks, 4)
    assert len(next(stream)) == 4
    assert len(batches) == 3  # one drained, two staged behind it
    stream.close()
    assert all(batch._closed and batch._build_proc is None for batch in batches)
    assert all(batch._server is None for batch in batches)
    assert started and all(proc.poll() is not None for proc in started)


@needs_toolchain
def test_batched_verdicts_identical_to_sequential_fixed_seed():
    """Clean fixed-seed cases: a many-case batch and batches of one both
    report None, and a case where every leg traps is equally clean."""
    oracle = Oracle(backends=("x86",))
    cases = [generate_case(case_seed(5, index), max_stmts=8) for index in range(20)]
    cases.append(
        _Case("int f(int a) {\n    return a / (a - a);\n}\n", "f", [(3,), (7,)])
    )
    batch_verdicts = oracle.check_batch(cases)
    for case, batched in zip(cases, batch_verdicts):
        sequential = oracle.check_case(case.source, case.name, list(case.inputs))
        assert not isinstance(batched, Exception), batched
        assert (sequential is None) and (batched is None), (
            sequential and sequential.describe(),
            batched and batched.describe(),
        )


@needs_toolchain
def test_batched_divergences_byte_identical_under_deterministic_miscompile():
    oracle = Oracle(backends=("x86",), asm_transform=_swap_first_addl)
    cases = [generate_case(case_seed(0, index), max_stmts=8) for index in range(12)]
    batch_verdicts = oracle.check_batch(cases)
    divergences = 0
    for case, batched in zip(cases, batch_verdicts):
        sequential = oracle.check_case(case.source, case.name, case.inputs)
        assert not isinstance(batched, Exception), batched
        assert (sequential is None) == (batched is None)
        if sequential is not None:
            divergences += 1
            assert sequential.describe() == batched.describe()
    assert divergences >= 1, "deterministic miscompile produced no divergence"


@needs_toolchain
def test_batch_trap_resume_recovers_following_cases():
    """A trapping pair must not eat the results of later pairs in the batch."""
    trap = _Case("int f(int a) {\n    return a / (a - a);\n}\n", "f", [(1,)])
    clean = _Case("int g(int a) {\n    return a + 1;\n}\n", "g", [(1,), (41,)])
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        batch = NativeBatch(
            [
                BatchCase(trap.source, trap.name, list(trap.inputs)),
                BatchCase(clean.source, clean.name, list(clean.inputs)),
            ],
            "O0",
            Path(tmp),
        )
        status, detail = batch.outcome(0, 0)
        assert status == "trap" and "exit status" in detail
        status, result = batch.outcome(1, 0)
        assert status == "ok" and result.return_value == 2
        status, result = batch.outcome(1, 1)
        assert status == "ok" and result.return_value == 42


@needs_toolchain
def test_batch_globals_reset_between_input_vectors():
    """Vectors share one process in a batch; globals must still start
    pristine for every call, like the per-process sequential path."""
    source = """
int acc = 5;

int bump(int k) {
    acc += k;
    return acc;
}
"""
    case = _Case(source, "bump", [(1,), (1,), (10,)])
    oracle = Oracle(backends=("x86",))
    assert oracle.check_batch([case])[0] is None
    sequential = oracle.check_case(case.source, case.name, case.inputs)
    assert sequential is None


# ---------------------------------------------------------------------------
# Fork-server semantics
# ---------------------------------------------------------------------------


def _keep_records(output, pairs: int) -> None:
    """Cut a server's output file after its first ``pairs`` answered pairs
    (fewer if it answered fewer): the batch then reads a server that died
    on the next pair."""
    data = output.read_bytes()
    cut = 0
    for _ in range(pairs):
        done = data.find(b"\nDONE ", cut)
        if done < 0:
            break
        cut = data.index(b"\n", done + 1) + 1
    output.write_bytes(data[:cut])


_DEATH_CASES = [
    _Case("int f(int a) {\n    return a + 10;\n}\n", "f", [(1,), (2,), (3,)]),
    _Case("int g(int a) {\n    return a * a;\n}\n", "g", [(4,), (5,)]),
]


@needs_toolchain
def test_forkserver_recovers_from_killed_server(monkeypatch):
    """Killing the server mid-batch must cost nothing but a restart on the
    unanswered pairs: every pair still gets its correct outcome."""
    import os
    import signal
    import tempfile
    from pathlib import Path

    from repro.testing import native as native_mod

    original_spawn = native_mod.NativeBatch._spawn_server
    starts = []

    def killing_spawn(self, start):
        original_spawn(self, start)
        starts.append(start)
        if len(starts) == 1:  # SIGKILL the first server; at most 2 pairs served
            os.killpg(self._server.proc.pid, signal.SIGKILL)
            self._server.proc.wait()
            _keep_records(self._file(".out"), 2)

    monkeypatch.setattr(native_mod.NativeBatch, "_spawn_server", killing_spawn)
    with tempfile.TemporaryDirectory() as tmp:
        batch = NativeBatch(
            [BatchCase(c.source, c.name, list(c.inputs)) for c in _DEATH_CASES],
            "O0",
            Path(tmp),
        )
        expected = {(0, 0): 11, (0, 1): 12, (0, 2): 13, (1, 0): 16, (1, 1): 25}
        for (case_index, input_index), value in expected.items():
            status, result = batch.outcome(case_index, input_index)
            assert status == "ok" and result.return_value == value
    assert len(starts) == 2 and starts[0] == 0, "the killed server was never restarted"


@needs_toolchain
def test_forkserver_charges_pair_that_kills_server_every_time(monkeypatch):
    """A pair that takes the server down on *every* attempt must not spin
    forever: after MAX_PAIR_RETRIES restarts it is charged a ``limit``
    outcome and the rest of the batch completes normally."""
    import tempfile
    from pathlib import Path

    from repro.testing import native as native_mod

    original_spawn = native_mod.NativeBatch._spawn_server
    poison = {"pair": 1, "deaths": 0}

    def dying_spawn(self, start):
        original_spawn(self, start)
        if start <= poison["pair"]:  # the server dies on the poison pair
            self._server.proc.wait()
            _keep_records(self._file(".out"), poison["pair"] - start)
            poison["deaths"] += 1

    monkeypatch.setattr(native_mod.NativeBatch, "_spawn_server", dying_spawn)
    with tempfile.TemporaryDirectory() as tmp:
        batch = NativeBatch(
            [BatchCase(c.source, c.name, list(c.inputs)) for c in _DEATH_CASES],
            "O0",
            Path(tmp),
        )
        status, detail = batch.outcome(0, 1)  # flat pair 1
        assert status == "limit"
        assert "fork server died 3 times" in detail
        expected = {(0, 0): 11, (0, 2): 13, (1, 0): 16, (1, 1): 25}
        for (case_index, input_index), value in expected.items():
            status, result = batch.outcome(case_index, input_index)
            assert status == "ok" and result.return_value == value
    assert poison["deaths"] == native_mod.NativeBatch.MAX_PAIR_RETRIES + 1


# ---------------------------------------------------------------------------
# Parallel (--jobs) parity
# ---------------------------------------------------------------------------


def _records(results):
    return [(r.index, r.seed, r.status, r.detail) for r in results]


def test_jobs_records_identical_to_single_process_toolchain_free():
    config = FuzzConfig(backends=(), batch_size=8)
    sequential = run_campaign(config, 11, 24, jobs=1)
    parallel = run_campaign(config, 11, 24, jobs=4)
    assert _records(sequential) == _records(parallel)


@needs_toolchain
def test_jobs_records_identical_with_native_legs():
    config = FuzzConfig(backends=("x86",), batch_size=8)
    sequential = run_campaign(config, 13, 16, jobs=1)
    parallel = run_campaign(config, 13, 16, jobs=2)
    assert _records(sequential) == _records(parallel)
    assert all(r.status == "ok" for r in sequential)


# ---------------------------------------------------------------------------
# Lifecycle: close() reaps children, build timeouts scale with the batch
# ---------------------------------------------------------------------------


def test_batch_build_timeout_scales_with_pair_budget():
    """The build join deadline must never cap below the batch's own
    execution budget (the 300s hard cap was the bug: a 5000-pair batch's
    legitimate 510s budget was cut to 300s and misread as a build hang)."""
    from repro.testing.native import batch_build_timeout

    assert batch_build_timeout(10.0, 100) == 300.0  # floor for small batches
    assert batch_build_timeout(10.0, 5000) == 510.0  # budget wins when larger
    assert batch_build_timeout(400.0, 0) == 400.0  # one slow pair alone


@needs_toolchain
def test_close_mid_execution_reaps_fork_server_group():
    """Closing a batch while a pair is wedged in an infinite loop must
    kill the fork server's whole process group — server and forked child
    — and subsequent outcome() calls must raise, not hang."""
    import os
    import tempfile
    import threading
    import time
    from pathlib import Path

    from repro.testing.native import BatchExecutionError

    looping = "int f(int a) {\n    while (a > 0) { a = a + 0; }\n    return a;\n}\n"
    with tempfile.TemporaryDirectory() as tmp:
        batch = NativeBatch(
            [BatchCase(looping, "f", [(1,)])],
            "O0",
            Path(tmp),
            run_timeout=120.0,
        )
        failure = []

        def drive():
            try:
                batch.outcome(0, 0)
            except Exception as exc:
                failure.append(exc)

        thread = threading.Thread(target=drive)
        thread.start()
        deadline = time.monotonic() + 60.0
        while batch._server is None and time.monotonic() < deadline:
            time.sleep(0.02)
        server = batch._server
        assert server is not None, "fork server never came up"
        pgid = server.proc.pid
        # Collect the whole process group: the server plus its forked child
        # running the wedged pair (poll: the fork may not have happened yet).
        group = []
        while time.monotonic() < deadline and len(group) < 2:
            group = []
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    stat = (Path("/proc") / entry / "stat").read_text()
                    if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
                        group.append(int(entry))
                except (OSError, ValueError, IndexError):
                    continue
            time.sleep(0.02)
        assert pgid in group and len(group) >= 2, group

        batch.close()
        thread.join(timeout=30)
        assert not thread.is_alive(), "outcome() still blocked after close()"
        assert failure and isinstance(failure[0], BatchExecutionError)

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in group if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert alive == [], f"orphaned pids survived close(): {alive}"

        with pytest.raises(BatchExecutionError):
            batch.outcome(0, 0)


def _pid_alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Kernel may keep a zombie until the parent reaps; a zombie holds no
    # resources and os.waitpid already ran in kill(), so treat Z as dead.
    try:
        stat = open(f"/proc/{pid}/stat").read()
        return stat.rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


@needs_toolchain
def test_grouped_runner_context_manager_closes_batches():
    """Abandoning a GroupedBatchRunner mid-iteration (the generator is
    dropped, GeneratorExit fires) must close every live batch: the two
    building behind the group just yielded."""
    import tempfile
    from pathlib import Path

    from repro.testing.native import GroupedBatchRunner

    units = [
        [BatchCase(f"int f{i}(int a) {{ return a + {i}; }}", f"f{i}", [(1,)])]
        for i in range(4)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        with GroupedBatchRunner("O0", Path(tmp), group_cases=1) as runner:
            iterator = runner.run(units)
            next(iterator)
            live = [group[3] for group in runner._live]
            assert [batch.binary.name for batch in live] == ["evalg1_x86_O0.so", "evalg2_x86_O0.so"]
            iterator.close()  # GeneratorExit -> finally -> close()
            assert not runner._live
            assert all(batch._closed for batch in live)


def _runner_units(sizes):
    """One unit per size, each case a distinct function ``u<unit>c<case>``."""
    return [
        [
            BatchCase(
                f"int u{u}c{c}(int a) {{ return a * {u + 2} + {c}; }}",
                f"u{u}c{c}",
                [(1,), (7,)],
            )
            for c in range(size)
        ]
        for u, size in enumerate(sizes)
    ]


def _plain(results):
    return [
        (unit, [[(status, result.return_value) for status, result in case] for case in cases])
        for unit, cases in results
    ]


#: Unit sizes and their packing at a cap of 3 cases per group.
_SIZES = [1, 1, 2, 1, 3, 0, 1, 1, 2]
_GROUPS = [[0, 1], [2, 3], [4], [6, 7], [8]]


@needs_toolchain
def test_grouped_runner_pulls_units_lazily_three_groups_deep():
    """The runner pulls a generator of units as it packs them: group k's
    build starts before any unit of group k+2 is staged, and no more than
    three batches are ever live."""
    import tempfile
    from pathlib import Path

    from repro.testing.native import GroupedBatchRunner

    units = _runner_units(_SIZES)
    events = []
    with tempfile.TemporaryDirectory() as tmp:
        with GroupedBatchRunner("O0", Path(tmp), group_cases=3) as runner:
            make_batch = runner._make_batch

            def counting_make_batch(cases, tag):
                assert len(runner._live) <= 2, "a fourth live batch"
                events.append(("build", tag))
                return make_batch(cases, tag)

            runner._make_batch = counting_make_batch

            def staged():
                for index, unit in enumerate(units):
                    events.append(("stage", index))
                    assert len(runner._live) <= 3
                    yield unit

            results = list(runner.run(staged()))

    assert [unit for unit, _ in results] == [i for i, size in enumerate(_SIZES) if size]
    assert [tag for kind, tag in events if kind == "build"] == [
        f"evalg{k}" for k in range(len(_GROUPS))
    ]
    for k in range(len(_GROUPS) - 2):
        built = events.index(("build", f"evalg{k}"))
        assert all(built < events.index(("stage", u)) for u in _GROUPS[k + 2]), (k, events)
    for unit, cases in _plain(results):
        for c, case in enumerate(cases):
            assert case == [("ok", (unit + 2) + c), ("ok", 7 * (unit + 2) + c)]


@needs_toolchain
def test_grouped_runner_generator_matches_list():
    """Outcomes do not depend on whether units arrive as a list or lazily."""
    import tempfile
    from pathlib import Path

    from repro.testing.native import GroupedBatchRunner

    outcomes = []
    for make in (list, iter):
        with tempfile.TemporaryDirectory() as tmp:
            with GroupedBatchRunner("O0", Path(tmp), group_cases=3) as runner:
                outcomes.append(_plain(runner.run(make(_runner_units(_SIZES)))))
    assert outcomes[0] == outcomes[1]


@needs_toolchain
def test_grouped_runner_close_mid_iteration_leaves_no_process(monkeypatch):
    """Closing the runner between yields leaves no live process in the
    group of any fork server it launched, and reaps the builds behind."""
    import os
    import tempfile
    from pathlib import Path

    from repro.testing import native as native_mod

    original_spawn = native_mod.NativeBatch._spawn_server
    pgids = []

    def recording_spawn(self, start):
        original_spawn(self, start)
        pgids.append(self._server.proc.pid)

    monkeypatch.setattr(native_mod.NativeBatch, "_spawn_server", recording_spawn)
    with tempfile.TemporaryDirectory() as tmp:
        runner = native_mod.GroupedBatchRunner("O0", Path(tmp), group_cases=2)
        iterator = runner.run(iter(_runner_units([1] * 8)))
        next(iterator)
        next(iterator)
        next(iterator)  # group 1 launched and drained; groups 2 and 3 live
        builds = [group[3]._build_proc for group in runner._live]
        runner.close()
        assert not runner._live
    assert pgids, "no fork server was launched"
    members = []
    for entry in os.listdir("/proc"):
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
            if int(stat.rsplit(")", 1)[1].split()[2]) in pgids:
                members.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    assert not [pid for pid in pgids + members if _pid_alive(pid)]
    assert all(proc is None or proc.returncode is not None for proc in builds)


@needs_toolchain
def test_closed_batch_refuses_new_execution():
    import tempfile
    from pathlib import Path

    from repro.testing.native import BatchExecutionError

    with tempfile.TemporaryDirectory() as tmp:
        batch = NativeBatch(
            [BatchCase("int f(int a) { return a; }", "f", [(1,)])],
            "O0",
            Path(tmp),
        )
        batch.close()
        with pytest.raises(BatchExecutionError):
            batch.outcome(0, 0)


# ---------------------------------------------------------------------------
# Failure attribution: a failed group is bisected down to the case at fault
# ---------------------------------------------------------------------------


def _unlinkable(assembly: str) -> str:
    """Assembly that assembles but cannot be linked (ARM) or loaded (x86):
    it calls a missing symbol."""
    return assembly + "\n\t.text\n.Lpoisoned:\n\tcall\tmc_no_such_symbol\n"


@needs_toolchain
def test_grouped_runner_charges_only_the_unlinkable_case():
    import subprocess
    import tempfile
    from pathlib import Path

    from repro.testing.frontend import CaseContext
    from repro.testing.native import GroupedBatchRunner

    def case(index, poisoned=False):
        source = f"int f{index}(int a) {{ return a + {index}; }}"
        assembly = CaseContext(source, f"f{index}").assembly("x86", "O0")
        if poisoned:
            assembly = _unlinkable(assembly)
        return BatchCase(source, f"f{index}", [(1,), (2,)], assembly=assembly)

    units = [[case(0), case(1)], [case(2), case(3, poisoned=True), case(4)], [case(5)]]
    with tempfile.TemporaryDirectory() as tmp:
        with GroupedBatchRunner("O0", Path(tmp)) as runner:
            results = dict(runner.run(units))
    assert sorted(results) == [0, 1, 2]
    failure = results[1][1]
    assert isinstance(failure, subprocess.CalledProcessError)
    assert b"mc_no_such_symbol" in failure.stderr
    for unit_index, unit in enumerate(units):
        for position, batch_case in enumerate(unit):
            if batch_case.name == "f3":
                continue
            index = int(batch_case.name[1:])
            outcomes = results[unit_index][position]
            assert [(status, result.return_value) for status, result in outcomes] == [
                ("ok", 1 + index),
                ("ok", 2 + index),
            ]


@needs_toolchain
def test_scorer_charges_compile_error_to_the_unlinkable_candidate_alone(monkeypatch):
    """One candidate's assembly fails to link inside a shared group: that
    candidate alone gets ``compile_error`` with the toolchain's detail, and
    its group-mates and the rest of its entry keep their verdicts."""
    from repro.eval import score
    from repro.eval.dataset import generated_entries
    from repro.eval.mutate import Mutator

    entries = generated_entries(17, 4, max_stmts=8, isas=("x86",), opt_levels=("O0",))
    sets = [Mutator(entry.seed).candidates(entry, 6) for entry in entries]
    clean = score.score_dataset(entries, sets, backend="x86")
    survivors = [
        (f, c)
        for f, function in enumerate(clean["functions"])
        for c, candidate in enumerate(function["candidates"])
        if candidate["verdict"] in ("io_equivalent", "io_mismatch", "trap")
    ]
    target_function, target_candidate = survivors[len(survivors) // 2]
    poisoned_text = sets[target_function][target_candidate].text

    original_gate = score._front_end_gate

    def gate(source, name, backend, opt_level, cache=None, program=None):
        result = original_gate(source, name, backend, opt_level, cache, program)
        if source == poisoned_text and not isinstance(result, tuple):
            result.seed_assembly(
                backend, opt_level, _unlinkable(result.assembly(backend, opt_level))
            )
        return result

    monkeypatch.setattr(score, "_front_end_gate", gate)
    poisoned = score.score_dataset(entries, sets, backend="x86")

    for f, (before, after) in enumerate(zip(clean["functions"], poisoned["functions"])):
        for c, (was, now) in enumerate(zip(before["candidates"], after["candidates"])):
            if sets[f][c].text == poisoned_text:
                assert now["verdict"] == "compile_error"
                assert now["detail"].startswith("toolchain failed on the assembly: ")
                assert "mc_no_such_symbol" in now["detail"]
            else:
                assert now == was, (f, c)


@needs_toolchain
def test_oracle_charges_only_the_unlinkable_case():
    """A native batch that fails to link is bisected: the case at fault
    gets an ``OracleError`` verdict (``check_case`` raises it), and every
    other case of the batch is still checked."""
    from repro.testing.oracle import OracleError

    def poison(assembly):
        return _unlinkable(assembly) if "poisoned" in assembly else assembly

    oracle = Oracle(backends=("x86",), asm_transform=poison)
    cases = [
        _Case(f"int {name}(int a) {{\n    return a * 3;\n}}\n", name, [(1,), (5,)])
        for name in ("f0", "f1", "poisoned", "f3", "f4")
    ]
    verdicts = oracle.check_batch(cases)
    assert isinstance(verdicts[2], OracleError)
    assert "mc_no_such_symbol" in str(verdicts[2])
    assert verdicts[:2] == [None, None] and verdicts[3:] == [None, None]
    with pytest.raises(OracleError):
        oracle.check_case(cases[2].source, cases[2].name, cases[2].inputs)
