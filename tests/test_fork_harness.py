"""The fork-server control loop is built once per process, in the
background, and never outlives the run.

Every native entry point starts building the control loop as it begins.
On x86 that build links the one executable of the run; each batch is a
libc-free shared object the server ``dlopen``s, and the first batch to
launch joins the control-loop build.  These tests pin the ways that can
go wrong: threads racing to build the same control loop, a compiler that
fails (every batch, scored or fuzzed, must come back as a build failure,
charged once, with nothing hung or orphaned), a batch object that cannot
be loaded, and ``--jobs`` pool workers that would build, and leak, a
harness dir of their own.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.eval.dataset import generated_entries
from repro.eval.mutate import Mutator
from repro.eval.score import score_entry_sets
from repro.testing import native
from repro.testing.fuzz import FuzzConfig, run_campaign
from repro.testing.native import (
    BatchCase,
    GroupedBatchRunner,
    NativeBatch,
    have_native_toolchain,
)

pytestmark = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)

_SRC = Path(__file__).resolve().parent.parent / "src"


def _is_harness_build(argv) -> bool:
    return any(str(arg).endswith("forkserver_x86.c") for arg in argv)


def _gcc_runs(started):
    """The gcc builds among ``started`` (``gcc --version`` probes excluded)."""
    return [
        proc.args
        for proc in started
        if proc.args[0] == "gcc" and "--version" not in proc.args
    ]


def _is_executable_link(argv) -> bool:
    return not {"-c", "-S", "-E", "-shared"} & set(map(str, argv))


@pytest.fixture
def fresh_harness(tmp_path, monkeypatch):
    """An empty harness table in ``tmp_path``, with every process the
    native module starts recorded: returns the list of those processes."""
    monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_harnesses", {})
    monkeypatch.setattr(native, "_harness_builds", {})
    monkeypatch.setattr(native, "_harness_failures", {})
    monkeypatch.setattr(native, "_harness_dir", None)
    started = []
    real_popen = subprocess.Popen

    def counting_popen(args, *rest, **kwargs):
        proc = real_popen(args, *rest, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(native.subprocess, "Popen", counting_popen)
    return started


def _control_loop_builds(started):
    return [proc for proc in started if _is_harness_build(proc.args)]


def test_racing_threads_compile_the_harness_once(tmp_path, fresh_harness):
    source = "int f(int a) {\n    return a * 3;\n}\n"
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(index):
        workdir = tmp_path / f"thread{index}"
        workdir.mkdir()
        barrier.wait()
        with NativeBatch([BatchCase(source, "f", [(index,)])], "O0", workdir) as batch:
            results[index] = batch.outcome(0, 0)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [(status, result.return_value) for status, result in results] == [
        ("ok", 3 * index) for index in range(4)
    ]
    assert len(_control_loop_builds(fresh_harness)) == 1
    # The control loop is the one executable linked; batches are objects.
    links = [argv for argv in _gcc_runs(fresh_harness) if _is_executable_link(argv)]
    assert len(links) == 1 and _is_harness_build(links[0])
    assert native._harness_builds == {}


def _score_grid(message):
    """Score a small grid: every candidate past the gate must read
    ``compile_error`` with ``message``."""
    entries = generated_entries(5, 2, max_stmts=6, isas=("x86",), opt_levels=("O0",))
    sets = [Mutator(entry.seed).candidates(entry, 4) for entry in entries]
    scores = score_entry_sets(entries, sets, backend="x86")
    executed = [
        score
        for entry_scores in scores
        for score in entry_scores
        if score.verdict not in ("parse_error", "type_error")
    ]
    assert executed
    for score in executed:
        assert score.verdict == "compile_error"
        assert message in score.detail


def _fuzz_campaign(message):
    """Fuzz one batch of cases: every case must read ``build-error`` with
    ``message``."""
    results = run_campaign(FuzzConfig(), 5, 6)
    assert len(results) == 6
    for result in results:
        assert result.status == "build-error"
        assert message in result.detail


def _assert_charged_once(started, message, judge):
    """Run ``judge``, which checks that every executed case was charged
    ``message``: that must take one control-loop build and at most one
    batch build (no bisection, no rebuild), with every process reaped."""
    judge(message)
    gcc_runs = _gcc_runs(started)
    assert len(gcc_runs) <= 2
    assert len([argv for argv in gcc_runs if _is_harness_build(argv)]) == 1
    assert isinstance(native._harness_failures["x86"], native.HarnessBuildError)
    # Every process started was reaped; none is still compiling.
    assert all(proc.returncode is not None for proc in started)
    assert native._harness_builds == {}


def test_failing_harness_compile_is_a_compile_error(fresh_harness, monkeypatch):
    monkeypatch.setattr(native, "_FORK_HARNESS_C", "#error broken control loop\n")
    _assert_charged_once(fresh_harness, "broken control loop", _score_grid)


def test_failing_harness_compile_is_a_build_error_when_fuzzing(fresh_harness, monkeypatch):
    monkeypatch.setattr(native, "_FORK_HARNESS_C", "#error broken control loop\n")
    _assert_charged_once(fresh_harness, "broken control loop", _fuzz_campaign)


def _fail_every_gcc_run(tmp_path, monkeypatch) -> None:
    """Put a ``gcc`` that fails every build first on ``PATH``."""
    shim = tmp_path / "bin"
    shim.mkdir()
    (shim / "gcc").write_text('#!/bin/sh\necho "injected toolchain failure" >&2\nexit 1\n')
    (shim / "gcc").chmod(0o755)
    monkeypatch.setenv("PATH", f"{shim}{os.pathsep}{os.environ['PATH']}")


def test_a_toolchain_that_fails_every_build_is_charged_once(tmp_path, fresh_harness, monkeypatch):
    _fail_every_gcc_run(tmp_path, monkeypatch)
    _assert_charged_once(fresh_harness, "injected toolchain failure", _score_grid)


def test_a_failing_toolchain_is_charged_once_when_fuzzing(tmp_path, fresh_harness, monkeypatch):
    _fail_every_gcc_run(tmp_path, monkeypatch)
    _assert_charged_once(fresh_harness, "injected toolchain failure", _fuzz_campaign)


def test_a_build_stopped_at_exit_leaves_no_temp_file(tmp_path, fresh_harness, monkeypatch):
    gcc_temp = tmp_path / "gcc-tmp"
    gcc_temp.mkdir()
    monkeypatch.setenv("TMPDIR", str(gcc_temp))
    # A control loop slow enough to compile that the build is caught in cc1.
    slow = "volatile int mc_sink;\nvoid mc_slow(void) {\n" + "mc_sink++;\n" * 20000 + "}\n"
    monkeypatch.setattr(native, "_FORK_HARNESS_C", native._FORK_HARNESS_C + slow)
    native.start_fork_harnesses(["x86"])
    ((build, _),) = native._harness_builds.values()
    deadline = time.monotonic() + 30
    while not any(gcc_temp.iterdir()) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert any(gcc_temp.iterdir()), "the compiler never wrote its temp file"
    native._discard_harnesses(native._harness_dir)
    assert build.returncode is not None
    assert list(gcc_temp.iterdir()) == []


def _truncate_after_build(monkeypatch):
    """Make every batch object unloadable between its build and launch."""
    real_ensure_built = NativeBatch.ensure_built

    def truncating_ensure_built(batch):
        real_ensure_built(batch)
        data = batch.binary.read_bytes()
        batch.binary.write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(NativeBatch, "ensure_built", truncating_ensure_built)


def test_an_unloadable_batch_object_is_a_build_failure(tmp_path, fresh_harness, monkeypatch):
    _truncate_after_build(monkeypatch)
    case = BatchCase("int f(int a) { return a; }", "f", [(1,), (2,)])
    with NativeBatch([case], "O0", tmp_path) as batch:
        with pytest.raises(subprocess.CalledProcessError) as raised:
            batch.outcome(0, 0)
    assert raised.value.returncode == native._LOAD_FAILED
    assert raised.value.stderr  # the loader's message
    servers = [proc for proc in fresh_harness if proc.args[-1] == str(batch.binary)]
    assert len(servers) == 1  # charged at once, never restarted


def test_the_runner_bisects_an_unloadable_object_to_its_cases(tmp_path, fresh_harness, monkeypatch):
    _truncate_after_build(monkeypatch)
    units = [
        [BatchCase(f"int f{i}(int a) {{ return a + {i}; }}", f"f{i}", [(1,)])]
        for i in range(3)
    ]
    with GroupedBatchRunner("O0", tmp_path) as runner:
        results = dict(runner.run(units))
    for index in range(3):
        (failure,) = results[index]
        assert isinstance(failure, subprocess.CalledProcessError)
        assert failure.returncode == native._LOAD_FAILED
    # One group of three, bisected into [f0] and [f1, f2], then [f1], [f2]:
    # every batch built once and its server started once, with no restarts.
    builds = [argv for argv in _gcc_runs(fresh_harness) if "-shared" in argv]
    servers = [proc for proc in fresh_harness if str(proc.args[-1]).endswith(".so")]
    assert len(builds) == len(servers) == 5


#: Runs one CLI with ``subprocess.Popen`` wrapped, in this process and the
#: pool workers it forks, to log every gcc run to a file: whose build it is
#: (the control loop's or a batch's) and what it produces.
_LOGGING_CLI = """
import subprocess, sys
real_popen = subprocess.Popen
def logging_popen(args, *rest, **kwargs):
    if args[0] == "gcc" and "--version" not in args:
        owner = "harness" if any(str(a).endswith("forkserver_x86.c") for a in args) else "batch"
        if {"-c", "-S", "-E"} & set(args):
            kind = "compile"
        elif "-shared" in args:
            kind = "shared -nostdlib" if "-nostdlib" in args else "shared"
        else:
            kind = "link"
        with open(sys.argv[1], "a") as log:
            log.write(f"{owner} {kind}\\n")
    return real_popen(args, *rest, **kwargs)
subprocess.Popen = logging_popen
from repro.eval import repair, score
module = {"score": score, "repair": repair}[sys.argv[2]]
raise SystemExit(module.main(sys.argv[3:]))
"""


@pytest.mark.parametrize(
    "cli, args",
    [
        ("score", ["--functions", "4", "--candidates", "3"]),
        ("repair", ["--functions", "4", "--candidates", "4", "--budget", "8"]),
    ],
)
def test_pool_workers_inherit_the_joined_harness(tmp_path, cli, args):
    temp = tmp_path / "tmp"
    temp.mkdir()
    log = tmp_path / "gcc.log"
    log.touch()
    flags = ["--seed", "0", "--backend", "x86", "--jobs", "2", "--no-cache"]
    output = ["--output", str(tmp_path / "out.json")]
    command = [sys.executable, "-c", _LOGGING_CLI, str(log), cli, *flags, *output, *args]
    env = dict(os.environ, PYTHONPATH=str(_SRC), TMPDIR=str(temp))
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
    runs = log.read_text().splitlines()
    # Exactly one executable is linked across parent and workers: the
    # control loop.  Every batch is a libc-free shared object.
    assert runs.count("harness link") == 1
    batch_builds = [run for run in runs if run != "harness link"]
    assert batch_builds and set(batch_builds) == {"batch shared -nostdlib"}
    assert list(temp.glob("mc_forkserver_*")) == []
