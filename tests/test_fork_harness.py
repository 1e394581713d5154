"""The fork-server control loop is compiled once per process, in the
background, and never outlives the run.

Every native entry point starts ``gcc -c`` on the control loop as it
begins, and the first batch's link joins that compile.  These tests pin
the three ways that can go wrong: threads racing to compile the same
object, a compiler that fails (the batch must still come back as
``compile_error``, with nothing hung or orphaned), and ``--jobs`` pool
workers that would compile, and leak, a harness dir of their own.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.eval.dataset import generated_entries
from repro.eval.mutate import Mutator
from repro.eval.score import score_entry_sets
from repro.testing import native
from repro.testing.native import BatchCase, NativeBatch, have_native_toolchain

pytestmark = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)

_SRC = Path(__file__).resolve().parent.parent / "src"


def _is_harness_compile(argv) -> bool:
    return "-c" in argv and str(argv[-1]).endswith("forkserver_x86.c")


@pytest.fixture
def fresh_harness(tmp_path, monkeypatch):
    """An empty harness table in ``tmp_path``, with every process the
    native module starts recorded: returns the list of those processes."""
    monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_harness_objects", {})
    monkeypatch.setattr(native, "_harness_builds", {})
    monkeypatch.setattr(native, "_harness_dir", None)
    started = []
    real_popen = subprocess.Popen

    def counting_popen(args, *rest, **kwargs):
        proc = real_popen(args, *rest, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(native.subprocess, "Popen", counting_popen)
    return started


def _harness_compiles(started):
    return [proc for proc in started if _is_harness_compile(proc.args)]


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
    assert len(_harness_compiles(fresh_harness)) == 1
    assert native._harness_builds == {}


def test_failing_harness_compile_is_a_compile_error(fresh_harness, monkeypatch):
    monkeypatch.setattr(native, "_FORK_HARNESS_C", "#error broken control loop\n")
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
        assert "broken control loop" in score.detail
    assert _harness_compiles(fresh_harness)
    # Every process started was reaped; none is still compiling.
    assert all(proc.returncode is not None for proc in fresh_harness)
    assert native._harness_builds == {}


#: Runs one CLI with ``subprocess.Popen`` wrapped, in this process and the
#: pool workers it forks, to log every control-loop compile to a file.
_LOGGING_CLI = """
import subprocess, sys
real_popen = subprocess.Popen
def logging_popen(args, *rest, **kwargs):
    if "-c" in args and str(args[-1]).endswith("forkserver_x86.c"):
        with open(sys.argv[1], "a") as log:
            log.write("compile\\n")
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
    log = tmp_path / "compiles.log"
    log.touch()
    flags = ["--seed", "0", "--backend", "x86", "--jobs", "2", "--no-cache"]
    output = ["--output", str(tmp_path / "out.json")]
    command = [sys.executable, "-c", _LOGGING_CLI, str(log), cli, *flags, *output, *args]
    env = dict(os.environ, PYTHONPATH=str(_SRC), TMPDIR=str(temp))
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
    assert log.read_text() == "compile\n"
    assert list(temp.glob("mc_forkserver_*")) == []
