"""Process bookkeeping read from ``/proc``: CPU, peak RSS, leftovers."""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Dict, List

_TICKS = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(pid: int) -> float:
    """User+system CPU of ``pid`` plus its reaped descendants."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    # After the command name: state is field 3, utime..cstime are 14..17.
    return sum(int(value) for value in fields[11:15]) / _TICKS


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def dir_bytes(root: Path) -> int:
    total = 0
    for folder, _, files in os.walk(root):
        for name in files:
            try:
                total += os.lstat(os.path.join(folder, name)).st_size
            except FileNotFoundError:
                pass
    return total


def _mentioning(marker: str) -> Dict[int, str]:
    found = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if marker in cmdline:
            found[int(entry.name)] = cmdline.strip()
    return found


def kill_leftovers(marker: str, grace_s: float = 2.0) -> List[str]:
    """Kill every process whose command line mentions ``marker`` (a round's
    private directory: daemons, fork servers and gcc all name it) and
    return their command lines.  A survivor would slow every later run.

    A process still exiting when the round ends (a fork server's child or a
    compiler pass of a killed build, say) gets ``grace_s`` to go first."""
    deadline = time.monotonic() + grace_s
    found = _mentioning(marker)
    while found and time.monotonic() < deadline:
        time.sleep(0.05)
        found = _mentioning(marker)
    for pid in found:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return [f"{pid}: {cmdline}" for pid, cmdline in found.items()]


def host_probe_ms() -> float:
    """A fixed pure-Python loop; explains run-to-run spread on shared hosts."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    return (time.perf_counter() - start) * 1000.0
