"""Vet candidate base seeds for the fuzz workload's pool.

    PYTHONPATH=src python3 perfbench/vet_fuzz.py FIRST COUNT

Runs the campaign a fuzz round runs (``FuzzConfig()``, ``FUZZ_CASES``
cases) on base seeds FIRST .. FIRST+COUNT-1, prints every case that is not
clean on every leg, and ends with the clean base seeds as a Python tuple:
the candidates for ``workloads.FUZZ_POOL``.  A fuzz round fails on any
divergence, so the pool must hold only seeds that were clean when vetted.
"""

import sys

from repro.testing.fuzz import FuzzConfig, run_campaign
from workloads import FUZZ_CASES


def main(argv) -> int:
    first, count = int(argv[0]), int(argv[1])
    clean = []
    for base in range(first, first + count):
        results = run_campaign(FuzzConfig(), base, FUZZ_CASES, jobs=2)
        bad = [r for r in results if r.failed]
        for result in bad:
            print(f"base {base} case {result.index} (seed {result.seed}): {result.status}")
            print("    " + result.detail.replace("\n", "\n    "), flush=True)
        if not bad:
            clean.append(base)
    print(f"clean: {len(clean)} of {count}")
    print(f"FUZZ_POOL = {tuple(clean)!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
