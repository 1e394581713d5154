"""Inputs, round bodies and correctness checks of the batch workloads.

Every workload takes its seed from the command line and derives all of its
inputs from it.  Input generation runs in the benchmark's own process,
before any round, and is neither timed nor part of ``setup_s``.  A round
runs in a fresh process (``child.py``) with a fresh cache directory and
workdir; its timed phase calls the product's public entry points only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

# Entry points are called through their modules so the tracer's wrappers
# (which rebind module attributes) see every call.
from repro.eval import dataset, repair, score
from repro.eval.dataset import dataset_to_json, load_dataset
from repro.eval.mutate import Candidate, MutationError, Mutator
from repro.eval.repair import REPAIRABLE_VERDICTS, RepairConfig
from repro.testing import fuzz
from repro.testing.fuzz import FuzzConfig, case_seed
from repro.testing.generator import ProgramGenerator

#: Generator statement budget, as in the score/repair CLIs' default.
MAX_STMTS = 10
#: Candidates manufactured per repair function, as in the repair CLI's grid.
CANDIDATES = 8

#: Cases per fuzz round, and their cap: only this many cases of each
#: FUZZ_POOL seed were vetted.
FUZZ_CASES = 128
#: A run has one round per ROUND_S seconds of ``--seconds`` (at least two),
#: each of these sizes; a round of this size takes about ROUND_S seconds on
#: a 2-core x86-64 VM.  Below 2 * ROUND_S the rounds shrink instead.
ROUND_S = 5.0
SIZES = {
    "repair": 12,  # near-miss targets
    "fuzz": FUZZ_CASES,  # generated cases
}
REPAIR_BUDGET = 30
#: Fuzz base seeds whose first FUZZ_CASES cases were clean on every leg when
#: vetted with ``vet_fuzz.py 1000 48``.  The generator hits a real -O3
#: miscompile about once per 1,500 cases (ir-O3 and x86-O3 agree with each
#: other but not with interp and x86-O0; 1013, 1023, 1032 and 1034 each have
#: one), so an unvetted seed could fail a run on a bug the program already
#: has.  Drawing rounds from vetted seeds lets every divergence count as a
#: failure, so a new miscompile cannot pass as correct output.
FUZZ_POOL: Tuple[int, ...] = (
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010,
    1011, 1012, 1014, 1015, 1016, 1017, 1018, 1019, 1020, 1021, 1022,
    1024, 1025, 1026, 1027, 1028, 1029, 1030, 1031, 1033, 1035, 1036,
    1037, 1038, 1039, 1040, 1041, 1042, 1043, 1044, 1045, 1046, 1047,
)  # fmt: skip


def round_count(seconds: float) -> int:
    return max(2, round(seconds / ROUND_S))


def round_size(workload: str, seconds: float) -> int:
    scale = min(1.0, seconds / (ROUND_S * round_count(seconds)))
    return max(1, round(SIZES[workload] * scale))


def round_seed(workload: str, seed: int, index: int, rounds: int) -> int:
    """Round ``index`` of a run of ``rounds`` draws its own inputs, so a
    run covers that many times the functions of one round and a seed's
    particular draw weighs less in the result.  Fuzz rounds take distinct
    seeds from FUZZ_POOL."""
    if workload == "fuzz":
        return random.Random(seed).sample(FUZZ_POOL, rounds)[index]
    return seed * 100 + index


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Size caps on generated references.  The generator's size distribution
#: has a long tail (up to ~1.4k characters), and lexing, neighbor generation
#: and the quadratic edit similarity grow with size, so a few large functions
#: could set a whole round's time.
MAX_CHARS = {"repair": 400, "serve": 600}


def without_while(limit: int):
    """References with at most ``limit`` characters and no ``while`` loop:
    a neighbor that makes a ``while`` loop infinite burns the interpreter's
    200k-step budget (~0.6 s each), a tail that made throughput depend on
    the seed's draw."""
    return lambda source: len(source) <= limit and "while" not in source


def loop_free(limit: int):
    """References with at most ``limit`` characters, no loop and no global.

    Neighbors of looping code routinely loop forever, and each such pair
    burns the 1 s repair run timeout (6-14 per campaign across seeds).  The
    native harness observes only the globals a candidate references, so a
    neighbor that drops a global write can repair natively yet differ on the
    interpreter, which the re-score check would then count as a failure.
    """
    return lambda source: (
        len(source) <= limit
        and "while" not in source
        and "for (" not in source
        and ";" not in source.partition("{")[0]
    )


def iter_generated(seed: int, keep) -> Iterator[tuple]:
    """The generator cases of ``seed`` whose source passes ``keep``, as
    ``(index, case seed, case)``."""
    for index in itertools.count():
        seed_i = case_seed(seed, index)
        case = ProgramGenerator(seed_i, max_stmts=MAX_STMTS).generate()
        if keep(case.source):
            yield index, seed_i, case


def generated_cases(seed: int, count: int, keep) -> List[tuple]:
    return list(itertools.islice(iter_generated(seed, keep), count))


def _entry(seed: int, index: int, seed_i: int, case):
    """One generated triple, built as ``generated_entries`` builds it."""
    return dataset.build_entry(
        case.source,
        case.name,
        case.inputs,
        uid=f"gen-{seed}-{index}",
        origin="generated",
        seed=seed_i,
        isas=("x86",),
        opt_levels=("O0",),
        program=case.program,
        checker=case.checker,
    )


def manufacture(entry) -> Optional[List[Candidate]]:
    """The entry's certified candidate set, or None when the mutator cannot
    certify one (about one generated function in a hundred); the repair CLI
    would stop there, the benchmark leaves the function out."""
    try:
        return Mutator(entry.seed).candidates(entry, CANDIDATES)
    except MutationError:
        return None


# ---------------------------------------------------------------------------
# Input generation (benchmark process, untimed)
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, size: int, run_dir: Path) -> Dict[str, Any]:
    """Write one round's inputs under ``run_dir``; returns the round spec
    fields that point at them."""
    run_dir.mkdir(parents=True, exist_ok=True)
    if workload == "repair":
        return _prepare_repair(seed, size, run_dir)
    if workload == "fuzz":
        return {"seed": seed, "count": size}
    raise ValueError(f"unknown batch workload {workload!r}")


def _prepare_repair(seed: int, targets: int, run_dir: Path) -> Dict[str, Any]:
    """A seeded near-miss grid of ``targets`` functions with one target each:
    the first candidate whose certified label is a repairable verdict.
    Neighbors of one function cost alike, so taking several targets from a
    function let a few functions set a round's time."""
    entries, sets = [], []
    for index, seed_i, case in iter_generated(seed, loop_free(MAX_CHARS["repair"])):
        if len(entries) == targets:
            break
        entry = _entry(seed, index, seed_i, case)
        near = [c for c in manufacture(entry) or [] if c.expected in REPAIRABLE_VERDICTS]
        if near:
            entries.append(entry)
            sets.append(near[:1])
    baseline = score.score_dataset(entries, sets)
    (run_dir / "dataset.json").write_text(json.dumps(dataset_to_json(entries)))
    (run_dir / "sets.json").write_text(
        json.dumps([[vars(c) for c in candidates] for candidates in sets])
    )
    (run_dir / "baseline.json").write_text(json.dumps(baseline))
    return {"seed": seed, "inputs_dir": str(run_dir)}


# ---------------------------------------------------------------------------
# Round bodies (child process; the timed phase is body())
# ---------------------------------------------------------------------------


def load(workload: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Load the handed-over inputs (excluded from setup_s)."""
    if workload != "repair":
        return spec
    inputs_dir = Path(spec["inputs_dir"])
    sets = json.loads((inputs_dir / "sets.json").read_text())
    return {
        "entries": load_dataset(inputs_dir / "dataset.json"),
        "sets": [[Candidate(**data) for data in candidates] for candidates in sets],
        "baseline": json.loads((inputs_dir / "baseline.json").read_text()),
    }


def body(workload: str, inputs, cache, workdir: Path, report_span) -> Dict[str, Any]:
    """One round's timed work; returns ops, failures and the output digest."""
    if workload == "repair":
        campaign = repair.repair_campaign(
            inputs["entries"],
            inputs["sets"],
            RepairConfig(budget=REPAIR_BUDGET),
            baseline=inputs["baseline"],
            cache=cache,
        )
        with report_span("eval.score:report"):
            text = json.dumps(campaign, indent=2, sort_keys=True) + "\n"
            (workdir / "campaign.json").write_text(text)
        # One op is one neighbor scored: a round's history records the
        # whole chunk, including neighbors after the one that repaired.
        ops = sum(r["attempts"] for t in campaign["targets"] for r in t["history"])
        return {
            "ops": ops,
            "failed": 0,
            "digest": digest(text.encode()),
            "campaign": str(workdir / "campaign.json"),
            "repair": {
                "eval.repair.rounds": campaign["aggregate"]["rounds"],
                "eval.repair.attempts": campaign["aggregate"]["attempts"],
                "eval.repair.repaired": campaign["aggregate"]["repaired"],
                "eval.repair.yield": campaign["aggregate"]["repaired"]
                / max(1, campaign["aggregate"]["attempts"]),
            },
        }
    if workload == "fuzz":
        results = fuzz.run_campaign(FuzzConfig(), inputs["seed"], inputs["count"], jobs=1)
        verdicts = json.dumps([[r.index, r.status, r.category] for r in results])
        return {
            "ops": len(results),
            # Rounds run vetted-clean seeds only, so any divergence is new.
            "failed": sum(1 for r in results if r.failed),
            "problems": [
                f"fuzz base seed {inputs['seed']} case {r.index}: {r.status}: {r.detail}"
                for r in results
                if r.failed
            ],
            "digest": digest(verdicts.encode()),
        }
    raise ValueError(f"unknown batch workload {workload!r}")


# ---------------------------------------------------------------------------
# Checks that need the whole invocation (benchmark process, untimed)
# ---------------------------------------------------------------------------


def check_repaired(run_dir: Path, campaign_path: str) -> List[str]:
    """Every ``repaired_source`` must re-score ``io_equivalent`` on the
    interpreter substrate; returns one message per miss."""
    entries = {e.uid: e for e in load_dataset(run_dir / "dataset.json")}
    campaign = json.loads(Path(campaign_path).read_text())
    repaired = [t for t in campaign["targets"] if t["status"] == "repaired"]
    if not repaired:
        return []
    scores = score.score_entry_sets(
        [entries[t["entry_uid"]] for t in repaired],
        [[Candidate(t["repaired_source"], "", "", "")] for t in repaired],
        backend="none",
    )
    return [
        f"{t['uid']}: repaired source re-scores {s[0].verdict}"
        for t, s in zip(repaired, scores)
        if s[0].verdict != "io_equivalent"
    ]
