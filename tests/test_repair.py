"""Tests for the search-based candidate repair campaign (``repro.eval.repair``).

Pins the ISSUE's acceptance properties on the interpreter substrate (no
toolchain required, so every property is checked on every platform): the
repair-neighbor stream is deterministic and RNG-free, single-edit breaks
are inverted byte-exactly, campaigns are byte-identical across reruns /
``--resume`` / any ``--jobs`` count, and the zero-target degenerate case
neither crashes nor divides by zero.  The native x86 path is exercised by
the CI ``repair-smoke`` job, and here by the in-run dedupe test, which
counts what reaches the fork servers.
"""

import json

import pytest

from repro.eval.cache import EvalCache
from repro.eval.dataset import build_entry, generated_entries
from repro.eval.mutate import Candidate, Mutator, _op_alternatives, repair_neighbors
from repro.eval.repair import (
    REPAIRABLE_VERDICTS,
    RepairConfig,
    _collect_chunk,
    _hash_source,
    _new_target,
    main,
    repair_campaign,
)
from repro.eval.score import CandidateScore
from repro.lang.parser import parse_program
from repro.lang.printer import print_program
from repro.testing.native import have_native_toolchain


def _small_dataset(seed=9, functions=4, candidates=6):
    entries = generated_entries(seed, functions, max_stmts=8)
    sets = [Mutator(entry.seed).candidates(entry, candidates) for entry in entries]
    return entries, sets


def _config(**overrides):
    base = dict(backend="none", budget=60, beam=4, chunk=24, max_depth=3)
    base.update(overrides)
    return RepairConfig(**base)


# ---------------------------------------------------------------------------
# Neighbor enumeration
# ---------------------------------------------------------------------------


def test_op_alternatives_list_inverse_direction_first():
    # swap_op maps both '-' and '*' to '+', so repairing a '+' tries those
    # inverse candidates first (sorted), before the forward image '-'.
    assert _op_alternatives("+") == ["*", "-"]
    assert _op_alternatives("-") == ["+"]
    assert _op_alternatives("<") == ["<="]
    # An operator is never its own alternative.
    for op in ("+", "-", "*", "<", "==", "&"):
        assert op not in _op_alternatives(op)


def test_repair_neighbors_deterministic_and_single_edit():
    source = print_program(
        parse_program("int f(int a) { if (a < 3) { return a - 1; } return a; }")
    )
    first = list(repair_neighbors(source, "f"))
    second = list(repair_neighbors(source, "f"))
    assert first == second, "neighbor stream must be RNG-free"
    assert first, "a near-miss source must have repair neighbors"
    kinds = {kind for kind, _ in first}
    assert kinds <= {
        "op_swap",
        "literal_nudge",
        "sign_flip",
        "condition_flip",
        "collapse",
        "stmt_drop",
        "cast_insert",
    }
    for _, text in first:
        assert text != source, "identity edits must be filtered out"
        parse_program(text)  # every neighbor is valid Mini-C


def test_repair_neighbors_invert_single_edit_breaks():
    reference = print_program(
        parse_program("int f(int a) { int b = a + 2; return b * 3; }")
    )
    # The three most common single-edit breaks: op swap, literal bump,
    # condition negation (on a variant with a branch).
    for broken in (
        reference.replace("a + 2", "a - 2"),
        reference.replace("b * 3", "b * 4"),
    ):
        assert broken != reference
        texts = [text for _, text in repair_neighbors(broken, "f")]
        assert reference in texts, broken

    branchy = print_program(
        parse_program("int g(int a) { if (a < 0) { return 0; } return a; }")
    )
    negated = branchy.replace("a < 0", "!(a < 0)")
    texts = [text for _, text in repair_neighbors(negated, "g")]
    assert branchy in texts


def test_repair_neighbors_reject_unparseable_and_unknown_names():
    assert list(repair_neighbors("@@@ not C @@@", "f")) == []
    source = print_program(parse_program("int f(int a) { return a; }"))
    assert list(repair_neighbors(source, "missing")) == []


def test_repair_neighbors_start_is_a_slice_of_the_edit_list():
    source = print_program(
        parse_program("int f(int a, int b) { if (a < b) { return a * 3; } return b - 1; }")
    )
    indexed = list(repair_neighbors(source, "f", indexed=True))
    assert [(kind, text) for _, kind, text, _ in indexed] == list(repair_neighbors(source, "f"))
    indices = [index for index, _, _, _ in indexed]
    assert indices == sorted(set(indices))
    for start in (0, 1, 7, indices[len(indices) // 2], indices[-1] + 1):
        tail = list(repair_neighbors(source, "f", start=start, indexed=True))
        assert tail == [item for item in indexed if item[0] >= start]


def test_chunks_are_the_unvisited_neighbors_in_order():
    """Consecutive chunks take the expansion stream's neighbors in order,
    skipping none but the already visited (the root candidate itself)."""
    entries, sets = _small_dataset(seed=9, functions=1, candidates=6)
    entry, candidate = entries[0], sets[0][0]
    target = _new_target(entry, candidate, 0, CandidateScore(0, "io_mismatch", 0.5))
    config = _config(chunk=5, budget=60)
    visited = {_hash_source(candidate.text)}
    expected = []
    for _, kind, text, program in repair_neighbors(candidate.text, entry.name, indexed=True):
        if _hash_source(text) not in visited:
            visited.add(_hash_source(text))
            expected.append((kind, text, 0, program))
    assert len(expected) >= 10
    first = _collect_chunk(target, entry, config)
    assert first == expected[:5]
    target["attempts_used"] += len(first)
    assert _collect_chunk(target, entry, config) == expected[5:10]


def test_resume_rejects_a_schema_1_campaign(tmp_path):
    entries, sets = _small_dataset(seed=9, functions=1, candidates=6)
    old = repair_campaign(entries, sets, config=_config(max_rounds=1))
    old["schema"] = 1
    with pytest.raises(ValueError, match="schema 1"):
        repair_campaign(entries, sets, config=_config(), state=old)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(old))
    with pytest.raises(SystemExit, match="--resume: the campaign file has schema 1"):
        main(["--backend", "none", "--resume", "--output", str(path)])


# ---------------------------------------------------------------------------
# Campaigns (interpreter substrate)
# ---------------------------------------------------------------------------


def test_campaign_repairs_near_misses_deterministically():
    entries, sets = _small_dataset(seed=9, functions=4, candidates=6)
    first = repair_campaign(entries, sets, config=_config())
    second = repair_campaign(entries, sets, config=_config())
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    aggregate = first["aggregate"]
    assert aggregate["targets"] > 0, "the mutator must produce near-misses"
    assert aggregate["repaired"] > 0, "the search must repair some of them"
    assert set(aggregate["start_verdicts"]) <= set(REPAIRABLE_VERDICTS)
    # The headline acceptance number: most single-edit io_mismatch
    # candidates are repaired within budget.
    assert aggregate["io_mismatch_repair_rate"] >= 0.6
    for target in first["targets"]:
        assert target["status"] in ("repaired", "exhausted", "active")
        assert target["attempts_used"] <= 60
        if target["status"] == "repaired":
            assert target["repaired_source"]
            assert target["best"]["verdict"] == "io_equivalent"


def test_campaign_resume_is_byte_identical():
    entries, sets = _small_dataset(seed=9, functions=3, candidates=6)
    full = repair_campaign(entries, sets, config=_config(budget=40))

    partial = repair_campaign(entries, sets, config=_config(budget=40, max_rounds=1))
    resumed = repair_campaign(
        entries, sets, config=_config(budget=40), state=partial
    )
    assert json.dumps(full, sort_keys=True) == json.dumps(resumed, sort_keys=True)


def test_campaign_jobs_parity():
    entries, sets = _small_dataset(seed=11, functions=3, candidates=6)
    lone = repair_campaign(entries, sets, config=_config(budget=30))
    sharded = repair_campaign(entries, sets, config=_config(budget=30), jobs=3)
    flooded = repair_campaign(entries, sets, config=_config(budget=30), jobs=64)
    assert json.dumps(lone, sort_keys=True) == json.dumps(sharded, sort_keys=True)
    assert json.dumps(lone, sort_keys=True) == json.dumps(flooded, sort_keys=True)


def test_campaign_with_no_targets():
    # Zero entries: nothing to repair, rates defined as 1.0 (not a crash).
    campaign = repair_campaign([], [], config=_config())
    aggregate = campaign["aggregate"]
    assert aggregate["targets"] == 0
    assert aggregate["repair_rate"] == 1.0
    assert aggregate["io_mismatch_repair_rate"] == 1.0
    assert campaign["targets"] == []


@pytest.mark.skipif(
    not have_native_toolchain(), reason="requires an x86-64 host with GNU as and gcc"
)
def test_a_neighbor_two_targets_share_runs_once_per_round(tmp_path, monkeypatch):
    """Two targets on one entry propose the same neighbors in one round: each
    (entry, text) reaches the fork servers once, with or without a cache,
    and the campaign is byte-identical either way."""
    from repro.eval import repair
    from repro.testing import native

    entry = build_entry(
        "int f(int a, int b) {\n    return a + b;\n}\n",
        "f",
        [(1, 2), (5, -3), (-7, 4)],
        "pair",
        "test",
        isas=("x86",),
        opt_levels=("O0",),
    )
    # Both near misses propose ``a + b``, ``a``, ``b`` and an empty body.
    sets = [
        [
            Candidate(f"int f(int a, int b) {{\n    return a {op} b;\n}}\n", "", op, "")
            for op in "-*"
        ]
    ]
    rounds = []
    real_score_entry_sets = repair.score_entry_sets
    real_run = native.GroupedBatchRunner.run

    def scoring_round(entries, candidate_sets, *args, **kwargs):
        rounds.append(
            {
                "submitted": [c.text for cs in candidate_sets for c in cs],
                "executed": [],
            }
        )
        return real_score_entry_sets(entries, candidate_sets, *args, **kwargs)

    def run(self, units):
        def recorded():
            for unit in units:
                if rounds:
                    rounds[-1]["executed"].extend(
                        (case.name, case.source, repr(case.inputs)) for case in unit
                    )
                yield unit

        yield from real_run(self, recorded())

    monkeypatch.setattr(repair, "score_entry_sets", scoring_round)
    monkeypatch.setattr(native.GroupedBatchRunner, "run", run)
    config = RepairConfig(backend="x86", budget=16, chunk=8)

    documents = []
    for cache in (None, EvalCache(tmp_path)):
        rounds.clear()
        documents.append(json.dumps(repair.repair_campaign([entry], sets, config, cache=cache)))
        assert any(len(set(r["submitted"])) < len(r["submitted"]) for r in rounds)
        for r in rounds:
            assert r["executed"], "every neighbor here is new to the cache"
            assert len(set(r["executed"])) == len(r["executed"])
    assert documents[0] == documents[1]
    assert json.loads(documents[0])["aggregate"]["repaired"] == 2
