"""Tests for the decompilation-hypothesis scoring subsystem (``repro.eval``).

Pins the ISSUE's acceptance properties: every mutation with a certified
ground-truth label must score to exactly its expected verdict (preserving
-> ``io_equivalent``, breaking -> ``io_mismatch``/``trap``, invalid ->
front-end verdicts), batch scoring must be byte-identical to the
per-candidate reference path, and the JSON report must be stable under a
fixed seed.
"""

import json

import pytest

from repro.analysis.lint import lint_source
from repro.eval.dataset import (
    DatasetError,
    Observation,
    build_entry,
    classify_observations,
    generated_entries,
)
from repro.eval.mutate import Candidate, Mutator
from repro.eval.score import edit_similarity, score_candidates, score_dataset
from repro.testing.native import have_native_toolchain

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)


def _small_dataset(seed=9, functions=4, candidates=6):
    entries = generated_entries(seed, functions, max_stmts=8)
    sets = [Mutator(entry.seed).candidates(entry, candidates) for entry in entries]
    return entries, sets


# ---------------------------------------------------------------------------
# Dataset builder
# ---------------------------------------------------------------------------


def test_generated_entries_are_deterministic_and_complete():
    a = generated_entries(3, 3, max_stmts=6)
    b = generated_entries(3, 3, max_stmts=6)
    assert [e.source for e in a] == [e.source for e in b]
    for entry in a:
        assert set(entry.assembly) == {"x86-O0", "x86-O3", "arm-O0", "arm-O3"}
        assert len(entry.reference) == len(entry.inputs)
        # Reference functions are ground truth: they must execute cleanly.
        assert all(obs.status == "ok" for obs in entry.reference)
        assert all(f"{entry.name}:" in asm for asm in entry.assembly.values())


def test_build_entry_records_io_vectors():
    source = """
int scale = 2;

int accum(int a, int *out) {
    *out = a * scale;
    scale = scale + 1;
    return *out + 1;
}
"""
    entry = build_entry(source, "accum", [(3, [0]), (5, [0])], "t-0", "corpus")
    first, second = entry.reference
    assert first.return_value == 7 and first.arg_values[1] == [6]
    assert first.globals["scale"] == 3
    # Every IO vector starts from pristine globals (fresh interpreter), so
    # the second vector sees scale == 2 again.
    assert second.return_value == 11
    assert second.arg_values[1] == [10]
    assert second.globals["scale"] == 3


@pytest.mark.parametrize("inputs", [[(1, 2, 3)], [(1,), ()]])
def test_build_entry_rejects_input_of_wrong_arity(inputs):
    """The interpreter would zero-pad or drop the extra arguments while the
    native leg passes what it is given, so a wrong-arity vector is refused."""
    with pytest.raises(DatasetError, match="argument"):
        build_entry("int f(int x) { return x; }", "f", inputs, "t-1", "corpus")


# ---------------------------------------------------------------------------
# Verdict classification (pure logic, no toolchain)
# ---------------------------------------------------------------------------


def _ok(ret, args=(), globs=None):
    return Observation("ok", ret, list(args), dict(globs or {}))


def test_classify_equivalent_and_mismatch():
    ref = [_ok(1), _ok(2)]
    assert classify_observations(ref, [_ok(1), _ok(2)])[0] == "io_equivalent"
    verdict, detail = classify_observations(ref, [_ok(1), _ok(3)])
    assert verdict == "io_mismatch" and "input #1" in detail


def test_classify_trap_takes_precedence_over_mismatch():
    ref = [_ok(1), _ok(2)]
    cand = [_ok(9), Observation("trap", detail="SIGFPE")]
    assert classify_observations(ref, cand)[0] == "trap"


def test_classify_limit_counts_as_trap():
    ref = [_ok(1)]
    assert classify_observations(ref, [Observation("limit")])[0] == "trap"


def test_classify_shared_trap_is_equivalent():
    ref = [Observation("trap", detail="division by zero")]
    cand = [Observation("trap", detail="exit status -8")]
    assert classify_observations(ref, cand)[0] == "io_equivalent"


def test_classify_globals_compare_common_keys_only():
    # The native harness only observes globals present in the assembly, so
    # a key one side does not report must not count as a divergence.
    ref = [_ok(1, globs={"g": 5, "h": 7})]
    assert classify_observations(ref, [_ok(1, globs={"g": 5})])[0] == "io_equivalent"
    assert classify_observations(ref, [_ok(1, globs={"g": 6})])[0] == "io_mismatch"


def test_classify_mismatched_args():
    ref = [_ok(None, args=[[1, 2]])]
    assert classify_observations(ref, [_ok(None, args=[[1, 3]])])[0] == "io_mismatch"


# ---------------------------------------------------------------------------
# Mutator: certified labels
# ---------------------------------------------------------------------------


def test_candidate_sets_are_deterministic_and_labelled():
    entries, sets = _small_dataset()
    _, sets_again = _small_dataset()
    assert [[c.text for c in s] for s in sets] == [
        [c.text for c in s] for s in sets_again
    ]
    for candidates in sets:
        labels = {c.label for c in candidates}
        assert "preserving" in labels and "breaking" in labels
        for candidate in candidates:
            if candidate.label == "preserving":
                assert candidate.expected == "io_equivalent"
            elif candidate.label == "breaking":
                assert candidate.expected in ("io_mismatch", "trap")
            else:
                assert candidate.expected in (
                    "parse_error",
                    "type_error",
                    "compile_error",
                )
            assert candidate.text != ""


def test_trap_labels_can_be_disabled_for_arm_scoring():
    """AArch64 division by zero returns 0 instead of faulting, so the
    scorer requests trap-free labels when targeting the arm backend."""
    entries = generated_entries(9, 4, max_stmts=8)
    for entry in entries:
        candidates = Mutator(entry.seed, allow_trap_labels=False).candidates(entry, 8)
        assert all(c.expected != "trap" for c in candidates)
        assert any(c.label == "breaking" for c in candidates)


def test_preserving_candidates_differ_textually_from_reference():
    entries, sets = _small_dataset()
    for entry, candidates in zip(entries, sets):
        for candidate in candidates:
            if candidate.label == "preserving":
                assert candidate.text != entry.source


# ---------------------------------------------------------------------------
# Scorer: verdict pins (interpreter substrate — no toolchain required)
# ---------------------------------------------------------------------------


def test_scorer_agrees_with_ground_truth_on_interpreter():
    entries, sets = _small_dataset(seed=5, functions=5, candidates=6)
    for entry, candidates in zip(entries, sets):
        scores = score_candidates(entry, candidates, backend="none")
        for candidate, score in zip(candidates, scores):
            assert score.verdict == candidate.expected, (
                f"{entry.uid} candidate {score.index} ({candidate.kind}): "
                f"expected {candidate.expected}, got {score.verdict} "
                f"({score.detail})\n{candidate.text}"
            )


def test_scores_carry_io_agreement():
    entries, sets = _small_dataset(seed=5, functions=4, candidates=6)
    for entry, candidates in zip(entries, sets):
        scores = score_candidates(entry, candidates, backend="none")
        for score in scores:
            if score.verdict == "io_equivalent":
                assert score.agreement == 1.0
            elif score.verdict in ("io_mismatch", "trap"):
                # Executed but disagreed somewhere: agreement is a proper
                # fraction of the entry's IO vectors.
                assert score.agreement is not None
                assert 0.0 <= score.agreement < 1.0
            elif score.verdict in ("parse_error", "type_error"):
                # Never executed: no agreement signal, and the report
                # omits the key rather than inventing a number.
                assert score.agreement is None
                assert "agreement" not in score.to_json()


@pytest.mark.parametrize("backend", [pytest.param("x86", marks=needs_toolchain), "none"])
def test_candidate_the_linter_proves_traps_is_executed(backend):
    """One judge path: a candidate the UB linter proves traps on every call
    is executed like any other on every substrate, so its verdict and its
    agreement come from running it, not from a static finding."""
    text = "int f(int a, int b) { return a / 0; }"
    assert any(finding.predicts_trap for finding in lint_source(text, name="f"))
    entry = build_entry(
        "int f(int a, int b) { return a + b; }",
        "f",
        [(1, 2), (3, 4)],
        uid="lint-trap",
        origin="test",
        isas=("x86",),
        opt_levels=("O0",),
    )
    [score] = score_candidates(entry, [Candidate(text, "", "", "")], backend=backend)
    assert score.verdict == "trap"
    assert score.agreement == 0.0
    assert not score.detail.startswith("lint:")


def test_jobs_beyond_entry_count_and_empty_dataset():
    """``jobs`` larger than the entry count (including the zero-entry
    degenerate case) must neither crash nor change a single report byte."""
    report = score_dataset([], [], backend="none", jobs=4)
    assert report["aggregate"]["candidates"] == 0
    assert report["aggregate"]["ground_truth_agreement"] == 1.0
    assert report["functions"] == []

    entries, sets = _small_dataset(seed=7, functions=2, candidates=4)
    lone = score_dataset(entries, sets, backend="none", jobs=1)
    flooded = score_dataset(entries, sets, backend="none", jobs=8)
    assert json.dumps(lone, sort_keys=True) == json.dumps(flooded, sort_keys=True)


def test_edit_similarity_metric():
    a = "int f(int a) {\n    return a + 1;\n}\n"
    assert edit_similarity(a, a) == 1.0
    # Whitespace-only changes are invisible to the token-level metric.
    assert edit_similarity("int f(int a){return a+1;}", a) == 1.0
    renamed = a.replace("a", "b")
    assert 0.0 < edit_similarity(renamed, a) < 1.0
    # Unlexable candidates fall back to *whitespace* tokenization, not a
    # character-by-character comparison: shared words still count as
    # matches, so the score stays on the same tokens-edited scale.
    assert edit_similarity("@@@ not C @@@", a) == 0.0
    assert edit_similarity("@@@ return a + 1 ; @@@", a) == 0.2222
    # Empty-input pins: empty-vs-empty is a perfect match by convention,
    # empty-vs-nonempty is maximally distant (all insertions).
    assert edit_similarity("", "") == 1.0
    assert edit_similarity("   ", "") == 1.0
    assert edit_similarity("", a) == 0.0
    assert edit_similarity(a, "") == 0.0


def _reference_levenshtein(a, b):
    """The textbook O(len(a) * len(b)) dynamic program."""
    previous = list(range(len(b) + 1))
    for row, item_a in enumerate(a, 1):
        current = [row]
        for column, item_b in enumerate(b, 1):
            current.append(
                min(
                    previous[column] + 1,
                    current[column - 1] + 1,
                    previous[column - 1] + (item_a != item_b),
                )
            )
        previous = current
    return previous[-1]


def test_levenshtein_matches_the_plain_dynamic_program():
    """The bit-parallel distance equals the textbook DP on 10k seeded pairs:
    small and large alphabets, patterns on both sides of a 64-bit word,
    shared prefixes/suffixes, and empty, equal and disjoint sequences."""
    import random

    from repro.eval.score import _levenshtein

    rng = random.Random(20240519)
    tokens = ["int", "a", "+", "(", ")", ";", "return", "x1", "0", "-", "*", "if"]
    for trial in range(10000):
        alphabet = tokens[: rng.randint(1, len(tokens))]
        longest = 80 if trial % 40 == 0 else 24
        a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))
        shape = trial % 5
        if shape == 0:
            b = a  # equal
        elif shape == 1:  # disjoint
            b = tuple(f"other{rng.randint(0, 3)}" for _ in range(rng.randint(0, longest)))
        elif shape == 2:  # one edited region inside a shared prefix/suffix
            cut = rng.randint(0, len(a))
            edit = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            b = a[:cut] + edit + a[cut + rng.randint(0, 5) :]
        else:
            b = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, longest + 10)))
        if trial % 50 == 1:
            a = ()  # empty
        expected = _reference_levenshtein(a, b)
        assert _levenshtein(a, b) == expected, (a, b)
        assert _levenshtein(b, a) == expected, (b, a)


# ---------------------------------------------------------------------------
# Scorer: native path, batch parity, report stability
# ---------------------------------------------------------------------------


@needs_toolchain
def test_scorer_agrees_with_ground_truth_on_native():
    entries, sets = _small_dataset(seed=13, functions=5, candidates=6)
    report = score_dataset(entries, sets, backend="x86")
    aggregate = report["aggregate"]
    assert aggregate["ground_truth_agreement"] == 1.0, aggregate["mismatches"]
    assert aggregate["candidates"] == 30
    # Every verdict class the mutator can produce must be exercised
    # somewhere in the set for the agreement number to mean anything.
    assert "io_equivalent" in aggregate["verdict_counts"]
    assert set(aggregate["verdict_counts"]) & {"io_mismatch", "trap"}


@needs_toolchain
def test_batch_scoring_is_byte_identical_to_per_candidate():
    """Candidates grouped across functions score exactly as each one does
    alone, in a batch of one."""
    entries, sets = _small_dataset(seed=17, functions=4, candidates=6)
    report = score_dataset(entries, sets, backend="x86")
    for entry, candidates, function in zip(entries, sets, report["functions"]):
        for candidate, grouped in zip(candidates, function["candidates"]):
            [alone] = score_candidates(entry, [candidate], backend="x86")
            alone_json = {**alone.to_json(), "index": grouped["index"]}
            assert alone_json == grouped


@needs_toolchain
def test_every_execution_path_is_byte_identical():
    """One executor: in-process and sharded workers write the same report
    bytes, and the report names no execution path."""
    entries, sets = _small_dataset(seed=17, functions=4, candidates=6)
    report = score_dataset(entries, sets, backend="x86")
    sharded = score_dataset(entries, sets, backend="x86", jobs=3)
    assert json.dumps(report) == json.dumps(sharded)
    assert report["config"] == {"backend": "x86", "opt_level": "O0"}


@needs_toolchain
def test_report_is_stable_under_fixed_seed():
    entries, sets = _small_dataset(seed=21, functions=3, candidates=5)
    first = score_dataset(entries, sets, backend="x86")
    entries, sets = _small_dataset(seed=21, functions=3, candidates=5)
    second = score_dataset(entries, sets, backend="x86")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    # Schema pin: downstream consumers (CI artifact, bench) rely on these.
    assert first["schema"] == 1
    assert set(first["config"]) == {"backend", "opt_level"}
    aggregate = first["aggregate"]
    assert set(aggregate) >= {
        "functions",
        "candidates",
        "verdict_counts",
        "ground_truth_agreement",
        "mismatches",
        "top1_by_similarity",
        "topk_any_equivalent",
    }
    for function in first["functions"]:
        assert set(function) == {"uid", "name", "origin", "inputs", "candidates"}
        for candidate in function["candidates"]:
            assert set(candidate) >= {"index", "verdict", "similarity", "detail"}
