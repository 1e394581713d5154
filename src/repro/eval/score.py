"""Candidate scorer: the paper's evaluation loop, end to end.

``python -m repro.eval.score`` takes N candidate C sources per function and
scores each against the reference's IO vectors, exactly the way SLaDe
judges decompilation hypotheses: **IO equivalence against the compiled
ground truth, not text similarity**.  Each candidate walks the gauntlet

    parse -> typecheck -> compile -> execute on every IO vector

and receives one of six verdicts: ``parse_error``, ``type_error``,
``compile_error``, ``trap``, ``io_mismatch`` or ``io_equivalent``.  A
normalized token-level edit similarity to the reference source rides along
as the secondary metric (the "how close did it look" number the paper
contrasts IO accuracy with).

Execution is batched by construction, *across functions*: gate survivors
from many functions are grouped into shared
:class:`repro.testing.native.NativeBatch` fork-server builds by
:class:`repro.testing.native.GroupedBatchRunner` (one toolchain
invocation per ~32 candidates instead of per candidate or per function),
the same executor the fuzzing pipeline runs on.  Functions are staged as
the runner pulls them, so the front end runs while earlier groups build
and execute in the background.  A group whose build
fails is bisected until the candidate at fault stands alone; only that
candidate is charged ``compile_error``.  ``--jobs N`` shards functions
round-robin over worker processes; verdicts depend only on each
function's seed, so reports are byte-identical at any job count.

Without a native toolchain (or with ``--backend none``) survivors execute
on the interpreter instead; the front-end gauntlet, including real
assembly emission, still runs.

Typical invocations::

    python -m repro.eval.score --seed 0 --functions 50 --candidates 8
    python -m repro.eval.score --seed 0 --functions 50 --candidates 8 \\
        --output eval_report.json
    python -m repro.eval.score --seed 3 --functions 10 --candidates 4 \\
        --backend none
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.driver import CompileError
from repro.eval.cache import (
    EvalCache,
    add_cache_arguments,
    cache_from_args,
    describe_stats,
    json_digest,
    source_digest,
)
from repro.eval.dataset import (
    DatasetEntry,
    Observation,
    classify_with_diffs,
    front_end_gate,
    generated_entries,
    interpreter_observation,
)
from repro.eval.mutate import Candidate, Mutator
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError, TokenKind, tokenize
from repro.testing import native
from repro.testing.frontend import CaseContext


# ---------------------------------------------------------------------------
# Edit similarity (the secondary, text-based metric)
# ---------------------------------------------------------------------------


def _token_texts(source: str) -> Optional[Tuple[str, ...]]:
    # No cache of its own: ``tokenize``'s memo already holds the reference
    # and the candidate the gate and the cache digest just lexed.
    try:
        return tuple(t.text for t in tokenize(source) if t.kind is not TokenKind.EOF)
    except LexError:
        return None


def _levenshtein(a: Sequence, b: Sequence) -> int:
    """Exact token edit distance: Hyyrö's bit-vector Levenshtein.

    The shorter sequence is the pattern; one Python int per vertical
    delta vector holds a whole column of the DP table, so each item of the
    longer sequence costs a handful of big-int operations instead of a
    row of Python-level cell updates.
    """
    # Mutation-derived candidates differ from their reference in a small
    # region, so the common prefix/suffix is stripped first (the distance
    # is unchanged: edits only happen where the sequences differ).
    start = 0
    limit = min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a = a[start:end_a]
    b = b[start:end_b]
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)
    match: Dict[Any, int] = {}  # item -> bitmask of its pattern positions
    for position, item in enumerate(a):
        match[item] = match.get(item, 0) | (1 << position)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    positive, negative, distance = mask, 0, len(a)
    for item in b:
        eq = match.get(item, 0)
        xv = eq | negative
        xh = (((eq & positive) + positive) ^ positive) | eq
        hp = negative | (~(xh | positive) & mask)
        hn = positive & xh
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        positive = hn | (~(xv | hp) & mask)
        negative = hp & xv
    return distance


def edit_similarity(candidate: str, reference: str) -> float:
    """Normalized edit similarity in [0, 1]: 1 - dist / max_len.

    Computed over lexer tokens so formatting differences don't count;
    candidates the lexer rejects fall back to whitespace tokenization, so
    both paths measure edits in *tokens* (the fallback previously compared
    whitespace-joined strings character by character, which made unlexable
    candidates score on a different — much finer — scale).
    """
    a = _token_texts(candidate)
    b = _token_texts(reference)
    if a is None or b is None:
        a = tuple(candidate.split())
        b = tuple(reference.split())
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return round(1.0 - _levenshtein(a, b) / longest, 4)


# ---------------------------------------------------------------------------
# Scoring one function's candidate set
# ---------------------------------------------------------------------------


@dataclass
class CandidateScore:
    """One candidate's verdict plus the secondary similarity metric."""

    index: int
    verdict: str
    similarity: float
    detail: str = ""
    kind: str = ""
    label: str = ""
    expected: str = ""
    #: Fraction of IO vectors on which the candidate's observation agrees
    #: with the reference's (the repair search's primary score).  ``None``
    #: when the candidate never executed (front-end or build failure).
    agreement: Optional[float] = None

    @property
    def matches_expected(self) -> bool:
        return not self.expected or self.verdict == self.expected

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "verdict": self.verdict,
            "similarity": self.similarity,
            "detail": self.detail,
        }
        if self.agreement is not None:
            out["agreement"] = self.agreement
        if self.expected:
            out.update(
                {
                    "kind": self.kind,
                    "label": self.label,
                    "expected": self.expected,
                    "ok": self.matches_expected,
                }
            )
        return out


def _front_end_gate(
    source: str,
    name: str,
    backend: str,
    opt_level: str,
    cache: Optional[EvalCache] = None,
    program: Optional[ast.Program] = None,
) -> Union[Tuple[str, str], CaseContext]:
    """Run parse -> typecheck -> compile; (verdict, detail) on failure.

    Parse/typecheck verdicts come from the shared
    :func:`repro.eval.dataset.front_end_gate`, the same gate the mutation
    certifier uses — by construction the two cannot disagree on a
    candidate's front-end fate.  A candidate that carries its unchecked
    AST (``program``, as repair neighbors do) skips only the parse; the
    source text still keys the asm cache.

    With ``cache`` the emitted assembly (or the compile error) is stored
    keyed by the normalized token stream, so a warm run seeds the context
    instead of lowering and emitting again.
    """
    gate = front_end_gate(source, name, program)
    if isinstance(gate[0], str):
        return gate
    program, checker = gate
    context = CaseContext(source, name, program=program, checker=checker)
    isa = backend if backend != "none" else "x86"
    asm_key = None
    if cache is not None:
        asm_key = cache.key("asm", source_digest(source), name, isa, opt_level)
        cached = cache.get("asm", asm_key)
        if cached is not None:
            if cached.get("error"):
                return "compile_error", cached["detail"]
            context.seed_assembly(isa, opt_level, cached["text"])
            return context
    try:
        # The gate always emits real assembly — even when execution later
        # happens on the interpreter — so verdicts do not depend on the
        # execution substrate.
        assembly = context.assembly(isa, opt_level)
    except CompileError as exc:
        if cache is not None and asm_key is not None:
            cache.put("asm", asm_key, {"error": True, "detail": str(exc)})
        return "compile_error", str(exc)
    if cache is not None and asm_key is not None:
        cache.put("asm", asm_key, {"error": False, "text": assembly})
    return context


def _interp_observations(
    context: CaseContext, inputs: Sequence[Tuple]
) -> List[Observation]:
    return [interpreter_observation(context, tuple(args)) for args in inputs]


def _native_outcome_to_observation(outcome: Tuple[str, Any]) -> Observation:
    status, payload = outcome
    if status == "ok":
        return Observation(
            "ok", payload.return_value, list(payload.arg_values), dict(payload.globals)
        )
    return Observation(status, detail=str(payload))


def _native_observations(
    outcomes: native.CaseOutcomes,
) -> Union[List[Observation], Tuple[str, str]]:
    """One survivor's observations from its grouped-runner outcomes, or the
    ``compile_error`` verdict when its batch of one failed to build."""
    if isinstance(outcomes, Exception):
        stderr = getattr(outcomes, "stderr", None) or b""
        if isinstance(stderr, str):
            stderr = stderr.encode("utf-8", "replace")
        detail = stderr.decode("utf-8", "replace")[-500:] or str(outcomes)
        return "compile_error", f"toolchain failed on the assembly: {detail}"
    return [_native_outcome_to_observation(outcome) for outcome in outcomes]


def _stage_candidates(
    entry: DatasetEntry,
    candidates: Sequence[Candidate],
    backend: str,
    opt_level: str,
    cache: Optional[EvalCache] = None,
) -> Tuple[List[CandidateScore], List[Tuple[int, CaseContext]]]:
    """Front-end gate for one candidate set.

    Returns the (partially filled) score list plus the execution survivors;
    the staging is independent of how survivors later execute.
    """
    scores: List[CandidateScore] = []
    survivors: List[Tuple[int, CaseContext]] = []
    for index, candidate in enumerate(candidates):
        gate = _front_end_gate(
            candidate.text, entry.name, backend, opt_level, cache, candidate.program
        )
        similarity = edit_similarity(candidate.text, entry.source)
        # A survivor's verdict and detail are filled in once it has executed.
        verdict, detail = gate if isinstance(gate, tuple) else ("", "")
        scores.append(
            CandidateScore(
                index, verdict, similarity, detail,
                candidate.kind, candidate.label, candidate.expected,
            )
        )
        if not isinstance(gate, tuple):
            survivors.append((index, gate))
    return scores, survivors


def _finalize_scores(
    entry: DatasetEntry,
    scores: List[CandidateScore],
    survivors: List[Tuple[int, CaseContext]],
    observations: List[Union[List[Observation], Tuple[str, str]]],
) -> None:
    for (index, _), obs in zip(survivors, observations):
        if isinstance(obs, tuple):  # build failure: (verdict, detail)
            # Merge into the placeholder so kind/label/expected survive
            # and a certified candidate the toolchain rejects still
            # counts against ground-truth agreement.
            scores[index].verdict, scores[index].detail = obs
            continue
        verdict, detail, diffs = classify_with_diffs(entry.reference, obs)
        scores[index].verdict = verdict
        scores[index].detail = detail
        scores[index].agreement = (
            round(sum(1 for diff in diffs if diff is None) / len(diffs), 6)
            if diffs
            else 1.0
        )


def score_candidates(
    entry: DatasetEntry,
    candidates: Sequence[Candidate],
    backend: str = "x86",
    opt_level: str = "O0",
    workdir: Optional[Path] = None,
    run_timeout: float = 10.0,
    cache: Optional[EvalCache] = None,
) -> List[CandidateScore]:
    """Score one function's candidate set against its IO vectors.

    ``backend`` is the ISA candidates are compiled for; ``"none"`` runs
    survivors on the interpreter (the compile gate still emits x86
    assembly).  Natively, the surviving candidates share fork-server
    batches exactly as in :func:`score_dataset`.
    """
    return _score_entries(
        [entry],
        [candidates],
        backend=backend,
        opt_level=opt_level,
        run_timeout=run_timeout,
        cache=cache,
        workdir=workdir,
    )[0]


# ---------------------------------------------------------------------------
# Whole-dataset scoring and the JSON report
# ---------------------------------------------------------------------------

#: Cap on gate survivors per cross-function native build (see
#: :data:`repro.testing.native.DEFAULT_GROUP_CASES` — the grouping itself
#: lives in :class:`repro.testing.native.GroupedBatchRunner` now, shared
#: with the repair search).
EVAL_GROUP_CASES = native.DEFAULT_GROUP_CASES


def _score_entries(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    backend: str = "x86",
    opt_level: str = "O0",
    run_timeout: float = 10.0,
    cache: Optional[EvalCache] = None,
    workdir: Optional[Path] = None,
) -> List[List[CandidateScore]]:
    """One CandidateScore list per entry (the unit one ``--jobs`` worker runs).

    Natively, gate survivors from *many* functions share one
    :class:`NativeBatch` (up to :data:`EVAL_GROUP_CASES` per group) so
    the toolchain runs once per group instead of once per function.  The
    runner pulls entries lazily: each entry is staged (front-end gate) only
    when the runner asks for its unit, so staging the next groups runs
    while earlier groups build and execute in the background.  A group
    that fails to build or run is bisected by the runner until the
    failing candidate stands alone; that candidate alone is charged
    ``compile_error``.

    ``workdir``, when given, is reused for build products instead of a
    per-call temporary directory — the scoring service's workers keep one
    per worker so repeated requests don't churn tempdirs.  Verdicts never
    depend on it (artifacts are keyed by tag inside it, and the caller owns
    cleanup).
    """
    if backend == "none":
        staged = [
            _stage_candidates(entry, candidates, backend, opt_level, cache)
            for entry, candidates in zip(entries, candidate_sets)
        ]
        for entry, (scores, survivors) in zip(entries, staged):
            observations = [
                _interp_observations(context, entry.inputs) for _, context in survivors
            ]
            _finalize_scores(entry, scores, survivors, observations)
        return [scores for scores, _ in staged]

    staged = []

    def units():
        for entry, candidates in zip(entries, candidate_sets):
            scores, survivors = _stage_candidates(
                entry, candidates, backend, opt_level, cache
            )
            staged.append((scores, survivors))
            yield [
                native.BatchCase(
                    source=context.source,
                    name=entry.name,
                    inputs=[tuple(args) for args in entry.inputs],
                    context=context,
                )
                for _, context in survivors
            ]

    if workdir is not None:
        tmp_ctx: Any = contextlib.nullcontext(str(workdir))
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="minic-eval-")
    with tmp_ctx as tmp:
        with native.GroupedBatchRunner(
            opt_level,
            Path(tmp),
            isa=backend,
            group_cases=EVAL_GROUP_CASES,
            run_timeout=run_timeout,
            cache=cache,
        ) as runner:
            for position, outcomes in runner.run(units()):
                scores, survivors = staged[position]
                observations = [_native_observations(case) for case in outcomes]
                _finalize_scores(entries[position], scores, survivors, observations)

    return [scores for scores, _ in staged]


def _entry_key_parts(entry: DatasetEntry) -> Tuple[str, str]:
    """The entry's IO vectors as JSON and its reference observations'
    digest: the verdict key parts every candidate of the entry shares."""
    return (
        json.dumps([list(args) for args in entry.inputs]),
        json_digest([obs.to_json() for obs in entry.reference]),
    )


def _verdict_key(
    cache: EvalCache,
    entry: DatasetEntry,
    text: str,
    backend: str,
    opt_level: str,
    run_timeout: float,
    entry_parts: Tuple[str, str],
) -> str:
    """Memo key for one (candidate, reference, substrate) triple.

    Every input the verdict depends on is part of the key: the candidate
    and reference *texts* (raw, because the similarity metric's unlexable
    fallback sees formatting), the IO vectors, the reference observations,
    the substrate and the run timeout (score and repair use different
    budgets, so their ``limit`` verdicts can legitimately differ).  How
    candidates were grouped into batches is deliberately absent: verdicts
    do not depend on it.  ``entry_parts`` is :func:`_entry_key_parts` of
    ``entry``, computed once for all of its candidates.
    """
    inputs_json, observations = entry_parts
    return cache.key(
        "verdict",
        text,
        entry.source,
        entry.name,
        inputs_json,
        observations,
        backend,
        opt_level,
        str(run_timeout),
    )


def score_to_payload(score: CandidateScore) -> Dict[str, Any]:
    """The candidate-independent slice of a score (caller metadata —
    index/kind/label/expected — is reapplied per candidate on a hit).

    This is both the verdict-memo envelope and the scoring service's wire
    format for one candidate: every field JSON round-trips exactly, so
    :func:`score_from_payload` on the other side rebuilds a
    :class:`CandidateScore` whose ``to_json()`` is byte-identical to the
    original's."""
    return {
        "verdict": score.verdict,
        "similarity": score.similarity,
        "detail": score.detail,
        "agreement": score.agreement,
    }


def score_from_payload(
    payload: Dict[str, Any], index: int, candidate: Candidate
) -> CandidateScore:
    """Rebuild a :class:`CandidateScore` from :func:`score_to_payload`
    output plus the caller-side candidate metadata."""
    return CandidateScore(
        index,
        payload["verdict"],
        payload["similarity"],
        payload["detail"],
        candidate.kind,
        candidate.label,
        candidate.expected,
        agreement=payload.get("agreement"),
    )


def score_entry_sets(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    cache: Optional[EvalCache] = None,
    **kwargs: Any,
) -> List[List[CandidateScore]]:
    """Score many (entry, candidate set) pairs: the reusable scoring seam.

    This is :func:`_score_entries` behind the verdict memo + in-run dedupe
    — the exact unit one ``--jobs`` worker runs, and what the scoring
    service executes per request.  Candidates whose memo key hits (a
    previous run, round or campaign judged the same text against the same
    reference) never reach the gate or the harness; candidates that are
    byte-identical *within* one set execute once and fan the verdict out.
    The reduced unique-miss sets go through the untouched
    :func:`_score_entries` machinery, so a warm report is byte-identical
    to a cold one by construction.

    ``kwargs`` are :func:`_score_entries`'s: ``backend``, ``opt_level``,
    ``run_timeout``, ``workdir``.
    """
    if cache is None:
        return _score_entries(entries, candidate_sets, **kwargs)
    backend = kwargs.get("backend", "x86")
    opt_level = kwargs.get("opt_level", "O0")
    run_timeout = kwargs.get("run_timeout", 10.0)

    memo: Dict[str, Dict[str, Any]] = {}
    plans = []  # per entry: (keys per candidate, unique miss keys+candidates)
    for entry, candidates in zip(entries, candidate_sets):
        keys: List[str] = []
        unique_keys: List[str] = []
        unique_candidates: List[Candidate] = []
        entry_parts = _entry_key_parts(entry)
        for candidate in candidates:
            key = _verdict_key(
                cache, entry, candidate.text, backend, opt_level, run_timeout, entry_parts
            )
            keys.append(key)
            if key in memo:
                continue
            payload = cache.get("verdict", key)
            if payload is not None:
                memo[key] = payload
                continue
            if key not in unique_keys:
                unique_keys.append(key)
                unique_candidates.append(candidate)
        plans.append((keys, unique_keys, unique_candidates))

    miss_positions = [p for p, plan in enumerate(plans) if plan[2]]
    if miss_positions:
        sub_scores = _score_entries(
            [entries[p] for p in miss_positions],
            [plans[p][2] for p in miss_positions],
            cache=cache,
            **kwargs,
        )
        for position, scores in zip(miss_positions, sub_scores):
            for key, score in zip(plans[position][1], scores):
                payload = score_to_payload(score)
                cache.put("verdict", key, payload)
                memo[key] = payload

    return [
        [
            score_from_payload(memo[key], index, candidate)
            for index, (key, candidate) in enumerate(zip(keys, candidates))
        ]
        for candidates, (keys, _, _) in zip(candidate_sets, plans)
    ]


def _entries_worker(payload):
    entries, candidate_sets, cache, kwargs = payload
    if cache is not None:
        # The pickled copy carries the parent's counters; zero them so the
        # summary shipped back is exactly this worker's delta.
        cache.stats = {}
        cache.evictions = 0
    scores = score_entry_sets(entries, candidate_sets, cache, **kwargs)
    if cache is not None:
        cache.flush()  # the worker never sweeps: its reads' recency goes out now
    return scores, (cache.stats_summary() if cache is not None else None)


def score_dataset(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    backend: str = "x86",
    opt_level: str = "O0",
    jobs: int = 1,
    cache: Optional[EvalCache] = None,
) -> Dict[str, Any]:
    """Score every entry's candidate set and build the aggregate report.

    With ``jobs > 1`` the entries are striped round-robin over a process
    pool; every verdict depends only on its entry, so the report is
    byte-identical at any job count (which is why the job count is not
    recorded in it).  The same holds for ``cache``: hits reproduce exactly
    what the miss path would compute, so the report never mentions the
    cache — hit/miss statistics accumulate on the cache object instead
    (worker processes ship their counters back for aggregation).
    """
    native.start_fork_harnesses([backend])
    score_kwargs = {"backend": backend, "opt_level": opt_level}
    if jobs > 1 and len(entries) > 1:
        workers = min(jobs, len(entries))
        # An entry's cached CaseContext holds interpreter state (closures)
        # that cannot cross the process boundary; scoring never reads it,
        # so workers receive context-free copies.
        portable = [replace(entry, context=None) for entry in entries]
        shards = [
            (list(portable[worker::workers]), list(candidate_sets[worker::workers]))
            for worker in range(workers)
        ]
        payloads = [(shard, sets, cache, score_kwargs) for shard, sets in shards]
        native.prepare_fork_harnesses([backend])
        with multiprocessing.Pool(processes=workers) as pool:
            worker_results = pool.map(_entries_worker, payloads)
        all_scores: List[Optional[List[CandidateScore]]] = [None] * len(entries)
        for worker, (scores_list, stats) in enumerate(worker_results):
            if cache is not None and stats is not None:
                cache.absorb(stats)
            for offset, scores in enumerate(scores_list):
                all_scores[worker + offset * workers] = scores
    else:
        all_scores = list(
            score_entry_sets(entries, candidate_sets, cache, **score_kwargs)
        )

    return build_report(
        entries, candidate_sets, all_scores, backend=backend, opt_level=opt_level
    )


def build_report(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    all_scores: Sequence[Optional[List[CandidateScore]]],
    backend: str = "x86",
    opt_level: str = "O0",
) -> Dict[str, Any]:
    """The aggregate JSON report for already-computed per-entry scores.

    Split out of :func:`score_dataset` so any producer of
    :class:`CandidateScore` lists — the in-process scorer or the HTTP
    service's grid client reassembling scores from wire payloads — emits
    the *same* document: same key order, same rounding, byte-identical
    when serialized the same way.
    """
    functions: List[Dict[str, Any]] = []
    verdict_counts: Dict[str, int] = {}
    mismatches: List[Dict[str, Any]] = []
    max_candidates = max((len(c) for c in candidate_sets), default=0)
    topk_hits = [0] * max_candidates

    for entry, candidates, scores in zip(entries, candidate_sets, all_scores):
        assert scores is not None
        for score in scores:
            verdict_counts[score.verdict] = verdict_counts.get(score.verdict, 0) + 1
            if score.expected and not score.matches_expected:
                mismatches.append(
                    {
                        "uid": entry.uid,
                        "candidate": score.index,
                        "kind": score.kind,
                        "expected": score.expected,
                        "verdict": score.verdict,
                        "detail": score.detail,
                    }
                )
        # Ranking by the text metric alone (what a model would have without
        # an oracle): is an IO-equivalent candidate among the top k most
        # reference-like?  k=1 doubles as the report's top-1 number.
        ranked = sorted(scores, key=lambda s: (-s.similarity, s.index))
        for k in range(max_candidates):
            if any(s.verdict == "io_equivalent" for s in ranked[: k + 1]):
                topk_hits[k] += 1
        functions.append(
            {
                "uid": entry.uid,
                "name": entry.name,
                "origin": entry.origin,
                "inputs": len(entry.inputs),
                "candidates": [score.to_json() for score in scores],
            }
        )

    total_functions = len(functions)
    total_candidates = sum(len(c) for c in candidate_sets)
    labelled = sum(
        1 for sets in candidate_sets for candidate in sets if candidate.expected
    )
    agreement = (labelled - len(mismatches)) / labelled if labelled else 1.0
    return {
        "schema": 1,
        "config": {
            "backend": backend,
            "opt_level": opt_level,
        },
        "functions": functions,
        "aggregate": {
            "functions": total_functions,
            "candidates": total_candidates,
            "verdict_counts": dict(sorted(verdict_counts.items())),
            "ground_truth_agreement": round(agreement, 4),
            "mismatches": mismatches,
            "top1_by_similarity": round(topk_hits[0] / total_functions, 4)
            if total_functions and topk_hits
            else 0.0,
            "topk_any_equivalent": {
                str(k + 1): round(hits / total_functions, 4)
                for k, hits in enumerate(topk_hits)
            }
            if total_functions
            else {},
        },
    }


def fixed_seed_grid(
    seed: int,
    functions: int,
    candidates: int,
    max_stmts: int = 10,
    backend: str = "x86",
    opt_level: str = "O0",
    cache: Optional[EvalCache] = None,
) -> Tuple[List[DatasetEntry], List[List[Candidate]]]:
    """The fixed-seed grid the score, repair and ``score-grid`` CLIs judge:
    ``functions`` generated references and ``candidates`` certified
    mutants of each.  Returns (entries, candidate sets).
    """
    # Scoring never reads the reference assembly grid, so only the ISA/opt
    # the compile gate uses is materialised (the dataset CLI still builds
    # the full {x86, arm} x {O0, O3} grid — that is its job).
    entries = generated_entries(
        seed,
        functions,
        max_stmts=max_stmts,
        isas=("arm",) if backend == "arm" else ("x86",),
        opt_levels=(opt_level,),
        cache=cache,
    )
    candidate_sets = [
        Mutator(
            entry.seed if entry.seed is not None else seed,
            # Interpreter-certified trap labels do not transfer everywhere:
            # AArch64 returns 0 on integer division by zero instead of
            # faulting, and -O3 DCE can delete a dead trapping division
            # entirely.  Both substrates get trap-free candidate sets.
            allow_trap_labels=backend != "arm" and opt_level == "O0",
        ).candidates(entry, candidates, cache=cache)
        for entry in entries
    ]
    return entries, candidate_sets


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _resolve_backend(requested: str) -> str:
    if requested == "auto":
        if native.have_native_toolchain():
            return "x86"
        if native.have_arm_toolchain():
            return "arm"
        return "none"
    if requested == "x86" and not native.have_native_toolchain():
        raise SystemExit("error: no x86-64 toolchain (gcc + as) on this host")
    if requested == "arm" and not native.have_arm_toolchain():
        raise SystemExit("error: no AArch64 toolchain/emulator on this host")
    return requested


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.score",
        description="Score decompilation candidates by IO equivalence.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--functions", type=int, default=20, help="reference functions (default 20)"
    )
    parser.add_argument(
        "--candidates", type=int, default=8, help="candidates per function (default 8)"
    )
    parser.add_argument(
        "--max-stmts", type=int, default=10, help="statement budget per reference"
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "x86", "arm", "none"),
        default="auto",
        help="execution substrate: native ISA, or 'none' for the interpreter "
        "(default auto: x86 when the toolchain exists)",
    )
    parser.add_argument(
        "--opt-level",
        choices=("O0", "O3"),
        default="O0",
        help="opt level candidates are compiled at (default O0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; functions are sharded round-robin and the "
        "report is byte-identical at any job count (default 1)",
    )
    parser.add_argument(
        "--output", default="eval_report.json", help="where to write the JSON report"
    )
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    if args.max_stmts < 3:
        parser.error("--max-stmts must be at least 3 (the generator's minimum)")

    backend = _resolve_backend(args.backend)
    cache = cache_from_args(args)
    started = time.time()
    entries, candidate_sets = fixed_seed_grid(
        args.seed,
        args.functions,
        args.candidates,
        max_stmts=args.max_stmts,
        backend=backend,
        opt_level=args.opt_level,
        cache=cache,
    )
    built = time.time()
    print(
        f"dataset: {len(entries)} functions x {args.candidates} candidates "
        f"({sum(len(e.inputs) for e in entries)} IO vectors) "
        f"in {built - started:.1f}s; scoring on {backend!r}"
    )

    report = score_dataset(
        entries,
        candidate_sets,
        backend=backend,
        opt_level=args.opt_level,
        jobs=max(1, args.jobs),
        cache=cache,
    )
    scored = time.time()

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    aggregate = report["aggregate"]
    rate = aggregate["candidates"] / max(1e-9, scored - built)
    print(f"wrote {args.output}")
    print(
        "  verdicts: "
        + ", ".join(f"{k}={v}" for k, v in aggregate["verdict_counts"].items())
    )
    print(
        f"  ground-truth agreement: {aggregate['ground_truth_agreement']:.1%} "
        f"({len(aggregate['mismatches'])} mismatches)"
    )
    print(
        f"  top-1 by similarity: {aggregate['top1_by_similarity']:.1%}; "
        f"any-equivalent@N: "
        + ", ".join(
            f"@{k}={v:.0%}" for k, v in aggregate["topk_any_equivalent"].items()
        )
    )
    print(f"  throughput: {rate:.1f} candidates/s ({scored - built:.1f}s scoring)")
    if cache is not None:
        cache.sweep()
        print("  cache: " + describe_stats(cache.stats_summary()))

    for mismatch in aggregate["mismatches"][:10]:
        print(
            f"  MISMATCH {mismatch['uid']} candidate {mismatch['candidate']} "
            f"({mismatch['kind']}): expected {mismatch['expected']}, "
            f"got {mismatch['verdict']} — {mismatch['detail']}",
            file=sys.stderr,
        )
    if aggregate["mismatches"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
