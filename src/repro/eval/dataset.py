"""Dataset builder for decompilation-hypothesis scoring.

This module plays the role ExeBench plays for SLaDe: it materialises
(assembly, reference C, IO-vector) triples the candidate scorer evaluates
against.  Every :class:`DatasetEntry` bundles

* the **reference C** source and entry-point name (ground truth);
* its compiled **assembly** for every requested (ISA, opt level) — the
  artefact a real decompiler would be prompted with;
* the **IO vectors**: argument tuples plus the reference's observable
  state on each of them (return value, final pointer-argument contents,
  final globals), produced by the interpreter — the paper's notion of the
  function's input/output behaviour.

Entries come from two sources: the seeded program generator
(:mod:`repro.testing.generator`), which supplies unlimited fixed-seed
functions, and the hand-written test corpus (``tests/corpus.py``) when it
is available on disk.

Datasets round-trip through JSON (``--output`` / ``--input``): a file
written by one run can be loaded by a later one — or by the scorer — and
produces byte-identical downstream reports, because every observable field
(source, inputs, assembly grid, reference observations) survives the trip.
Built entries are also cached content-addressed (``--cache-dir`` /
``--no-cache``, see :mod:`repro.eval.cache`), so warm runs load triples
instead of regenerating and recompiling them.

CLI::

    python -m repro.eval.dataset --seed 0 --count 10 --output dataset.json
    python -m repro.eval.dataset --input dataset.json --output copy.json
    python -m repro.eval.dataset --seed 0 --count 50 --include-corpus \\
        --isas x86,arm --opt-levels O0,O3
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.cache import add_cache_arguments, cache_from_args, describe_stats
from repro.lang import ast_nodes as ast
from repro.lang.interpreter import CInterpreterError, RuntimeLimitExceeded
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, parse_program
from repro.lang.typecheck import TypeChecker
from repro.testing.frontend import CaseContext
from repro.testing.fuzz import case_seed
from repro.testing.generator import ProgramGenerator
from repro.testing.oracle import first_value_mismatch

#: The (ISA, opt level) grid a dataset entry is compiled across by default.
DEFAULT_ISAS: Tuple[str, ...] = ("x86", "arm")
DEFAULT_OPT_LEVELS: Tuple[str, ...] = ("O0", "O3")

#: Scorer verdict classes, worst to best.  ``classify_observations`` returns
#: one of the last three; the front-end gate produces the first three.
VERDICTS: Tuple[str, ...] = (
    "parse_error",
    "type_error",
    "compile_error",
    "trap",
    "io_mismatch",
    "io_equivalent",
)


@dataclass
class Observation:
    """Observable state of one execution of one input vector.

    ``status`` is ``"ok"``, ``"trap"`` (runtime fault: division by zero,
    SIGFPE, non-zero exit) or ``"limit"`` (step budget / wall-clock
    exhaustion).  The value fields are only meaningful when ``status`` is
    ``"ok"``.
    """

    status: str
    return_value: Any = None
    arg_values: List[Any] = field(default_factory=list)
    globals: Dict[str, Any] = field(default_factory=dict)
    detail: str = ""

    def to_json(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "return_value": self.return_value,
            "arg_values": self.arg_values,
            "globals": self.globals,
        }


@dataclass
class DatasetEntry:
    """One (assembly, reference C, IO-vector) triple."""

    uid: str
    origin: str  # "generated" | "corpus"
    name: str
    source: str
    inputs: List[Tuple]
    assembly: Dict[str, str]  # "<isa>-<opt>" -> assembly text
    reference: List[Observation]  # one per input vector
    seed: Optional[int] = None
    context: Optional[CaseContext] = field(default=None, repr=False, compare=False)

    def to_json(self) -> Dict[str, Any]:
        return {
            "uid": self.uid,
            "origin": self.origin,
            "name": self.name,
            "seed": self.seed,
            "source": self.source,
            "inputs": [list(vector) for vector in self.inputs],
            "assembly": dict(self.assembly),
            "reference": [obs.to_json() for obs in self.reference],
        }


class DatasetError(Exception):
    """A reference function could not be materialised (it is supposed to be
    ground truth: it must compile everywhere and execute cleanly)."""


def front_end_gate(source: str, name: str, program: Optional[ast.Program] = None):
    """Run parse -> typecheck on a candidate: the single source of truth
    for front-end verdicts.

    Returns ``(verdict, detail)`` — both strings — when the candidate dies
    in the front end, else ``(program, checker)``.  Both the scorer and the
    mutation certifier judge candidates through this one gate, so their
    notions of ``parse_error``/``type_error`` cannot drift apart.

    ``program``, when given, is the unchecked AST ``source`` was printed
    from (a repair neighbor's), and the parse is skipped.  The name check
    and the type check still run on it, so this is still the certifier's
    gate: such a program is the tree ``source`` parses to, which
    ``tests/test_neighbor_ast.py`` checks on the neighbor population.
    """
    if program is None:
        try:
            program = parse_program(source)
        except (ParseError, LexError, RecursionError) as exc:
            return "parse_error", f"{type(exc).__name__}: {exc}"
    if program.function(name) is None:
        return "type_error", f"candidate does not define {name!r}"
    checker = TypeChecker(program)
    result = checker.check()
    if result.errors or not result.missing.is_empty():
        detail = result.errors[0] if result.errors else "unresolved symbols"
        return "type_error", str(detail)
    return program, checker


def interpreter_observation(context: CaseContext, args: Tuple) -> Observation:
    """Run the interpreter on one input vector and record what it observed."""
    try:
        result = context.interpreter().run_function(context.name, args)
    except RuntimeLimitExceeded as exc:
        return Observation("limit", detail=str(exc))
    except CInterpreterError as exc:
        return Observation("trap", detail=str(exc))
    return Observation(
        "ok", result.return_value, list(result.arg_values), dict(result.globals)
    )


def observation_diff(
    index: int, ref: Observation, cand: Observation
) -> Optional[Tuple[str, str]]:
    """The per-input divergence between one reference/candidate pair.

    Returns ``None`` when the two observations agree under the oracle's
    IO-equivalence notion, else ``(category, detail)`` with ``category``
    one of ``"trap"`` (the candidate faults or exhausts its budget where
    the reference does not) or ``"mismatch"`` (both finish but an
    observable value differs, or the reference traps and the candidate
    does not).  The repair search scores candidates by the *fraction* of
    inputs whose diff is ``None`` — a finer signal than the verdict alone.
    """
    if cand.status == "limit":
        return "trap", f"input #{index}: resource limit ({cand.detail})"
    if cand.status == "trap" and ref.status != "trap":
        return "trap", f"input #{index}: {cand.detail or 'runtime trap'}"
    if cand.status == "ok" and ref.status == "trap":
        return "mismatch", f"input #{index}: reference traps, candidate does not"
    if cand.status == "ok" and ref.status == "ok":
        field_name = first_value_mismatch(ref, cand)
        if field_name is not None:
            return "mismatch", f"input #{index}: {field_name} differs"
    return None


def classify_with_diffs(
    reference: Sequence[Observation], candidate: Sequence[Observation]
) -> Tuple[str, str, List[Optional[Tuple[str, str]]]]:
    """(verdict, detail, per-input diffs) — see :func:`classify_observations`.

    The diff list has one entry per compared input (``None`` = agreement);
    the verdict and detail are exactly what :func:`classify_observations`
    returns: a trap anywhere takes precedence over a value mismatch, and
    the detail names the first input exhibiting the winning category.
    """
    diffs: List[Optional[Tuple[str, str]]] = [
        observation_diff(index, ref, cand)
        for index, (ref, cand) in enumerate(zip(reference, candidate))
    ]
    trap_detail = next(
        (detail for diff in diffs if diff is not None
         for category, detail in (diff,) if category == "trap"),
        None,
    )
    mismatch_detail = next(
        (detail for diff in diffs if diff is not None
         for category, detail in (diff,) if category == "mismatch"),
        None,
    )
    if trap_detail is not None:
        return "trap", trap_detail, diffs
    if mismatch_detail is not None:
        return "io_mismatch", mismatch_detail, diffs
    return "io_equivalent", "", diffs


def classify_observations(
    reference: Sequence[Observation], candidate: Sequence[Observation]
) -> Tuple[str, str]:
    """(verdict, detail) for a candidate's observations vs the reference's.

    The comparison is the oracle's IO-equivalence notion: status (a trap is
    an observation both sides must share), return value, final pointer
    arguments, and final globals over the keys **both** sides report (the
    native harness only observes globals that appear in the assembly).  A
    trap anywhere takes precedence over a value mismatch; a resource limit
    counts as a trap (a candidate that cannot finish within budget is not
    IO-equivalent in any usable sense).
    """
    verdict, detail, _ = classify_with_diffs(reference, candidate)
    return verdict, detail


def entry_from_json(data: Dict[str, Any]) -> DatasetEntry:
    """Rebuild a :class:`DatasetEntry` from its :meth:`~DatasetEntry.to_json`.

    The entry carries no :class:`CaseContext` (nothing downstream of the
    dataset reads it — the scorer builds contexts for *candidates*), and
    every observable field survives the JSON trip, so scoring a loaded
    entry is byte-identical to scoring the freshly built one.
    """
    return DatasetEntry(
        uid=data["uid"],
        origin=data["origin"],
        name=data["name"],
        source=data["source"],
        inputs=[tuple(args) for args in data["inputs"]],
        assembly=dict(data["assembly"]),
        reference=[
            Observation(
                obs["status"],
                obs["return_value"],
                list(obs["arg_values"]),
                dict(obs["globals"]),
            )
            for obs in data["reference"]
        ],
        seed=data.get("seed"),
    )


def dataset_from_json(document: Dict[str, Any]) -> List[DatasetEntry]:
    if document.get("schema") != 1:
        raise DatasetError(f"unsupported dataset schema {document.get('schema')!r}")
    return [entry_from_json(data) for data in document["entries"]]


def load_dataset(path) -> List[DatasetEntry]:
    """Entries from a ``--output`` file written by this module's CLI."""
    with open(path) as handle:
        return dataset_from_json(json.load(handle))


def _entry_cache_key(
    cache,
    source: str,
    name: str,
    inputs: Sequence[Tuple],
    isas: Sequence[str],
    opt_levels: Sequence[str],
) -> str:
    from repro.eval.cache import source_digest

    return cache.key(
        "entry",
        source_digest(source),
        name,
        json.dumps([list(args) for args in inputs]),
        ",".join(isas),
        ",".join(opt_levels),
    )


def build_entry(
    source: str,
    name: str,
    inputs: Sequence[Tuple],
    uid: str,
    origin: str,
    seed: Optional[int] = None,
    isas: Sequence[str] = DEFAULT_ISAS,
    opt_levels: Sequence[str] = DEFAULT_OPT_LEVELS,
    program=None,
    checker=None,
    cache=None,
) -> DatasetEntry:
    """Materialise one triple: compile the grid, record the IO vectors.

    With ``cache`` (an :class:`repro.eval.cache.EvalCache`) the built
    entry is stored content-addressed — keyed by the normalized source
    token stream, the requested grid and the pipeline fingerprint — and a
    later call with the same inputs loads it instead of compiling and
    interpreting again.  ``uid``/``origin``/``seed`` are caller metadata
    and always come from the current call, not the cache.
    """
    key = None
    if cache is not None:
        key = _entry_cache_key(cache, source, name, inputs, isas, opt_levels)
        cached = cache.get("entry", key)
        if cached is not None:
            entry = entry_from_json(cached)
            entry.uid = uid
            entry.origin = origin
            entry.seed = seed
            return entry
    try:
        context = CaseContext(source, name, program=program, checker=checker)
        assembly = {
            f"{isa}-{opt}": context.assembly(isa, opt)
            for isa in isas
            for opt in opt_levels
        }
    except Exception as exc:
        raise DatasetError(f"reference {uid} does not compile: {exc}") from exc
    arity = len(context.param_types())
    for index, args in enumerate(inputs):
        if len(args) != arity:
            raise DatasetError(
                f"reference {uid}: input #{index} has {len(args)} argument(s), "
                f"but {name} takes {arity}"
            )
    reference = [interpreter_observation(context, tuple(args)) for args in inputs]
    for index, obs in enumerate(reference):
        if obs.status == "limit":
            raise DatasetError(
                f"reference {uid} exhausts the step budget on input #{index}"
            )
    entry = DatasetEntry(
        uid=uid,
        origin=origin,
        name=name,
        source=source,
        inputs=[tuple(args) for args in inputs],
        assembly=assembly,
        reference=reference,
        seed=seed,
        context=context,
    )
    if cache is not None and key is not None:
        cache.put("entry", key, entry.to_json())
    return entry


def generated_entries(
    seed: int,
    count: int,
    max_stmts: int = 10,
    isas: Sequence[str] = DEFAULT_ISAS,
    opt_levels: Sequence[str] = DEFAULT_OPT_LEVELS,
    cache=None,
) -> List[DatasetEntry]:
    """``count`` fixed-seed generator functions, ExeBench-style."""
    entries: List[DatasetEntry] = []
    for index in range(count):
        entry_seed = case_seed(seed, index)
        case = ProgramGenerator(entry_seed, max_stmts=max_stmts).generate()
        entries.append(
            build_entry(
                case.source,
                case.name,
                case.inputs,
                uid=f"gen-{seed}-{index}",
                origin="generated",
                seed=entry_seed,
                isas=isas,
                opt_levels=opt_levels,
                program=case.program,
                checker=case.checker,
                cache=cache,
            )
        )
    return entries


def load_corpus(path: Optional[Path] = None) -> List[Tuple[str, str, List[Tuple]]]:
    """The hand-written test corpus as (source, name, inputs) triples.

    The corpus lives in the test tree (``tests/corpus.py``); when the
    package is used outside a checkout the file may be absent, in which
    case an empty list is returned.
    """
    if path is None:
        path = Path(__file__).resolve().parents[3] / "tests" / "corpus.py"
    if not path.is_file():
        return []
    spec = importlib.util.spec_from_file_location("repro_eval_corpus", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(source, name, list(inputs)) for source, name, inputs in module.CORPUS]


def corpus_entries(
    corpus: Optional[Sequence[Tuple[str, str, List[Tuple]]]] = None,
    isas: Sequence[str] = DEFAULT_ISAS,
    opt_levels: Sequence[str] = DEFAULT_OPT_LEVELS,
    cache=None,
) -> List[DatasetEntry]:
    if corpus is None:
        corpus = load_corpus()
    entries: List[DatasetEntry] = []
    for index, (source, name, inputs) in enumerate(corpus):
        entries.append(
            build_entry(
                source,
                name,
                inputs,
                uid=f"corpus-{index}-{name}",
                origin="corpus",
                isas=isas,
                opt_levels=opt_levels,
                cache=cache,
            )
        )
    return entries


def build_dataset(
    seed: int,
    count: int,
    include_corpus: bool = False,
    max_stmts: int = 10,
    isas: Sequence[str] = DEFAULT_ISAS,
    opt_levels: Sequence[str] = DEFAULT_OPT_LEVELS,
    cache=None,
) -> List[DatasetEntry]:
    """Generator-sourced entries, optionally prefixed by the corpus."""
    entries: List[DatasetEntry] = []
    if include_corpus:
        entries.extend(corpus_entries(isas=isas, opt_levels=opt_levels, cache=cache))
    entries.extend(
        generated_entries(
            seed, count, max_stmts=max_stmts, isas=isas, opt_levels=opt_levels,
            cache=cache,
        )
    )
    return entries


def dataset_to_json(entries: Sequence[DatasetEntry]) -> Dict[str, Any]:
    return {
        "schema": 1,
        "entries": [entry.to_json() for entry in entries],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.dataset",
        description="Materialise (assembly, reference C, IO-vector) triples.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--count", type=int, default=10, help="generated functions (default 10)"
    )
    parser.add_argument(
        "--max-stmts", type=int, default=10, help="statement budget per function"
    )
    parser.add_argument(
        "--include-corpus",
        action="store_true",
        help="prepend the hand-written tests/corpus.py functions",
    )
    parser.add_argument(
        "--isas",
        default=",".join(DEFAULT_ISAS),
        help="comma-separated ISAs to compile (default x86,arm)",
    )
    parser.add_argument(
        "--opt-levels",
        default=",".join(DEFAULT_OPT_LEVELS),
        help="comma-separated opt levels to compile (default O0,O3)",
    )
    parser.add_argument(
        "--output", default="dataset.json", help="where to write the dataset"
    )
    parser.add_argument(
        "--input",
        default=None,
        help="load a previously written dataset instead of building one "
        "(--seed/--count/--isas/... are ignored)",
    )
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    if args.max_stmts < 3:
        parser.error("--max-stmts must be at least 3 (the generator's minimum)")

    cache = cache_from_args(args)
    if args.input is not None:
        entries = load_dataset(args.input)
    else:
        entries = build_dataset(
            args.seed,
            args.count,
            include_corpus=args.include_corpus,
            max_stmts=args.max_stmts,
            isas=tuple(s for s in args.isas.split(",") if s),
            opt_levels=tuple(s for s in args.opt_levels.split(",") if s),
            cache=cache,
        )
    with open(args.output, "w") as handle:
        json.dump(dataset_to_json(entries), handle, indent=2)
        handle.write("\n")
    vectors = sum(len(entry.inputs) for entry in entries)
    print(
        f"wrote {args.output}: {len(entries)} functions, {vectors} IO vectors, "
        f"{sum(len(entry.assembly) for entry in entries)} assembly listings"
    )
    if cache is not None:
        cache.sweep()
        print(describe_stats(cache.stats_summary()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
