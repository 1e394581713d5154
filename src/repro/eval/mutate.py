"""Mutation-based pseudo-decompiler with ground-truth labels.

SLaDe's scorer judges *neural* decompilation hypotheses; reproducing that
loop without a model needs candidate sets whose correct verdicts are known
in advance.  This module manufactures them: each candidate is the reference
function pushed through one of three mutation classes —

* **preserving** — semantics-preserving rewrites a correct decompiler might
  legitimately produce: consistent local/parameter renames, commuted
  operands of commutative integer operators, ``for`` → ``while`` loop
  refactors, dead local declarations;
* **breaking** — the classic decompiler failure modes: off-by-one literals,
  wrong operators, dropped casts, flipped signedness, negated conditions,
  dropped statements, zeroed divisors (which trap);
* **invalid** — candidates that do not survive the front end at all:
  truncated source (``parse_error``), ill-typed statements
  (``type_error``), non-constant global initialisers (``compile_error``).

Every candidate's label is **validated at generation time** against the
reference semantics: preserving mutants must match the reference's
observable state on every IO vector (interpreter-checked), breaking
mutants must differ on at least one — under the *same* observability rule
the native scorer uses (globals are only observable when the candidate's
function references them, because unreferenced globals are not emitted
into the assembly).  Mutants whose label cannot be certified are discarded
and resampled, so the scorer's verdicts are testable: any disagreement
between :mod:`repro.eval.score` and these labels is a real bug in the
scoring pipeline, not label noise.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.compiler.driver import CompileError, lower_for_backend
from repro.eval.dataset import (
    DatasetEntry,
    Observation,
    classify_observations,
    front_end_gate,
    interpreter_observation,
)
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, parse_program
from repro.lang.printer import print_program
from repro.testing.frontend import CaseContext
from repro.testing.reduce import (
    expr_slots,
    get_slot,
    set_slot,
    subexpressions,
    walk_stmt_lists,
)

#: Operators whose operands may be swapped without changing the result
#: (on integer operands; the mutator checks the annotated types).
_COMMUTATIVE = ("+", "*", "&", "|", "^", "==", "!=")

#: op -> wrong op used by the ``swap_op`` breaking mutation.
_WRONG_OP: Dict[str, str] = {
    "+": "-",
    "-": "+",
    "*": "+",
    "<": "<=",
    "<=": "<",
    ">": ">=",
    ">=": ">",
    "==": "!=",
    "!=": "==",
    "&": "|",
    "|": "&",
    "^": "&",
    "<<": ">>",
    ">>": "<<",
}

#: IntType -> the same width with flipped signedness.
_FLIPPED_SIGN: Dict[Tuple[int, bool], ct.IntType] = {
    (t.rank, t.unsigned): t
    for t in (
        ct.CHAR, ct.UCHAR, ct.SHORT, ct.USHORT, ct.INT, ct.UINT, ct.LONG, ct.ULONG
    )
}


@dataclass
class Candidate:
    """One pseudo-decompilation hypothesis with its certified ground truth."""

    text: str
    label: str  # "preserving" | "breaking" | "invalid"
    kind: str  # which mutation produced it
    expected: str  # the exact verdict the scorer must emit
    detail: str = ""
    #: The unchecked AST ``text`` was printed from, when its producer has
    #: one (repair neighbors do): the scorer's gate type-checks it instead
    #: of parsing ``text`` again.  Not part of equality, repr or the cache.
    program: Optional[ast.Program] = field(default=None, compare=False, repr=False)


class MutationError(Exception):
    """No certifiable candidate could be produced for a requested label."""


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def _has_side_effects(node: ast.Node) -> bool:
    if isinstance(node, (ast.Assignment, ast.Call, ast.PostfixOp)):
        return True
    if isinstance(node, ast.UnaryOp) and node.op in ("++", "--"):
        return True
    for value in vars(node).values():
        if isinstance(value, ast.Node) and _has_side_effects(value):
            return True
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node) and _has_side_effects(item):
                    return True
    return False


def _walk_nodes(node: ast.Node):
    yield node
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            yield from _walk_nodes(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield from _walk_nodes(item)


def _identifiers(node: ast.Node) -> Set[str]:
    return {n.name for n in _walk_nodes(node) if isinstance(n, ast.Identifier)}


def _declared_globals(program: ast.Program) -> Set[str]:
    return {decl.name for decl in program.globals()}


def _observable_globals(program: ast.Program, name: str) -> Set[str]:
    """Globals the compiled candidate's assembly will define.

    The backends only emit ``.comm``/``.data`` objects for globals the
    compiled function references, so the native harness can only observe
    those; label validation must judge breaking mutations through the same
    keyhole or the scorer would (correctly) disagree.
    """
    func = program.function(name)
    if func is None:
        return set()
    return _declared_globals(program) & _identifiers(func)


def _restrict_globals(obs: Observation, keys: Set[str]) -> Observation:
    return Observation(
        obs.status,
        obs.return_value,
        list(obs.arg_values),
        {k: v for k, v in obs.globals.items() if k in keys},
        obs.detail,
    )


def _int_decl_slots(func: ast.FunctionDef) -> List[ast.Declaration]:
    """Local declarations (including for-init) with a plain integer type."""
    decls = [
        stmt
        for stmts in walk_stmt_lists(func)
        for stmt in stmts
        if isinstance(stmt, ast.Declaration) and isinstance(stmt.type, ct.IntType)
    ]
    decls.extend(
        node.init
        for node in _walk_nodes(func)
        if isinstance(node, ast.For)
        and isinstance(node.init, ast.Declaration)
        and isinstance(node.init.type, ct.IntType)
    )
    return decls


# ---------------------------------------------------------------------------
# Preserving mutations.  Each takes (program, func, rng), edits in place and
# returns a short description, or None when inapplicable.
# ---------------------------------------------------------------------------


def _mut_rename(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    top_level = _declared_globals(program) | {func.name}
    declared = {p.name for p in func.params}
    declared.update(
        stmt.name
        for stmts in walk_stmt_lists(func)
        for stmt in stmts
        if isinstance(stmt, ast.Declaration)
    )
    declared.update(
        node.init.name
        for node in _walk_nodes(func)
        if isinstance(node, ast.For) and isinstance(node.init, ast.Declaration)
    )
    declared -= top_level  # never rename globals: they are observable state
    if not declared:
        return None
    mapping = {name: f"{name}_rn" for name in declared}
    for node in _walk_nodes(func):
        if isinstance(node, ast.Identifier) and node.name in mapping:
            node.name = mapping[node.name]
        elif isinstance(node, ast.Declaration) and node.name in mapping:
            node.name = mapping[node.name]
        elif isinstance(node, ast.Param) and node.name in mapping:
            node.name = mapping[node.name]
    return f"renamed {len(mapping)} locals"


def _mut_commute(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    sites = [
        node
        for node in _walk_nodes(func)
        if isinstance(node, ast.BinaryOp)
        and node.op in _COMMUTATIVE
        and isinstance(node.left.ctype, ct.IntType)
        and isinstance(node.right.ctype, ct.IntType)
        and not _has_side_effects(node.left)
        and not _has_side_effects(node.right)
    ]
    if not sites:
        return None
    site = rng.choice(sites)
    site.left, site.right = site.right, site.left
    return f"commuted operands of {site.op!r}"


def _mut_for_to_while(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    sites = []
    for stmts in walk_stmt_lists(func):
        for index, stmt in enumerate(stmts):
            if (
                isinstance(stmt, ast.For)
                and stmt.cond is not None
                and stmt.step is not None
                and not any(
                    isinstance(n, ast.Continue) for n in _walk_nodes(stmt.body)
                )
            ):
                sites.append((stmts, index))
    if not sites:
        return None
    stmts, index = rng.choice(sites)
    loop = stmts[index]
    body_stmts = (
        list(loop.body.stmts) if isinstance(loop.body, ast.Block) else [loop.body]
    )
    new_body = ast.Block(body_stmts + [ast.ExprStmt(loop.step)])
    replacement: List[ast.Stmt] = []
    if loop.init is not None:
        replacement.append(
            loop.init if isinstance(loop.init, ast.Stmt) else ast.ExprStmt(loop.init)
        )
    replacement.append(ast.While(loop.cond, new_body))
    stmts[index : index + 1] = [ast.Block(replacement)]
    return "rewrote for loop as while"


def _mut_dead_decl(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    name = f"__dead{rng.randint(0, 999)}"
    decl = ast.Declaration(name, ct.LONG, ast.IntLiteral(rng.randint(0, 99)))
    body = func.body
    assert body is not None
    position = rng.randint(0, max(0, len(body.stmts) - 1))
    body.stmts.insert(position, decl)
    return f"inserted dead local {name}"


# ---------------------------------------------------------------------------
# Breaking mutations
# ---------------------------------------------------------------------------


def _mut_bump_literal(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    slots = [
        (parent, attr, index)
        for parent, attr, index in expr_slots(func)
        if isinstance(get_slot(parent, attr, index), ast.IntLiteral)
    ]
    if not slots:
        return None
    parent, attr, index = rng.choice(slots)
    literal = get_slot(parent, attr, index)
    delta = rng.choice((1, -1))
    set_slot(parent, attr, index, ast.IntLiteral(literal.value + delta))
    return f"literal {literal.value} -> {literal.value + delta}"


def _mut_swap_op(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    sites = [
        node
        for node in _walk_nodes(func)
        if isinstance(node, ast.BinaryOp) and node.op in _WRONG_OP
    ]
    if not sites:
        return None
    site = rng.choice(sites)
    old = site.op
    site.op = _WRONG_OP[old]
    return f"operator {old!r} -> {site.op!r}"


def _mut_drop_cast(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    slots = [
        (parent, attr, index)
        for parent, attr, index in expr_slots(func)
        if isinstance(get_slot(parent, attr, index), ast.Cast)
    ]
    if not slots:
        return None
    parent, attr, index = rng.choice(slots)
    cast = get_slot(parent, attr, index)
    set_slot(parent, attr, index, cast.operand)
    return f"dropped cast to {cast.target_type}"


def _mut_flip_signedness(
    program: ast.Program, func: ast.FunctionDef, rng: random.Random
):
    decls = _int_decl_slots(func)
    casts = [
        node
        for node in _walk_nodes(func)
        if isinstance(node, ast.Cast) and isinstance(node.target_type, ct.IntType)
    ]
    sites: List = decls + casts
    if not sites:
        return None
    site = rng.choice(sites)
    if isinstance(site, ast.Declaration):
        flipped = _FLIPPED_SIGN[(site.type.rank, not site.type.unsigned)]
        site.type = flipped
        return f"local {site.name} signedness -> {flipped}"
    flipped = _FLIPPED_SIGN[(site.target_type.rank, not site.target_type.unsigned)]
    site.target_type = flipped
    return f"cast signedness -> {flipped}"


def _mut_negate_condition(
    program: ast.Program, func: ast.FunctionDef, rng: random.Random
):
    sites = [
        node
        for node in _walk_nodes(func)
        if isinstance(node, (ast.If, ast.While, ast.DoWhile))
        or (isinstance(node, ast.For) and node.cond is not None)
    ]
    if not sites:
        return None
    site = rng.choice(sites)
    site.cond = ast.UnaryOp("!", site.cond)
    return f"negated {type(site).__name__} condition"


def _mut_drop_stmt(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    sites = []
    for stmts in walk_stmt_lists(func):
        for index, stmt in enumerate(stmts):
            # Dropping a declaration would orphan later uses (a type error,
            # not a semantic break); dropping the return changes the shape.
            if not isinstance(stmt, (ast.Return, ast.Declaration)):
                sites.append((stmts, index))
    if not sites:
        return None
    stmts, index = rng.choice(sites)
    dropped = stmts[index]
    del stmts[index]
    return f"dropped a {type(dropped).__name__}"


def _mut_bump_return(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    sites = [
        node
        for node in _walk_nodes(func)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    if not sites:
        return None
    site = rng.choice(sites)
    site.value = ast.BinaryOp("+", site.value, ast.IntLiteral(1))
    return "offset the returned value by one"


def _mut_zero_divisor(program: ast.Program, func: ast.FunctionDef, rng: random.Random):
    sites: List = [
        node
        for node in _walk_nodes(func)
        if isinstance(node, ast.BinaryOp) and node.op in ("/", "%")
    ]
    sites.extend(
        node
        for node in _walk_nodes(func)
        if isinstance(node, ast.Assignment) and node.op in ("/=", "%=")
    )
    if not sites:
        return None
    site = rng.choice(sites)
    if isinstance(site, ast.BinaryOp):
        site.right = ast.IntLiteral(0)
    else:
        site.value = ast.IntLiteral(0)
    return "zeroed a divisor"


# ---------------------------------------------------------------------------
# Invalid mutations (operate on source text / whole program)
# ---------------------------------------------------------------------------


def _invalid_parse(source: str, rng: random.Random) -> Tuple[str, str]:
    if rng.random() < 0.5:
        brace = source.rfind("}")
        return source[:brace] + source[brace + 1 :], "truncated closing brace"
    brace = source.find("{")
    return source[: brace + 1] + "\n    @@@\n" + source[brace + 1 :], "garbage token"


def _invalid_type(
    program: ast.Program, func: ast.FunctionDef, rng: random.Random
) -> str:
    assert func.body is not None
    if rng.random() < 0.5:
        # Dereferencing an integer literal is a hard type error.
        func.body.stmts.insert(0, ast.ExprStmt(ast.UnaryOp("*", ast.IntLiteral(1))))
        return "deref of non-pointer"
    # An undefined identifier leaves the checker's missing-set non-empty.
    func.body.stmts.insert(
        0,
        ast.ExprStmt(
            ast.Assignment("=", ast.Identifier("__undefined_sym"), ast.IntLiteral(1))
        ),
    )
    return "undefined identifier"


def _invalid_compile(program: ast.Program, rng: random.Random) -> str:
    # A global initialised from another global parses and type-checks but is
    # rejected by the backend driver's constant evaluator.
    program.decls.insert(0, ast.Declaration("__nc_seed", ct.INT, ast.IntLiteral(1)))
    program.decls.insert(
        1,
        ast.Declaration(
            "__nc",
            ct.INT,
            ast.BinaryOp("+", ast.Identifier("__nc_seed"), ast.IntLiteral(1)),
        ),
    )
    return "non-constant global initialiser"


_PRESERVING: List[Tuple[str, Callable]] = [
    ("rename", _mut_rename),
    ("commute", _mut_commute),
    ("for_to_while", _mut_for_to_while),
    ("dead_decl", _mut_dead_decl),
]

_BREAKING: List[Tuple[str, Callable]] = [
    ("bump_literal", _mut_bump_literal),
    ("swap_op", _mut_swap_op),
    ("drop_cast", _mut_drop_cast),
    ("flip_signedness", _mut_flip_signedness),
    ("negate_condition", _mut_negate_condition),
    ("drop_stmt", _mut_drop_stmt),
    ("zero_divisor", _mut_zero_divisor),
    ("bump_return", _mut_bump_return),
]

_INVALID_KINDS = ("parse_break", "type_break", "compile_break")


# ---------------------------------------------------------------------------
# Label validation
# ---------------------------------------------------------------------------


def _front_end(source: str, name: str):
    """(program, checker) when the candidate survives parse + typecheck,
    else the verdict string it dies with (the scorer's own gate)."""
    gate = front_end_gate(source, name)
    if isinstance(gate[0], str):
        return gate[0]
    return gate


def _compiles(program: ast.Program, name: str, checker) -> bool:
    try:
        lower_for_backend(program, name=name, opt_level="O0", checker=checker)
    except CompileError:
        return False
    return True


def _certify_executable(
    source: str, entry: DatasetEntry, label: str, allow_traps: bool = True
) -> Optional[Tuple[str, str]]:
    """(expected_verdict, detail) for a preserving/breaking mutant, or None
    when the label cannot be certified and the mutant must be discarded.

    ``allow_traps=False`` rejects breaking mutants whose certified verdict
    is ``trap``: the interpreter's trap semantics (division by zero faults)
    match x86 hardware, but AArch64 defines integer division by zero to
    return 0, so trap ground truth does not transfer to the arm backend.
    """
    front = _front_end(source, entry.name)
    if isinstance(front, str):
        return None  # the rewrite must survive the front end to carry a label
    program, checker = front
    if not _compiles(program, entry.name, checker):
        return None
    context = CaseContext(source, entry.name, program=program, checker=checker)
    observations: List[Observation] = []
    for args in entry.inputs:
        obs = interpreter_observation(context, args)
        if obs.status == "limit":
            return None  # e.g. a dropped decrement made the loop infinite
        observations.append(obs)

    if label == "preserving":
        # Strict: equal on every observable under full observability (the
        # mutations never touch global declarations, so both sides report
        # the same global set and nothing is skipped as unobservable).
        verdict, _ = classify_observations(entry.reference, observations)
        if verdict != "io_equivalent":
            return None
        return "io_equivalent", ""

    # Breaking: the difference must be visible through the native keyhole
    # (return value, pointer arguments, globals the candidate references).
    visible = _observable_globals(program, entry.name)
    restricted = [_restrict_globals(obs, visible) for obs in observations]
    verdict, detail = classify_observations(entry.reference, restricted)
    allowed = ("trap", "io_mismatch") if allow_traps else ("io_mismatch",)
    if verdict not in allowed:
        return None
    return verdict, detail


def _certify_invalid(source: str, entry: DatasetEntry, kind: str) -> Optional[str]:
    front = _front_end(source, entry.name)
    if kind == "parse_break":
        return "parse_error" if front == "parse_error" else None
    if kind == "type_break":
        return "type_error" if front == "type_error" else None
    if isinstance(front, str):
        return None
    program, checker = front
    if _compiles(program, entry.name, checker):
        return None
    return "compile_error"


# ---------------------------------------------------------------------------
# The candidate factory
# ---------------------------------------------------------------------------


class Mutator:
    """Deterministic candidate-set factory (one instance per seed)."""

    #: Resampling budget per requested candidate before giving up.
    MAX_ATTEMPTS = 40

    def __init__(self, seed: int, allow_trap_labels: bool = True) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: False when candidates will be scored on a substrate whose trap
        #: behaviour differs from the certifying interpreter's (AArch64
        #: returns 0 on integer division by zero instead of faulting).
        self.allow_trap_labels = allow_trap_labels

    def _mutation_source(self, entry: DatasetEntry) -> ast.Program:
        """The annotated reference AST mutations are applied to (copies of).

        The entry's context has already parsed and type-checked the
        reference, so expression nodes carry their checked ``ctype`` —
        which the commutation mutation uses to stay off pointer arithmetic.
        Entries loaded from a dataset file or the entry cache carry no
        context; re-front-ending the source reproduces it exactly.
        """
        if entry.context is None:
            entry.context = CaseContext(entry.source, entry.name)
        return entry.context.program

    def _one(self, entry: DatasetEntry, label: str) -> Candidate:
        reference = self._mutation_source(entry)
        for _ in range(self.MAX_ATTEMPTS):
            if label == "invalid":
                kind = self.rng.choice(_INVALID_KINDS)
                program = copy.deepcopy(reference)
                func = program.function(entry.name)
                assert func is not None
                if kind == "parse_break":
                    text, detail = _invalid_parse(entry.source, self.rng)
                elif kind == "type_break":
                    detail = _invalid_type(program, func, self.rng)
                    text = print_program(program)
                else:
                    detail = _invalid_compile(program, self.rng)
                    text = print_program(program)
                expected = _certify_invalid(text, entry, kind)
                if expected is None:
                    continue
                return Candidate(text, label, kind, expected, detail)

            kinds = _PRESERVING if label == "preserving" else _BREAKING
            kind, mutation = self.rng.choice(kinds)
            program = copy.deepcopy(reference)
            func = program.function(entry.name)
            assert func is not None
            detail = mutation(program, func, self.rng)
            if detail is None:
                continue
            text = print_program(program)
            if text == entry.source:
                continue
            certified = _certify_executable(
                text, entry, label, allow_traps=self.allow_trap_labels
            )
            if certified is None:
                continue
            expected, certify_detail = certified
            return Candidate(text, label, kind, expected, detail or certify_detail)
        raise MutationError(
            f"could not certify a {label!r} candidate for {entry.uid} "
            f"within {self.MAX_ATTEMPTS} attempts"
        )

    def _candidate_key(self, cache, entry: DatasetEntry, count: int) -> str:
        """Content address of one certified candidate set.

        The raw source text is part of the key, as in every cache layer:
        ``parse_break`` candidates are produced by slicing the reference
        *text*, so formatting is observable in the output.
        """
        return cache.key(
            "candidates",
            entry.source,
            entry.name,
            json.dumps([list(args) for args in entry.inputs]),
            str(self.seed),
            str(count),
            str(self.allow_trap_labels),
        )

    def candidates(
        self, entry: DatasetEntry, count: int, cache=None
    ) -> List[Candidate]:
        """``count`` labelled candidates for one dataset entry.

        The mix is random but anchored: any set of three or more always
        contains at least one preserving and one breaking candidate (so
        top-k accuracy and verdict pins are meaningful for every function).

        Certification is the expensive step (each mutant is interpreted on
        every IO vector, with resampling); with ``cache`` the finished set
        is stored content-addressed and warm runs skip it entirely.
        """
        key = None
        if cache is not None:
            key = self._candidate_key(cache, entry, count)
            cached = cache.get("candidates", key)
            if cached is not None:
                return [Candidate(**data) for data in cached]
        labels: List[str] = []
        if count >= 3:
            labels = ["preserving", "breaking"]
        while len(labels) < count:
            roll = self.rng.random()
            if roll < 0.40:
                labels.append("preserving")
            elif roll < 0.80:
                labels.append("breaking")
            else:
                labels.append("invalid")
        self.rng.shuffle(labels)
        produced = [self._one(entry, label) for label in labels[:count]]
        if cache is not None and key is not None:
            # The five text fields only: a carried AST is not cache data.
            fields = ("text", "label", "kind", "expected", "detail")
            payload = [{name: getattr(c, name) for name in fields} for c in produced]
            cache.put("candidates", key, payload)
        return produced


def make_candidates(
    entry: DatasetEntry, count: int, seed: int, cache=None
) -> List[Candidate]:
    """Convenience wrapper: a deterministic candidate set for one entry."""
    return Mutator(seed).candidates(entry, count, cache=cache)


# ---------------------------------------------------------------------------
# Repair neighborhoods: the breaking-mutation inventory, run in reverse
# ---------------------------------------------------------------------------

#: Integer types the ``cast_insert`` repair family wraps expressions in
#: (the inverse of the ``drop_cast`` breaking mutation).
_CAST_TYPES: Tuple[ct.IntType, ...] = (
    ct.CHAR, ct.UCHAR, ct.SHORT, ct.USHORT, ct.INT, ct.UINT, ct.LONG, ct.ULONG
)


def _op_alternatives(op: str) -> List[str]:
    """Replacement operators for ``op``, inverse direction first.

    The inverse image of :data:`_WRONG_OP` undoes a ``swap_op`` mutation
    exactly (the candidate holds the *wrong* operator, so mapping it back
    recovers the reference's); the forward image rides along because the
    search cannot know which direction a break went.  The order is fixed
    and RNG-free so the repair stream is reproducible.
    """
    alternatives: List[str] = []
    for alt in sorted(k for k, v in _WRONG_OP.items() if v == op):
        if alt != op and alt not in alternatives:
            alternatives.append(alt)
    forward = _WRONG_OP.get(op)
    if forward is not None and forward != op and forward not in alternatives:
        alternatives.append(forward)
    return alternatives


def _binop_sites(func: ast.FunctionDef) -> List[ast.BinaryOp]:
    return [n for n in _walk_nodes(func) if isinstance(n, ast.BinaryOp)]


def _literal_slots(func: ast.FunctionDef) -> List[Tuple[ast.Node, str, Optional[int]]]:
    return [
        (parent, attr, index)
        for parent, attr, index in expr_slots(func)
        if isinstance(get_slot(parent, attr, index), ast.IntLiteral)
    ]


def _sign_sites(func: ast.FunctionDef) -> List:
    return _int_decl_slots(func) + [
        n
        for n in _walk_nodes(func)
        if isinstance(n, ast.Cast) and isinstance(n.target_type, ct.IntType)
    ]


def _conditional_sites(func: ast.FunctionDef) -> List:
    return [
        n
        for n in _walk_nodes(func)
        if isinstance(n, (ast.If, ast.While, ast.DoWhile))
        or (isinstance(n, ast.For) and n.cond is not None)
    ]


def repair_neighbors(
    source: str, name: str, start: int = 0, indexed: bool = False
) -> Iterator[Tuple]:
    """Deterministic ``(kind, text)`` repair-edit stream for a near-miss.

    Each yielded text is ``source`` with one AST edit applied — the
    breaking-mutation inventory run *in reverse* (operator un-swaps,
    literal nudges, signedness flips, condition un-negations, cast
    insertion) plus reducer-style simplifications (expression collapse,
    statement drops).  Families are ordered so the exact inverses of the
    common single-edit breaks come first and the speculative wide families
    (``cast_insert``: every expression slot x every integer type) come
    last.

    The stream carries no RNG and its order depends only on ``source``.
    It walks a fixed list of edits and is lazy: one :func:`ast.clone`,
    edit and print per *consumed* edit.  Edits that fail or leave the
    text unchanged yield nothing.  ``start`` is an index into that edit
    list: the stream begins at ``edits[start:]`` without building the
    ones before it.  With ``indexed=True`` each item is
    ``(index, kind, text, program)``, and ``start=index + 1`` continues
    right after it; the beam search persists that cursor and resumes from
    it.  ``program`` is the edited, not yet type-checked AST that ``text``
    was printed from, and parsing ``text`` gives the same tree
    (``tests/test_neighbor_ast.py`` pins it), so the scorer's gate
    type-checks it instead of parsing ``text`` again.
    Sources that do not parse or do not define ``name`` yield nothing
    (``parse_error`` candidates cannot be repaired by AST edits).
    """
    try:
        base = parse_program(source)
    except (ParseError, LexError, RecursionError):
        return
    func = base.function(name)
    if func is None:
        return

    edits: List[Tuple[str, Callable[[ast.FunctionDef], None]]] = []

    # 1. op_swap: undoes the swap_op mutation (inverse direction first).
    for index, node in enumerate(_binop_sites(func)):
        for alt in _op_alternatives(node.op):
            edits.append(
                ("op_swap", lambda f, i=index, a=alt: setattr(_binop_sites(f)[i], "op", a))
            )

    # 2. literal_nudge: undoes bump_literal (and half of zero_divisor).
    #    A result below 0 is built as the parser builds ``-1``: unary minus
    #    over a literal, so the carried AST is the one its text parses to.
    def _nudge(f: ast.FunctionDef, i: int, d: int) -> None:
        parent, attr, index = _literal_slots(f)[i]
        value = get_slot(parent, attr, index).value + d
        nudged: ast.Expr = ast.IntLiteral(value)
        if value < 0:
            nudged = ast.UnaryOp("-", ast.IntLiteral(-value))
        set_slot(parent, attr, index, nudged)

    for index in range(len(_literal_slots(func))):
        for delta in (1, -1):
            edits.append(("literal_nudge", lambda f, i=index, d=delta: _nudge(f, i, d)))

    # 3. sign_flip: undoes flip_signedness (an involution).
    def _flip_sign(f: ast.FunctionDef, i: int) -> None:
        site = _sign_sites(f)[i]
        if isinstance(site, ast.Declaration):
            site.type = _FLIPPED_SIGN[(site.type.rank, not site.type.unsigned)]
        else:
            site.target_type = _FLIPPED_SIGN[
                (site.target_type.rank, not site.target_type.unsigned)
            ]

    for index in range(len(_sign_sites(func))):
        edits.append(("sign_flip", lambda f, i=index: _flip_sign(f, i)))

    # 4. condition_flip: unwraps a ``!`` (undoing negate_condition) or
    #    wraps one (the forward direction, for symmetric coverage).
    def _flip_cond(f: ast.FunctionDef, i: int) -> None:
        site = _conditional_sites(f)[i]
        if isinstance(site.cond, ast.UnaryOp) and site.cond.op == "!":
            site.cond = site.cond.operand
        else:
            site.cond = ast.UnaryOp("!", site.cond)

    for index in range(len(_conditional_sites(func))):
        edits.append(("condition_flip", lambda f, i=index: _flip_cond(f, i)))

    # 5. collapse: replace an expression by one of its direct children
    #    (the reducer's move; undoes wrapper breaks such as bump_return).
    def _collapse(f: ast.FunctionDef, slot: int, child: int) -> None:
        parent, attr, index = list(expr_slots(f))[slot]
        set_slot(parent, attr, index, subexpressions(get_slot(parent, attr, index))[child])

    for slot_index, (parent, attr, index) in enumerate(expr_slots(func)):
        for child_index in range(len(subexpressions(get_slot(parent, attr, index)))):
            edits.append(
                ("collapse", lambda f, s=slot_index, c=child_index: _collapse(f, s, c))
            )

    # 6. stmt_drop: repairs candidates whose break *added* a statement
    #    (and type_error candidates carrying one injected bad statement).
    def _drop_stmt(f: ast.FunctionDef, list_index: int, stmt_index: int) -> None:
        del list(walk_stmt_lists(f))[list_index][stmt_index]

    for list_index, stmts in enumerate(walk_stmt_lists(func)):
        for stmt_index in range(len(stmts)):
            edits.append(
                (
                    "stmt_drop",
                    lambda f, li=list_index, si=stmt_index: _drop_stmt(f, li, si),
                )
            )

    # 7. cast_insert: the wide family (every expression slot x every
    #    integer type), last so cheaper exact inverses are tried first.
    def _insert_cast(f: ast.FunctionDef, slot: int, ctype: ct.IntType) -> None:
        parent, attr, index = list(expr_slots(f))[slot]
        set_slot(parent, attr, index, ast.Cast(ctype, get_slot(parent, attr, index)))

    for slot_index in range(len(list(expr_slots(func)))):
        for ctype in _CAST_TYPES:
            edits.append(
                ("cast_insert", lambda f, s=slot_index, t=ctype: _insert_cast(f, s, t))
            )

    for index in range(start, len(edits)):
        kind, edit = edits[index]
        program = ast.clone(base)
        edited = program.function(name)
        assert edited is not None
        try:
            edit(edited)
        except Exception:
            continue
        text = print_program(program)
        if text != source:
            yield (index, kind, text, program) if indexed else (kind, text)
