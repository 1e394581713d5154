"""Delta-debugging minimiser for diverging Mini-C programs.

Given a program the differential oracle flags, the reducer greedily applies
semantic shrinking edits — drop statements, unwrap branches and loops,
replace expressions by their sub-expressions or by small literals, shrink
literal values, drop unused parameters and globals — re-running the oracle
after each candidate edit and keeping only edits that (a) still parse and
type-check and (b) still diverge.  The result is the small reproducer that
gets checked into ``tests/corpus.py`` as a regression.

The reducer is deliberately oracle-agnostic: it takes an *interestingness*
predicate ``(source, inputs) -> bool``, so the same machinery minimises
interpreter-vs-native bugs, middle-end bugs and injected miscompiles alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.parser import ParseError, parse_program
from repro.lang.lexer import LexError
from repro.lang.printer import print_program
from repro.lang.typecheck import check_program

Interesting = Callable[[str, List[Tuple]], bool]


@dataclass
class ReductionResult:
    source: str
    inputs: List[Tuple]
    attempts: int
    accepted: int


def _valid(source: str) -> bool:
    """A candidate must still round-trip through the real front end."""
    try:
        program = parse_program(source)
    except (ParseError, LexError, RecursionError):
        return False
    result = check_program(program)
    return not result.errors and result.missing.is_empty()


# ---------------------------------------------------------------------------
# Candidate edits
# ---------------------------------------------------------------------------


def walk_stmt_lists(node: ast.Node) -> Iterator[List[ast.Stmt]]:
    """Yield every statement list (block bodies) reachable from ``node``.

    Public because the mutation-based pseudo-decompiler
    (:mod:`repro.eval.mutate`) edits programs through the same slots the
    reducer shrinks them through.
    """
    if isinstance(node, ast.Block):
        yield node.stmts
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            yield from walk_stmt_lists(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield from walk_stmt_lists(item)


def expr_slots(node: ast.Node) -> Iterator[Tuple[ast.Node, str, Optional[int]]]:
    """Yield (parent, attribute, list_index) for every expression position."""
    for attr, value in vars(node).items():
        if attr == "ctype":
            continue
        if isinstance(value, ast.Expr):
            yield node, attr, None
        if isinstance(value, ast.Node):
            yield from expr_slots(value)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, ast.Expr):
                    yield node, attr, index
                if isinstance(item, ast.Node):
                    yield from expr_slots(item)


def get_slot(parent: ast.Node, attr: str, index: Optional[int]) -> ast.Expr:
    value = getattr(parent, attr)
    return value[index] if index is not None else value


def set_slot(parent: ast.Node, attr: str, index: Optional[int], expr: ast.Expr) -> None:
    if index is not None:
        getattr(parent, attr)[index] = expr
    else:
        setattr(parent, attr, expr)


def subexpressions(expr: ast.Expr) -> List[ast.Expr]:
    """Direct Expr children of ``expr`` (replacement candidates).

    Public because the repair search (:mod:`repro.eval.repair`) collapses
    expressions through the same slots the reducer shrinks them through —
    replacing an expression by one of its children undoes wrapper-style
    breaking mutations such as ``bump_return``'s ``x`` -> ``x + 1``.
    """
    out: List[ast.Expr] = []
    for attr, value in vars(expr).items():
        if attr == "ctype":
            continue
        if isinstance(value, ast.Expr):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ast.Expr))
    return out


def _render(program: ast.Program) -> str:
    return print_program(program)


def _candidate_sources(program: ast.Program, name: str) -> Iterator[str]:
    """Enumerate shrunken variants of ``program``, most aggressive first.

    Every yielded source is rendered from its own :func:`ast.clone` of the
    program, so candidates are independent of one another.
    """
    func = program.function(name)
    if func is None or func.body is None:
        return

    # 1. Drop whole statements (later statements first: return stays last).
    lists = list(walk_stmt_lists(func))
    for list_index, stmts in enumerate(lists):
        for stmt_index in reversed(range(len(stmts))):
            if isinstance(stmts[stmt_index], ast.Return):
                continue
            clone = ast.clone(program)
            clone_lists = list(walk_stmt_lists(clone.function(name)))
            del clone_lists[list_index][stmt_index]
            yield _render(clone)

    # 2. Unwrap control flow: if -> branch body, loop -> its body once.
    for list_index, stmts in enumerate(lists):
        for stmt_index, stmt in enumerate(stmts):
            replacements: List[List[ast.Stmt]] = []
            if isinstance(stmt, ast.If):
                replacements.append([stmt.then])
                if stmt.otherwise is not None:
                    replacements.append([stmt.otherwise])
            elif isinstance(stmt, (ast.While, ast.DoWhile)):
                replacements.append([stmt.body])
            elif isinstance(stmt, ast.For):
                body = [stmt.body]
                if isinstance(stmt.init, ast.Stmt):
                    body = [stmt.init, stmt.body]
                replacements.append(body)
            elif isinstance(stmt, ast.Block):
                replacements.append(list(stmt.stmts))
            for replacement in replacements:
                clone = ast.clone(program)
                clone_lists = list(walk_stmt_lists(clone.function(name)))
                clone_repl = ast.clone(replacement)
                clone_lists[list_index][stmt_index : stmt_index + 1] = clone_repl
                yield _render(clone)

    # 3. Replace expressions by their sub-expressions or by 0/1.  Loop
    # conditions never get a nonzero literal: `while (1)` would turn a
    # shrink candidate into an infinite loop the native legs can only
    # escape via their execution timeout.
    slots = list(expr_slots(func))
    for slot_index, (parent, attr, index) in enumerate(slots):
        original = get_slot(parent, attr, index)
        is_loop_cond = attr == "cond" and isinstance(
            parent, (ast.While, ast.DoWhile, ast.For)
        )
        replacements = subexpressions(original)
        if not isinstance(original, ast.IntLiteral):
            replacements = replacements + [ast.IntLiteral(0)]
            if not is_loop_cond:
                replacements.append(ast.IntLiteral(1))
        for replacement in replacements:
            clone = ast.clone(program)
            clone_slots = list(expr_slots(clone.function(name)))
            cparent, cattr, cindex = clone_slots[slot_index]
            set_slot(cparent, cattr, cindex, ast.clone(replacement))
            yield _render(clone)

    # 4. Shrink literals toward zero.
    for slot_index, (parent, attr, index) in enumerate(slots):
        original = get_slot(parent, attr, index)
        if not isinstance(original, ast.IntLiteral) or original.value in (0, 1):
            continue
        for shrunk in (0, 1, original.value // 2, -original.value):
            if shrunk == original.value:
                continue
            clone = ast.clone(program)
            clone_slots = list(expr_slots(clone.function(name)))
            cparent, cattr, cindex = clone_slots[slot_index]
            set_slot(cparent, cattr, cindex, ast.IntLiteral(shrunk))
            yield _render(clone)

    # 5. Drop unused top-level globals.
    used = _used_names(func)
    for decl_index, decl in enumerate(program.decls):
        if isinstance(decl, ast.Declaration) and decl.name not in used:
            clone = ast.clone(program)
            del clone.decls[decl_index]
            yield _render(clone)


def _used_names(node: ast.Node) -> set:
    found = set()
    if isinstance(node, ast.Identifier):
        found.add(node.name)
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            found |= _used_names(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    found |= _used_names(item)
    return found


def _drop_param_candidates(
    program: ast.Program, name: str, inputs: List[Tuple]
) -> Iterator[Tuple[str, List[Tuple]]]:
    """Try removing each unused parameter together with its argument column."""
    func = program.function(name)
    if func is None or func.body is None:
        return
    used = _used_names(func.body)
    for param_index in reversed(range(len(func.params))):
        if func.params[param_index].name in used:
            continue
        clone = ast.clone(program)
        del clone.function(name).params[param_index]
        new_inputs = [
            tuple(v for j, v in enumerate(vector) if j != param_index)
            for vector in inputs
        ]
        yield _render(clone), new_inputs


# ---------------------------------------------------------------------------
# The reduction loop
# ---------------------------------------------------------------------------


def reduce_case(
    source: str,
    name: str,
    inputs: List[Tuple],
    is_interesting: Interesting,
    max_attempts: int = 600,
) -> ReductionResult:
    """Greedily minimise ``source``/``inputs`` while staying interesting.

    ``is_interesting(source, inputs)`` must return True for the inputs as
    given (the caller should pass a case the oracle already flagged).  The
    predicate is expected to swallow its own build errors and return False
    for programs that no longer trigger the bug.
    """
    attempts = 0
    accepted = 0

    def try_candidate(candidate_source: str, candidate_inputs: List[Tuple]) -> bool:
        nonlocal attempts, accepted
        if attempts >= max_attempts:
            return False
        if candidate_source == source or not _valid(candidate_source):
            return False
        attempts += 1
        if is_interesting(candidate_source, candidate_inputs):
            accepted += 1
            return True
        return False

    # Shrink the input list to a single diverging vector first — every
    # later oracle invocation then runs one vector instead of five.
    for vector in inputs:
        attempts += 1
        if is_interesting(source, [vector]):
            inputs = [vector]
            break
        if attempts >= max_attempts:
            break

    changed = True
    while changed and attempts < max_attempts:
        changed = False
        program = parse_program(source)

        for candidate_source, candidate_inputs in _drop_param_candidates(
            program, name, inputs
        ):
            if attempts >= max_attempts:
                break
            if not _valid(candidate_source):
                continue
            attempts += 1
            if is_interesting(candidate_source, candidate_inputs):
                source, inputs = candidate_source, candidate_inputs
                accepted += 1
                changed = True
                break
        if changed:
            continue

        for candidate_source in _candidate_sources(program, name):
            if try_candidate(candidate_source, inputs):
                source = candidate_source
                changed = True
                break
            if attempts >= max_attempts:
                break

    return ReductionResult(source, inputs, attempts, accepted)


def oracle_interestingness(oracle, name: str) -> Interesting:
    """An interestingness predicate from a configured oracle: the candidate
    is interesting when the oracle still reports *any* divergence."""

    def predicate(source: str, inputs: List[Tuple]) -> bool:
        try:
            return oracle.check_case(source, name, inputs) is not None
        except Exception:
            return False

    return predicate
