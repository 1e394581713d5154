"""A repair neighbor's carried AST is the tree its text parses to.

:func:`repro.eval.mutate.repair_neighbors` yields each neighbor's text
together with the edited AST it was printed from, and the scorer's gate
type-checks that AST instead of parsing the text again.  The gate is only
still *the* gate (the one the mutation certifier uses on text) if the two
paths cannot be told apart, so this suite pins it on a seeded neighbor
population: the same front-end verdict and detail, a structurally equal
reparse, and byte-identical assembly.
"""

import itertools
from dataclasses import fields

import pytest

from repro.compiler.driver import CompileError
from repro.eval.dataset import front_end_gate
from repro.eval.mutate import repair_neighbors
from repro.eval.score import fixed_seed_grid
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_program
from repro.lang.printer import print_program
from repro.testing.frontend import CaseContext

#: Neighbors taken from the head of each candidate's stream.
NEIGHBORS = 40

_LITERALS = (ast.IntLiteral, ast.FloatLiteral, ast.CharLiteral, ast.StringLiteral)


def _same_tree(a, b) -> bool:
    """Structural equality that ignores the checker's ``ctype`` and a
    literal's source spelling ``text`` (neither is parsed structure)."""
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list)
            and isinstance(b, list)
            and len(a) == len(b)
            and all(_same_tree(x, y) for x, y in zip(a, b))
        )
    if not isinstance(a, ast.Node) or not isinstance(b, ast.Node):
        return a == b
    if type(a) is not type(b):
        return False
    skip = {"ctype", "text"} if isinstance(a, _LITERALS) else {"ctype"}
    return all(
        _same_tree(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.name not in skip
    )


def _assembly(text, name, program, checker) -> str:
    """x86 -O0 assembly of a gate survivor, or its compile error."""
    context = CaseContext(text, name, program=program, checker=checker)
    try:
        return context.assembly("x86", "O0")
    except CompileError as exc:
        return f"CompileError: {exc}"


@pytest.fixture(scope="module")
def grid():
    return fixed_seed_grid(0, 10, 8, 10, "x86", "O0", None)


@pytest.mark.parametrize("function", range(10))
def test_carried_ast_judges_like_the_reparsed_text(grid, function):
    entries, candidate_sets = grid
    entry = entries[function]
    survivors = 0
    for candidate in candidate_sets[function]:
        stream = repair_neighbors(candidate.text, entry.name, indexed=True)
        for _, kind, text, program in itertools.islice(stream, NEIGHBORS):
            assert print_program(program) == text
            from_text = front_end_gate(text, entry.name)
            from_ast = front_end_gate(text, entry.name, program)
            if isinstance(from_text[0], str):
                assert from_ast == from_text, (kind, text)
                continue
            assert not isinstance(from_ast[0], str), (kind, text, from_ast)
            # from_text[0] is parse_program(text), type-checked.
            assert _same_tree(from_text[0], program), (kind, text)
            text_assembly = _assembly(text, entry.name, *from_text)
            assert _assembly(text, entry.name, *from_ast) == text_assembly, (kind, text)
            survivors += 1
    assert survivors > 0


def test_negative_nudge_has_the_parsers_shape():
    """``p %= 0`` nudged down prints ``p %= -1``; the carried AST must be
    what that text parses to: unary minus over ``1``, not ``IntLiteral(-1)``."""
    source = print_program(parse_program("int f(int p) { p %= 0; return p; }"))
    nudged = [
        (text, program)
        for _, kind, text, program in repair_neighbors(source, "f", indexed=True)
        if kind == "literal_nudge" and "p %= -1;" in text
    ]
    assert len(nudged) == 1
    text, program = nudged[0]
    statement = program.function("f").body.stmts[0]
    assert statement.expr.value == ast.UnaryOp("-", ast.IntLiteral(1))
    assert _same_tree(parse_program(text), program)
