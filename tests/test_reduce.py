"""Direct unit coverage for the delta-debugging reducer.

Until now the reducer was only exercised indirectly through the fuzzer's
injected-miscompile acceptance test; these tests pin its contract on its
own: a fixed point is idempotent, the failure predicate holds at every
accepted step (and every candidate the predicate ever sees is a valid
program), unused parameters and globals are removed, literals shrink, and
the diverging input vector is isolated.
"""

import hashlib
import json

from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.lang.printer import print_program
from repro.lang.typecheck import check_program
from repro.testing.generator import ProgramGenerator
from repro.testing.reduce import reduce_case

#: sha256 of the fixed-seed reductions in
#: :func:`test_reductions_are_byte_identical_on_a_fixed_seed`, recorded when
#: the reducer still copied programs with ``copy.deepcopy``.
REDUCED_DIGEST = "40a696145f6798159a1646bee6fac3a804793e2aa6fc24a9186963e61ff8bde9"

BLOATED = """
int unused_global = 99;

int target(int a, int b) {
    int x = 1;
    int y = 2;
    for (int i = 0; i < 5; i++) {
        x = x + i;
    }
    if (a > b) {
        y = y * 3;
    }
    int z = a / ((b & 7) + 1);
    return z + x + y;
}
"""


def _is_valid(source: str) -> bool:
    result = check_program(parse_program(source))
    return not result.errors and result.missing.is_empty()


def test_fixed_point_is_idempotent():
    """A program the reducer cannot shrink further must come back unchanged,
    with zero accepted edits — on the second run as well as the first."""

    def still_divides(source: str, inputs) -> bool:
        return "/" in source

    # No parameter to drop, no statement to remove, no literal to shrink
    # (0 and 1 are terminal), no sub-expression that keeps the division.
    minimal = print_program(parse_program("int f(void) { return 0 / 0; }"))
    first = reduce_case(minimal, "f", [()], still_divides)
    assert first.source == minimal
    assert first.accepted == 0
    second = reduce_case(first.source, "f", first.inputs, still_divides)
    assert second.source == first.source
    assert second.accepted == 0


def test_reduction_result_is_a_fixed_point():
    """Whatever the reducer produces, running it again must change nothing:
    greedy reduction terminates at a genuine local minimum."""

    def still_divides(source: str, inputs) -> bool:
        return "/" in source

    first = reduce_case(BLOATED, "target", [(1, 2)], still_divides)
    second = reduce_case(first.source, "target", first.inputs, still_divides)
    assert second.source == first.source
    assert second.inputs == first.inputs
    assert second.accepted == 0


def test_predicate_holds_at_every_step_and_candidates_are_valid():
    """The reducer must only ever consult the predicate on programs that
    survive the real front end, and the final result must be a program the
    predicate accepted (the divergence is preserved at every kept edit)."""
    seen_true = []

    def predicate(source: str, inputs) -> bool:
        # Contract: every candidate handed to the predicate re-parses and
        # re-typechecks — the reducer filters invalid candidates itself.
        assert _is_valid(source), f"reducer leaked an invalid candidate:\n{source}"
        interesting = "/" in source
        if interesting:
            seen_true.append(source)
        return interesting

    result = reduce_case(BLOATED, "target", [(1, 2)], predicate)
    assert "/" in result.source
    assert result.source in seen_true
    assert result.accepted > 0
    assert len(result.source.splitlines()) < len(BLOATED.strip().splitlines())


def test_unused_parameters_and_globals_are_removed():
    source = """
int unused_global = 99;
int used_global = 5;

int target(int a, int b, int c) {
    used_global += 1;
    return a + 1;
}
"""

    def marker(candidate: str, inputs) -> bool:
        return "a + 1" in candidate and "used_global" in candidate

    result = reduce_case(source, "target", [(1, 2, 3)], marker)
    assert "unused_global" not in result.source
    assert "used_global" in result.source
    # b and c never feed the marker expression: both parameters are dropped
    # and their argument columns go with them.
    assert result.inputs == [(1,)]


def test_literal_shrinking_reaches_zero():
    source = """
int f(int a)
{
    return a + 123456;
}
"""

    def still_adds(candidate: str, inputs) -> bool:
        return "a + " in candidate

    result = reduce_case(source, "f", [(7,)], still_adds)
    assert "123456" not in result.source
    assert "a + 0" in result.source


def test_diverging_input_vector_is_isolated_first():
    """With several input vectors, the reducer keeps only one that still
    triggers the predicate before shrinking the program."""
    calls = []

    def predicate(source: str, inputs) -> bool:
        calls.append(list(inputs))
        return "/" in source

    result = reduce_case(BLOATED, "target", [(1, 2), (3, 4), (5, 6)], predicate)
    assert len(result.inputs) == 1
    # The very first probe tries the first vector alone.
    assert calls[0] == [(1, 2)]


def test_attempt_budget_is_respected():
    def never_satisfied_after_start(source: str, inputs) -> bool:
        return "/" in source

    result = reduce_case(
        BLOATED, "target", [(1, 2)], never_satisfied_after_start, max_attempts=10
    )
    assert result.attempts <= 10


def test_reductions_are_byte_identical_on_a_fixed_seed():
    """Generated programs reduced while their interpreted return value
    stays the same: sources, inputs and counters are pinned by digest."""
    digest = hashlib.sha256()
    for seed in range(12):
        case = ProgramGenerator(seed, max_stmts=8).generate()
        args = tuple(case.inputs[0])
        want = Interpreter(parse_program(case.source)).run_function(case.name, args)

        def same_return(source, inputs, name=case.name, want=want.return_value):
            try:
                program = parse_program(source)
                run = Interpreter(program, max_steps=20000).run_function(name, tuple(inputs[0]))
            except Exception:
                return False
            return run.return_value == want

        result = reduce_case(case.source, case.name, [args], same_return, max_attempts=150)
        record = [result.source, result.inputs, result.attempts, result.accepted]
        digest.update(json.dumps(record).encode("utf-8"))
    assert digest.hexdigest() == REDUCED_DIGEST
