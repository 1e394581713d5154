"""Four-way differential oracle for Mini-C programs.

One case (program, entry point, argument vectors) is executed on up to four
independent substrates and the first observable divergence is reported:

* ``interp``   — the reference: :class:`repro.lang.interpreter.Interpreter`;
* ``ir-O3``    — the lowered, -O3-optimised IR executed directly
                 (:mod:`repro.testing.irexec`), pinning down the middle end
                 including the IR constant folder;
* ``x86-O0`` / ``x86-O3`` — the compiled assembly assembled with the system
                 GNU toolchain and executed natively on the host via
                 :mod:`repro.testing.native` (skipped when no toolchain);
* ``arm-O0`` / ``arm-O3`` — optionally, the AArch64 output under
                 ``qemu-aarch64`` with a cross toolchain.

Observable state is the paper's IO-equivalence notion: return value,
final contents of pointer arguments, and final global values.  A runtime
trap (division by zero, step-budget exhaustion, SIGFPE) is itself an
observation: every leg must trap for the comparison to pass.

Each case's front half (parse → typecheck → lower) runs **once** and is
shared by every leg and every input vector (:class:`CaseContext`).
:meth:`Oracle.check_batches` streams chunks of cases: each chunk's front
half and reference legs run in :meth:`Oracle.prepare_batch`, its native
legs go to one :class:`repro.testing.native.GroupedBatchRunner` per
backend — the executor the scorer and the repair search use, which packs
many cases into one toolchain invocation and one fork server, keeps three
batches in flight, and bisects a batch that fails down to the case at
fault — and :meth:`Oracle.finish_batch` compares.  :meth:`Oracle.check_batch`
is one chunk, and :meth:`Oracle.check_case` one case.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import operator
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.sanitize import SanitizerBatch, SanitizerConfig
from repro.analysis.verifier import IRVerificationError
from repro.lang.interpreter import CInterpreterError, RuntimeLimitExceeded
from repro.testing import native
from repro.testing.frontend import CaseContext
from repro.testing.irexec import IRExecutor


def values_equal(left: Any, right: Any) -> bool:
    """Structural equality with float tolerance."""
    if isinstance(left, float) or isinstance(right, float):
        return math.isclose(float(left), float(right), rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            values_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            values_equal(left[k], right[k]) for k in left
        )
    return left == right


def first_value_mismatch(reference: Any, other: Any) -> Optional[str]:
    """The first observed value two finished runs disagree on, or None.

    Both sides expose ``return_value``, ``arg_values`` and ``globals``: a
    :class:`LegOutcome` here, an ``Observation`` in the scorer.  The answer
    is ``"return_value"`` (not compared when the reference's is None),
    ``"arg_values"`` or ``"globals[<key>]"``.  Native legs only observe
    globals that appear in the assembly, so globals are compared on the
    keys both sides report.  Status policy (traps, limits) is the caller's.
    """
    if reference.return_value is not None and not values_equal(
        reference.return_value, other.return_value
    ):
        return "return_value"
    if not values_equal(reference.arg_values, other.arg_values):
        return "arg_values"
    for key in sorted(reference.globals.keys() & other.globals.keys()):
        if not values_equal(reference.globals[key], other.globals[key]):
            return f"globals[{key}]"
    return None


@dataclass
class LegOutcome:
    """What one substrate observed for one argument vector.

    ``trap`` is a semantic observation (division by zero, SIGFPE) that every
    leg must share; ``limit`` is resource exhaustion (step budget, execution
    timeout) and renders the input inconclusive rather than divergent — the
    substrates meter work in incomparable units.
    """

    leg: str
    status: str  # "ok" | "trap" | "limit" | "error"
    detail: str = ""
    return_value: Any = None
    arg_values: List[Any] = field(default_factory=list)
    globals: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        if self.status != "ok":
            return f"{self.leg}: {self.status} ({self.detail})"
        return (
            f"{self.leg}: ret={self.return_value!r} "
            f"args={self.arg_values!r} globals={self.globals!r}"
        )


@dataclass
class Divergence:
    """The first observed disagreement between two legs on one input.

    ``category`` distinguishes the three first-class failure kinds the
    harness reports: ``"io"`` (the classic observable-state mismatch),
    ``"ir-verifier"`` (a typed-invariant violation caught *before* any leg
    executed — ``diverging_leg`` names the offending pass and ``detail``
    carries the pass-attributed diagnostics) and ``"sanitizer"`` (UBSan/
    ASan reports from the instrumented C leg, in ``detail``).  The latter
    two have no per-input outcomes (``input_index`` is -1).
    """

    source: str
    name: str
    inputs: List[Tuple]
    input_index: int
    reference_leg: str
    diverging_leg: str
    field: str  # "status" | "return_value" | "arg_values" | "globals"
    outcomes: List[LegOutcome]
    category: str = "io"  # "io" | "ir-verifier" | "sanitizer"
    detail: str = ""

    def describe(self) -> str:
        if self.category == "ir-verifier":
            lines = [
                f"IR invariant violation in {self.name} "
                f"(caught before execution, after {self.diverging_leg}):"
            ]
            lines.extend("  " + line for line in self.detail.splitlines())
            return "\n".join(lines)
        if self.category == "sanitizer":
            lines = [f"sanitizer report for {self.name}:"]
            lines.extend("  " + line for line in self.detail.splitlines())
            return "\n".join(lines)
        lines = [
            f"divergence on input #{self.input_index} "
            f"{self.inputs[self.input_index]!r}: "
            f"{self.diverging_leg} disagrees with {self.reference_leg} on {self.field}",
        ]
        for outcome in self.outcomes:
            lines.append("  " + outcome.summary())
        return "\n".join(lines)


class OracleError(Exception):
    """Raised when a leg cannot be built at all (infrastructure failure)."""


#: One case handed to :meth:`Oracle.check_batch`: anything exposing
#: ``source``, ``name`` and ``inputs`` (e.g. the generator's GeneratedCase).
CaseLike = Any

#: What check_batch records per case: clean (None), a Divergence, or the
#: exception a leg raised while building.
CaseVerdict = Union[None, Divergence, Exception]


@dataclass
class PreparedBatch:
    """One chunk of cases between :meth:`Oracle.prepare_batch` and
    :meth:`Oracle.finish_batch`: its front half and reference legs have
    run, and its native legs are out at the runners."""

    cases: List[CaseLike]
    contexts: List[Optional[CaseContext]]
    verdicts: List[CaseVerdict]
    #: The cases that reached execution.
    active: List[int]
    #: Per active case: the reference legs' outcomes, per input.
    reference: Dict[int, List[List[LegOutcome]]]
    #: Per case, one runner unit per native backend: the case's O0 and O3
    #: cases, empty for a case that failed before execution.
    units: List[Tuple[List["native.BatchCase"], ...]]
    #: Per active case: its native outcomes in leg order, filled in as the
    #: runners return them.
    native: Dict[int, List["native.CaseOutcomes"]] = field(default_factory=dict)


class Oracle:
    """Differential harness comparing the available substrates.

    ``backends`` selects the native legs: any subset of ``("x86", "arm")``.
    Unavailable toolchains are dropped automatically (``require_native=True``
    turns that into an error instead).  ``asm_transform`` rewrites each
    case's generated assembly before it is assembled — used to prove the
    harness catches deliberately injected miscompiles.

    ``verify_ir`` (on by default) runs the typed-invariant verifier of
    :mod:`repro.analysis.verifier` after lowering and after every -O3 pass
    of each case, *before* any leg executes; a violation is reported as a
    first-class :class:`Divergence` with ``category="ir-verifier"``.
    ``ir_transform`` mutates the lowered IR first — the IR-level analogue
    of ``asm_transform``, used to prove the verifier catches injected
    breakage.  ``sanitize`` adds the report-only UBSan/ASan C leg of
    :mod:`repro.analysis.sanitize` (requires the x86 toolchain); pass
    ``True`` for the default config or a :class:`SanitizerConfig`.

    Native legs run through :class:`repro.testing.native.GroupedBatchRunner`,
    one runner per backend, whose batches hold both opt levels of every
    case.  The runner bisects a batch that fails to build or run until the
    case at fault stands alone; only that case gets the failure as its
    verdict (an :class:`OracleError`).  A failed control-loop build is
    every case's, and the runner charges it to all of them at once.
    """

    def __init__(
        self,
        backends: Sequence[str] = ("x86",),
        workdir: Optional[Path] = None,
        asm_transform: Optional[Callable[[str], str]] = None,
        require_native: bool = False,
        verify_ir: bool = True,
        ir_transform=None,
        sanitize: Union[bool, SanitizerConfig, None] = None,
    ) -> None:
        self.asm_transform = asm_transform
        self.verify_ir = verify_ir
        self.ir_transform = ir_transform
        self.sanitizer_config: Optional[SanitizerConfig] = None
        if sanitize:
            self.sanitizer_config = (
                sanitize if isinstance(sanitize, SanitizerConfig) else SanitizerConfig()
            )
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if workdir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="minic-fuzz-")
            workdir = Path(self._tmp.name)
        self.workdir = Path(workdir)
        self._batch_counter = 0
        self.native_backends: List[str] = []
        for backend in [b for b in backends if b]:
            available = (
                native.have_native_toolchain()
                if backend == "x86"
                else native.have_arm_toolchain()
            )
            if available:
                self.native_backends.append(backend)
            elif require_native:
                raise OracleError(f"no toolchain for the {backend!r} backend")
        if self.sanitizer_config is not None and not native.have_native_toolchain():
            if require_native:
                raise OracleError("no host toolchain for the sanitizer leg")
            self.sanitizer_config = None

    def legs(self) -> List[str]:
        names = ["interp", "ir-O3"]
        for backend in self.native_backends:
            names.extend([f"{backend}-O0", f"{backend}-O3"])
        return names

    # -- static gate (IR verifier) --------------------------------------------

    def _make_context(self, source: str, name: str, **kwargs) -> CaseContext:
        return CaseContext(
            source,
            name,
            verify_ir=self.verify_ir,
            ir_transform=self.ir_transform,
            **kwargs,
        )

    def _verifier_divergence(
        self, source: str, name: str, inputs: List[Tuple], exc: IRVerificationError
    ) -> Divergence:
        return Divergence(
            source,
            name,
            list(inputs),
            -1,
            "ir-verifier",
            exc.pass_name,
            "invariant",
            [],
            category="ir-verifier",
            detail=str(exc),
        )

    def _verify_context(
        self, context: CaseContext, inputs: List[Tuple]
    ) -> Optional[Divergence]:
        """Force both lowerings so the verifier runs before any leg does.

        Returns the pass-attributed verdict for a broken middle end; all
        other build errors propagate unchanged (the legs would have raised
        them anyway, just later).
        """
        if not (self.verify_ir or self.ir_transform is not None):
            return None
        try:
            context.lowered("O0")
            context.lowered("O3")
        except IRVerificationError as exc:
            return self._verifier_divergence(
                context.source, context.name, inputs, exc
            )
        return None

    # -- sanitizer leg ---------------------------------------------------------

    def _sanitize_cases(
        self, entries: List[Tuple[CaseContext, List[Tuple]]]
    ) -> Dict[int, Divergence]:
        """Run the instrumented C leg over clean cases; verdicts by position.

        ``entries`` holds (context, inputs) pairs; the returned dict maps
        positions in that list to ``category="sanitizer"`` divergences.
        Raises :class:`OracleError` when the instrumented binary itself is
        broken (build failure, death outside any case).
        """
        if self.sanitizer_config is None or not entries:
            return {}
        batch_cases = [
            native.BatchCase(
                source=context.source,
                name=context.name,
                inputs=list(inputs),
                context=context,
            )
            for context, inputs in entries
        ]
        self._batch_counter += 1
        try:
            batch = SanitizerBatch(
                batch_cases,
                self.workdir,
                self.sanitizer_config,
                tag=f"san{self._batch_counter}",
            )
            by_case = batch.reports_by_case()
        except native.BatchExecutionError as exc:
            raise OracleError(f"sanitizer leg failed: {exc}") from exc
        verdicts: Dict[int, Divergence] = {}
        for position, reports in by_case.items():
            context, inputs = entries[position]
            verdicts[position] = Divergence(
                context.source,
                context.name,
                list(inputs),
                -1,
                "interp",
                "sanitizer",
                "report",
                [],
                category="sanitizer",
                detail="\n".join(str(report) for report in reports),
            )
        return verdicts

    # -- leg execution --------------------------------------------------------

    def _run_interp(self, context: CaseContext, args: Tuple) -> LegOutcome:
        try:
            result = context.interpreter().run_function(context.name, args)
        except RuntimeLimitExceeded as exc:
            return LegOutcome("interp", "limit", str(exc))
        except CInterpreterError as exc:
            return LegOutcome("interp", "trap", str(exc))
        return LegOutcome(
            "interp", "ok", "", result.return_value, result.arg_values, result.globals
        )

    def _run_ir(self, context: CaseContext, args: Tuple) -> LegOutcome:
        try:
            result = IRExecutor(
                context.program,
                opt_level="O3",
                lowering_cache=context.ir_cache(),
                checker=context.checker,
            ).run_function(context.name, args)
        except RuntimeLimitExceeded as exc:
            return LegOutcome("ir-O3", "limit", str(exc))
        except CInterpreterError as exc:
            return LegOutcome("ir-O3", "trap", str(exc))
        return LegOutcome(
            "ir-O3", "ok", "", result.return_value, result.arg_values, result.globals
        )

    @staticmethod
    def _batch_outcome_to_leg(outcome: Tuple[str, Any], leg: str) -> LegOutcome:
        status, payload = outcome
        if status == "ok":
            return LegOutcome(
                leg, "ok", "", payload.return_value, payload.arg_values, payload.globals
            )
        return LegOutcome(leg, status, payload)

    # -- comparison -----------------------------------------------------------

    @staticmethod
    def _compare(reference: LegOutcome, other: LegOutcome) -> Optional[str]:
        """The first field the two outcomes disagree on, or None."""
        if reference.status == "limit" or other.status == "limit":
            # Budget exhaustion on either side: inconclusive, not divergent
            # (substrates meter work in different units, so one hitting its
            # budget while another finishes proves nothing).
            return None
        if reference.status != other.status:
            return "status"
        if reference.status != "ok":
            return None  # both trapped: equivalent observation
        mismatch = first_value_mismatch(reference, other)
        return None if mismatch is None else mismatch.partition("[")[0]

    def _reference_outcomes(
        self, context: CaseContext, args: Tuple
    ) -> List[LegOutcome]:
        return [self._run_interp(context, args), self._run_ir(context, args)]

    def _first_divergence(
        self,
        context: CaseContext,
        inputs: List[Tuple],
        reference_legs: List[List[LegOutcome]],
        native_legs: List[List[LegOutcome]],
    ) -> Optional[Divergence]:
        """Splice each input's native outcomes after its reference-leg
        outcomes and report the first divergence."""
        for index in range(len(inputs)):
            outcomes = reference_legs[index] + native_legs[index]
            reference = outcomes[0]
            for other in outcomes[1:]:
                mismatch = self._compare(reference, other)
                if mismatch is not None:
                    return Divergence(
                        context.source,
                        context.name,
                        inputs,
                        index,
                        reference.leg,
                        other.leg,
                        mismatch,
                        outcomes,
                    )
        return None

    def check_case(
        self, source: str, name: str, inputs: List[Tuple]
    ) -> Optional[Divergence]:
        """Run every leg on every input vector; report the first divergence.

        This is :meth:`check_batch` on one case, except that a case which
        cannot be built raises instead of returning its exception:
        :class:`repro.compiler.CompileError` from the front end, or
        :class:`OracleError` when the toolchain rejects a native leg.  The
        caller decides whether that is interesting.
        """
        verdict = self.check_batch([_Case(source, name, list(inputs))])[0]
        if isinstance(verdict, Exception):
            raise verdict
        return verdict

    # -- batched evaluation ----------------------------------------------------

    def check_batch(self, cases: Sequence[CaseLike]) -> List[CaseVerdict]:
        """Evaluate many cases with one native build/run per backend.

        Returns one verdict per case, in order: ``None`` (all legs agree),
        a :class:`Divergence`, or the exception raised while building one of
        the case's legs.  This is :meth:`check_batches` on one chunk.
        """
        (verdicts,) = self.check_batches([cases], max(1, len(cases)))
        return verdicts

    def check_batches(
        self, chunks: Iterable[Sequence[CaseLike]], batch_size: int
    ) -> Iterator[List[CaseVerdict]]:
        """Each chunk's verdicts, as :meth:`check_batch` returns them.

        ``chunks`` is pulled lazily, one :meth:`prepare_batch` per chunk.
        Each backend's native legs go to one :class:`native.GroupedBatchRunner`
        that packs ``2 * batch_size`` cases (a case's O0 and O3 legs) per
        batch, and whose three-deep pipeline prepares later chunks while
        earlier batches build and run; with two backends the runners are
        driven in lockstep over one staged stream.  A chunk is finished
        (:meth:`finish_batch`) once its last case's native legs are back.
        Closing the iterator early kills every server and build in flight.
        """
        if not self.native_backends:
            for cases in chunks:
                yield self.finish_batch(self.prepare_batch(cases))
            return
        pending: collections.deque[PreparedBatch] = collections.deque()
        # Per unit still out at the runners: its chunk, and its case's
        # index there.  Entries go as results come back, so a finished
        # chunk is not kept alive.
        owners: Dict[int, Tuple[PreparedBatch, int]] = {}

        def staged() -> Iterator[Tuple[List[native.BatchCase], ...]]:
            first_unit = 0
            for cases in chunks:
                prepared = self.prepare_batch(cases)
                pending.append(prepared)
                for index in prepared.active:
                    owners[first_unit + index] = (prepared, index)
                first_unit += len(cases)
                yield from prepared.units

        self._batch_counter += 1
        streams = itertools.tee(staged(), len(self.native_backends))
        with contextlib.ExitStack() as stack:
            runs = []
            for position, backend in enumerate(self.native_backends):
                runner = stack.enter_context(
                    native.GroupedBatchRunner(
                        "mix",
                        self.workdir,
                        isa=backend,
                        group_cases=2 * batch_size,
                        tag_prefix=f"batch{self._batch_counter}_{position}_",
                    )
                )
                runs.append(runner.run(map(operator.itemgetter(position), streams[position])))
            # A case that never reached execution has an empty unit on every
            # backend, which every runner skips: each step, all runners
            # yield the same unit.
            for results in zip(*runs):
                prepared, index = owners.pop(results[0][0])
                prepared.native[index] = [leg for _, outcomes in results for leg in outcomes]
                while pending and len(pending[0].native) == len(pending[0].active):
                    yield self.finish_batch(pending.popleft())
        while pending:
            yield self.finish_batch(pending.popleft())

    def prepare_batch(self, cases: Sequence[CaseLike]) -> PreparedBatch:
        """Front half of :meth:`check_batch`: parse, verify, lower and emit
        every case, run the pure-Python reference legs, and set out each
        case's native legs as one runner unit per backend."""
        contexts: List[Optional[CaseContext]] = []
        verdicts: List[CaseVerdict] = []
        for case in cases:
            try:
                context = self._make_context(
                    case.source,
                    case.name,
                    program=getattr(case, "program", None),
                    checker=getattr(case, "checker", None),
                )
            except Exception as exc:  # unparseable case: per-case verdict
                context = None
                verdicts.append(exc)
            else:
                verdicts.append(None)
            contexts.append(context)

        # The static gate runs before any leg is built: a case whose IR
        # breaks an invariant gets its pass-attributed divergence here and
        # never reaches the differential legs.
        for index, context in enumerate(contexts):
            if context is None or verdicts[index] is not None:
                continue
            try:
                verdict = self._verify_context(context, list(cases[index].inputs))
            except Exception as exc:  # lowering itself failed: build error
                verdicts[index] = exc
            else:
                if verdict is not None:
                    verdicts[index] = verdict

        # Emit every native leg of every case up front; a case whose
        # assembly cannot be emitted gets its exception as the verdict and
        # never reaches execution.
        def emit(context: CaseContext, backend: str, opt: str) -> str:
            assembly = context.assembly(backend, opt)
            return assembly if self.asm_transform is None else self.asm_transform(assembly)

        units = [tuple([] for _ in self.native_backends)] * len(cases)
        for index, context in enumerate(contexts):
            if context is None or verdicts[index] is not None:
                continue
            case = cases[index]
            try:
                units[index] = tuple(
                    [
                        native.BatchCase(
                            case.source,
                            case.name,
                            list(case.inputs),
                            context,
                            emit(context, backend, opt),
                        )
                        for opt in ("O0", "O3")
                    ]
                    for backend in self.native_backends
                )
            except IRVerificationError as exc:
                verdicts[index] = self._verifier_divergence(
                    case.source, case.name, list(case.inputs), exc
                )
            except Exception as exc:
                verdicts[index] = exc

        active = [
            index
            for index, context in enumerate(contexts)
            if context is not None and verdicts[index] is None
        ]
        reference = {
            index: [self._reference_outcomes(contexts[index], args) for args in cases[index].inputs]
            for index in active
        }
        # Execution and comparison read only the source, the types and the
        # assembly: a chunk waiting in the native pipeline holds no IR.
        for context in contexts:
            if context is not None:
                context.release_ir()
        return PreparedBatch(list(cases), contexts, verdicts, active, reference, units)

    def finish_batch(self, prepared: PreparedBatch) -> List[CaseVerdict]:
        """Back half of :meth:`check_batch`: compare each executed case's
        native outcomes with its reference legs, then run the sanitizer leg
        over the still-clean cases."""
        cases = prepared.cases
        contexts = prepared.contexts
        verdicts = prepared.verdicts
        native_legs = self.legs()[2:]
        for index in prepared.active:
            context = contexts[index]
            assert context is not None
            outcomes = prepared.native.get(index, [])  # none without a backend
            failure = next((leg for leg in outcomes if isinstance(leg, Exception)), None)
            if failure is not None:
                verdicts[index] = _native_failure(failure)
                continue
            inputs = list(cases[index].inputs)
            verdicts[index] = self._first_divergence(
                context,
                inputs,
                prepared.reference[index],
                [
                    [
                        self._batch_outcome_to_leg(leg_outcomes[input_index], leg)
                        for leg, leg_outcomes in zip(native_legs, outcomes)
                    ]
                    for input_index in range(len(inputs))
                ],
            )

        # Instrumented C leg, last: report-only, so IO divergences keep
        # precedence and only still-clean cases are submitted.
        if self.sanitizer_config is not None:
            clean = [index for index in prepared.active if verdicts[index] is None]
            entries = []
            for index in clean:
                context = contexts[index]
                assert context is not None
                entries.append((context, list(cases[index].inputs)))
            for position, verdict in self._sanitize_cases(entries).items():
                verdicts[clean[position]] = verdict
        return verdicts


def _native_failure(failure: Exception) -> OracleError:
    """A case's verdict when the runner charged it a build or run failure:
    the toolchain's stderr (its tail), else the failure itself."""
    stderr = getattr(failure, "stderr", None) or b""
    if isinstance(stderr, bytes):
        stderr = stderr.decode("utf-8", "replace")
    return OracleError(f"native leg failed: {stderr[-2000:] or failure}")


@dataclass
class _Case:
    """The minimal :data:`CaseLike` :meth:`Oracle.check_case` wraps."""

    source: str
    name: str
    inputs: List[Tuple]
