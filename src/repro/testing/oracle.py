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
:meth:`Oracle.check_batch` executes the native legs of a whole batch of
cases through :class:`repro.testing.native.NativeBatch` — one toolchain
invocation and one fork server per backend instead of per case — which
is where the fuzz pipeline's throughput comes from.
:meth:`Oracle.check_case` is ``check_batch`` on a single case.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    """In-flight state between :meth:`Oracle.prepare_batch` and
    :meth:`Oracle.finish_batch`: native builds are compiling in the
    background and the pure-Python reference legs have already run."""

    cases: List[CaseLike]
    contexts: List[Optional[CaseContext]]
    verdicts: List[CaseVerdict]
    active: List[int]
    batches: Dict[str, Tuple["native.NativeBatch", Dict[Tuple[int, str], int]]]
    reference: Dict[int, List[List["LegOutcome"]]]
    #: Why the native batches could not be set up; the batch is then
    #: bisected in :meth:`Oracle.finish_batch`.
    failure: Optional[Exception] = None


class Oracle:
    """Differential harness comparing the available substrates.

    ``backends`` selects the native legs: any subset of ``("x86", "arm")``.
    Unavailable toolchains are dropped automatically (``require_native=True``
    turns that into an error instead).  ``asm_transform`` rewrites the
    generated assembly before it is assembled — used to prove the harness
    catches deliberately injected miscompiles.

    ``verify_ir`` (on by default) runs the typed-invariant verifier of
    :mod:`repro.analysis.verifier` after lowering and after every -O3 pass
    of each case, *before* any leg executes; a violation is reported as a
    first-class :class:`Divergence` with ``category="ir-verifier"``.
    ``ir_transform`` mutates the lowered IR first — the IR-level analogue
    of ``asm_transform``, used to prove the verifier catches injected
    breakage.  ``sanitize`` adds the report-only UBSan/ASan C leg of
    :mod:`repro.analysis.sanitize` (requires the x86 toolchain); pass
    ``True`` for the default config or a :class:`SanitizerConfig`.

    Native legs run on the fork server of
    :class:`repro.testing.native.NativeBatch`: one batch per backend holds
    both opt levels of every case.  A batch that fails to build or run is
    bisected until the case at fault stands alone, and only that case gets
    the failure as its verdict.
    """

    def __init__(
        self,
        backends: Sequence[str] = ("x86",),
        workdir: Optional[Path] = None,
        asm_transform: Optional[Callable[[str], str]] = None,
        require_native: bool = False,
        include_ir_leg: bool = True,
        verify_ir: bool = True,
        ir_transform=None,
        sanitize: Union[bool, SanitizerConfig, None] = None,
    ) -> None:
        self.asm_transform = asm_transform
        self.include_ir_leg = include_ir_leg
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
        names = ["interp"]
        if self.include_ir_leg:
            names.append("ir-O3")
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
        if reference.return_value is not None and not values_equal(
            reference.return_value, other.return_value
        ):
            return "return_value"
        if not values_equal(reference.arg_values, other.arg_values):
            return "arg_values"
        # Native legs only observe globals that appear in the assembly;
        # compare the keys both sides report.
        common = reference.globals.keys() & other.globals.keys()
        for key in sorted(common):
            if not values_equal(reference.globals[key], other.globals[key]):
                return "globals"
        return None

    def _reference_outcomes(
        self, context: CaseContext, args: Tuple
    ) -> List[LegOutcome]:
        outcomes = [self._run_interp(context, args)]
        if self.include_ir_leg:
            outcomes.append(self._run_ir(context, args))
        return outcomes

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
        the case's legs.

        Internally this is :meth:`prepare_batch` + :meth:`finish_batch`;
        callers that have a next batch ready can call them separately to
        pipeline one batch's native builds under the next batch's Python
        front half.
        """
        return self.finish_batch(self.prepare_batch(cases))

    def prepare_batch(self, cases: Sequence[CaseLike]) -> PreparedBatch:
        """Front half of :meth:`check_batch`: parse, verify, lower and emit
        every case, launch the native builds asynchronously, and run the
        pure-Python reference legs while those builds compile."""
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

        # Compile every native leg of every case up front; a case whose
        # assembly cannot be emitted gets its exception as the verdict and
        # drops out of the batch.
        assemblies: Dict[Tuple[int, str, str], str] = {}
        for index, context in enumerate(contexts):
            if context is None or verdicts[index] is not None:
                continue
            try:
                for backend in self.native_backends:
                    for opt in ("O0", "O3"):
                        assemblies[(index, backend, opt)] = context.assembly(
                            backend, opt
                        )
            except IRVerificationError as exc:
                verdicts[index] = self._verifier_divergence(
                    cases[index].source,
                    cases[index].name,
                    list(cases[index].inputs),
                    exc,
                )
            except Exception as exc:
                verdicts[index] = exc

        active = [
            index
            for index in range(len(contexts))
            if contexts[index] is not None and verdicts[index] is None
        ]

        # One batch binary per backend holds BOTH opt levels (entries are
        # interleaved per case), halving the build/run subprocesses again.
        # Constructing a NativeBatch only *launches* its build — every
        # backend's compiler runs concurrently in the background from here.
        prepared = PreparedBatch(list(cases), contexts, verdicts, active, {}, {})
        try:
            for backend in self.native_backends:
                batch_cases: List[native.BatchCase] = []
                position: Dict[Tuple[int, str], int] = {}
                for index in active:
                    for opt in ("O0", "O3"):
                        position[(index, opt)] = len(batch_cases)
                        batch_cases.append(
                            native.BatchCase(
                                source=cases[index].source,
                                name=cases[index].name,
                                inputs=list(cases[index].inputs),
                                context=contexts[index],
                                assembly=assemblies[(index, backend, opt)],
                            )
                        )
                self._batch_counter += 1
                batch = native.NativeBatch(
                    batch_cases,
                    "mix",
                    self.workdir,
                    isa=backend,
                    asm_transform=self.asm_transform,
                    tag=f"batch{self._batch_counter}",
                )
                prepared.batches[backend] = (batch, position)
        except native.BATCH_FAILURES as exc:  # e.g. the control-loop object
            prepared.failure = exc
            return prepared

        # The pure-Python reference legs run while the native builds
        # compile — this is the compile-while-execute pipeline.
        for index in active:
            context = contexts[index]
            assert context is not None
            prepared.reference[index] = [
                self._reference_outcomes(context, args)
                for args in list(cases[index].inputs)
            ]
        return prepared

    def _native_legs(
        self, prepared: PreparedBatch
    ) -> Dict[int, List[List[LegOutcome]]]:
        """Every active case's native outcomes, per input, in leg order."""
        legs: Dict[int, List[List[LegOutcome]]] = {}
        for index in prepared.active:
            legs[index] = [
                [
                    self._batch_outcome_to_leg(
                        batch.outcome(position[(index, opt)], input_index),
                        f"{backend}-{opt}",
                    )
                    for backend, (batch, position) in prepared.batches.items()
                    for opt in ("O0", "O3")
                ]
                for input_index in range(len(prepared.cases[index].inputs))
            ]
        return legs

    def finish_batch(self, prepared: PreparedBatch) -> List[CaseVerdict]:
        """Back half of :meth:`check_batch`: collect every (case, input)
        pair's record from the fork servers (launching any not yet
        launched), compare, and run the sanitizer leg over the still-clean
        cases."""
        cases = prepared.cases
        contexts = prepared.contexts
        verdicts = prepared.verdicts
        failure = prepared.failure
        try:
            if failure is None:
                native_legs = self._native_legs(prepared)
        except native.BATCH_FAILURES as exc:
            failure = exc
        finally:
            for batch, _ in prepared.batches.values():
                batch.close()
        if failure is not None:
            return self._bisect(prepared, failure)

        for index in prepared.active:
            context = contexts[index]
            assert context is not None
            verdicts[index] = self._first_divergence(
                context,
                list(cases[index].inputs),
                prepared.reference[index],
                native_legs[index],
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

    def _bisect(
        self, prepared: PreparedBatch, failure: Exception
    ) -> List[CaseVerdict]:
        """Attribute a failed native batch: re-check each half of its cases
        until the failing case stands alone and gets the failure.  A failed
        control-loop build is every case's, so it is never bisected."""
        active = prepared.active
        verdicts = prepared.verdicts
        if not active:
            return verdicts
        if len(active) == 1 or isinstance(failure, native.HarnessBuildError):
            stderr = getattr(failure, "stderr", None) or b""
            if isinstance(stderr, bytes):
                stderr = stderr.decode("utf-8", "replace")
            for index in active:
                verdicts[index] = OracleError(
                    f"native leg failed: {stderr[-2000:] or failure}"
                )
            return verdicts
        half = len(active) // 2
        for part in (active[:half], active[half:]):
            part_verdicts = self.check_batch([prepared.cases[index] for index in part])
            for index, verdict in zip(part, part_verdicts):
                verdicts[index] = verdict
        return verdicts


@dataclass
class _Case:
    """The minimal :data:`CaseLike` :meth:`Oracle.check_case` wraps."""

    source: str
    name: str
    inputs: List[Tuple]
