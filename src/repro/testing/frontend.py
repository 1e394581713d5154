"""Shared per-case front-end context for the differential pipeline.

Every oracle leg used to re-run the front half of the pipeline privately:
the interpreter type-checked once per *input vector*, the IR executor once
more (plus its own lowering), and each native leg parsed, type-checked and
lowered yet again inside ``compile_function``.  For a four-way oracle over
five input vectors that was ~14 semantic-analysis passes per case.

:class:`CaseContext` computes the front half once — parse, type-check,
AST-optimise, lower, IR-optimise — and every leg consumes the shared
result:

* interpreter legs are constructed with the shared, already-run
  :class:`~repro.lang.typecheck.TypeChecker`;
* the ``ir-O3`` leg executes the shared lowered IR via a pre-seeded
  lowering cache;
* the native legs emit assembly from the same
  :class:`~repro.compiler.driver.LoweredFunction` (the IR is copied before
  register allocation, which mutates it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compiler.driver import (
    LoweredFunction,
    emit_from_lowered,
    lower_for_backend,
)
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.lang.typecheck import TypeChecker


class CaseContext:
    """One case's parse → typecheck → lower front half, computed once."""

    def __init__(
        self,
        source: str,
        name: Optional[str] = None,
        program: Optional[ast.Program] = None,
        checker: Optional[TypeChecker] = None,
        verify_ir: bool = False,
        ir_transform=None,
    ) -> None:
        self.source = source
        #: When set, :meth:`lowered` runs the IR verifier after lowering and
        #: after every -O3 pass (``ir_transform`` injects an IR-level
        #: miscompile first — the fuzzer's self-test hook).
        self.verify_ir = verify_ir
        self.ir_transform = ir_transform
        self.program = program if program is not None else parse_program(source)
        if name is None:
            functions = self.program.functions()
            if not functions:
                raise ValueError("program defines no function with a body")
            name = functions[0].name
        self.name = name
        if checker is None:
            # ``checker`` (over the same program, already run) lets producers
            # like the generator's round-trip validation donate their pass.
            checker = TypeChecker(self.program)
            checker.check()
        self.checker = checker
        self.check_result = getattr(checker, "last_result", checker.result)
        cache = getattr(checker, "resolve_cache", None)
        if cache is None:
            cache = {}
            # Share the resolution memo with every Interpreter built from
            # this checker (the interpreter looks for this attribute).
            checker.resolve_cache = cache  # type: ignore[attr-defined]
        self._resolve_cache: Dict[ct.CType, ct.CType] = cache
        self._lowered: Dict[str, LoweredFunction] = {}
        self._assembly: Dict[Tuple[str, str], str] = {}
        self._ir_cache: Optional[Dict] = None

    # -- legs -----------------------------------------------------------------

    def interpreter(self, **kwargs) -> Interpreter:
        """A fresh interpreter (fresh memory/globals) over the shared AST."""
        return Interpreter(self.program, checker=self.checker, **kwargs)

    def lowered(self, opt_level: str) -> LoweredFunction:
        """The lowered (and, at -O3, IR-optimised) entry function."""
        cached = self._lowered.get(opt_level)
        if cached is None:
            cached = lower_for_backend(
                self.program,
                name=self.name,
                opt_level=opt_level,
                checker=self.checker,
                verify_ir=self.verify_ir,
                ir_transform=self.ir_transform,
            )
            self._lowered[opt_level] = cached
        return cached

    def ir_cache(self) -> Dict:
        """A lowering cache pre-seeded with the -O3 IR, for ``IRExecutor``.

        The executor treats the IR as read-only, so one cache serves every
        input vector — and the native -O3 leg emits from the same IR.
        """
        if self._ir_cache is None:
            lowered = self.lowered("O3")
            self._ir_cache = {self.name: (lowered.ir_func, lowered.strings)}
        return self._ir_cache

    def assembly(self, isa: str, opt_level: str) -> str:
        """Assembly for one (ISA, opt level), emitted from the shared IR."""
        key = (isa, opt_level)
        cached = self._assembly.get(key)
        if cached is None:
            cached = emit_from_lowered(self.lowered(opt_level), isa).assembly
            self._assembly[key] = cached
        return cached

    def release_ir(self) -> None:
        """Drop the lowered IR; a later :meth:`lowered` lowers again.

        For callers that keep many contexts alive after emitting their
        assembly and running their IR leg: what execution and comparison
        read afterwards (source, types, assembly) stays.
        """
        self._lowered.clear()
        self._ir_cache = None

    def seed_assembly(self, isa: str, opt_level: str, text: str) -> None:
        """Pre-populate one (ISA, opt level) assembly leg with known text.

        Callers holding already-emitted assembly (a dataset entry's grid,
        a cache hit) seed it here so :meth:`assembly` returns it without
        re-lowering — the text must be what emission would produce.
        """
        self._assembly[(isa, opt_level)] = text

    # -- type information (used by the native harnesses) ----------------------

    def resolve(self, t: ct.CType) -> ct.CType:
        try:
            cached = self._resolve_cache.get(t)
        except TypeError:  # StructType is unhashable
            return self._resolve_uncached(t)
        if cached is None:
            cached = self._resolve_uncached(t)
            self._resolve_cache[t] = cached
        return cached

    def _resolve_uncached(self, t: ct.CType) -> ct.CType:
        if isinstance(t, ct.NamedType) and t.name in self.checker.typedefs:
            return self.resolve(self.checker.typedefs[t.name])
        if isinstance(
            t, ct.StructType
        ) and not t.fields and t.tag in self.checker.structs:
            return self.checker.structs[t.tag]
        if isinstance(t, ct.PointerType):
            return ct.PointerType(self.resolve(t.pointee))
        if isinstance(t, ct.ArrayType):
            return ct.ArrayType(self.resolve(t.element), t.length)
        return t

    def function(self) -> ast.FunctionDef:
        func = self.program.function(self.name)
        assert func is not None, f"no function {self.name!r}"
        return func

    def param_types(self) -> List[ct.CType]:
        return [ct.decay(self.resolve(p.type)) for p in self.function().params]

    def return_type(self) -> ct.CType:
        return self.resolve(self.function().return_type)

    def global_type(self, name: str) -> ct.CType:
        return self.resolve(self.checker.global_scope.vars[name])
