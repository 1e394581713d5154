"""Outside-in span tracing for the benchmark.

Nothing in ``src/`` knows about this module.  :func:`install` wraps the
public entry points of each ``repro`` layer and rebinds every module that
imported one of them by name, so a call through any alias lands in the
wrapper.  Each wrapped call records one span: name, start, end, parent span
and request id (the ``uid`` of the scoring-service request being served on
that thread, else ``None``).  Spans stay in memory and are written out once,
when the traced round ends.

A span's self time is its duration minus the time covered by its children
(spans opened on the same thread while it was open).  A layer's self time is
the sum over its spans; whatever the top-level spans do not cover is
reported as ``trace.unattributed_frac``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

monotonic = time.monotonic


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "child")

    def to_json(self) -> List[Any]:
        return [self.id, self.name, self.start, self.end, self.parent, self.rid, self.child]


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counters per request id (``None`` outside scoring requests).
        self.counts: Dict[Optional[str], collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.parent = stack[-1].id if stack else -1
        span.rid = getattr(self._local, "rid", None)
        span.child = 0.0
        span.end = 0.0
        stack.append(span)
        span.start = monotonic()
        return span

    def end(self, span: Span) -> None:
        span.end = monotonic()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    @contextlib.contextmanager
    def request(self, rid: Optional[str]):
        """Tag every span opened on this thread with ``rid``."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def count(self, key: str, amount: int = 1) -> None:
        rid = getattr(self._local, "rid", None)
        with self._lock:
            self.counts[rid][key] += amount

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn: Callable, name: str, after: Optional[Callable]) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _generator_wrapper(
        self, fn: Callable, name: Optional[str], on_item: Callable
    ) -> Callable:
        """Wrap a generator function: each ``next()`` is one span (when
        ``name`` is given) and every yielded item goes through ``on_item``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = begin(name) if name else None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            end(span)
                    on_item(item)
                    yield item
            finally:
                inner.close()

        return wrapper

    def _rebind(self, original: Any, wrapper: Any) -> None:
        """Point every ``repro`` module binding of ``original`` at ``wrapper``."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def wrap_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self._wrapper(original, name, after))

    def wrap_generator_function(self, module, attr: str, name, on_item) -> None:
        original = getattr(module, attr)
        self._rebind(original, self._generator_wrapper(original, name, on_item))

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, after))
        self._patches.append((cls, attr, original))

    def wrap_generator_method(self, cls, attr: str, on_item) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._generator_wrapper(original, None, on_item))
        self._patches.append((cls, attr, original))

    def wrap_request_method(self, cls, attr: str, name: str) -> None:
        """Wrap ``method(self, request, ...)``: its span and every span below
        it carry ``request["uid"]`` as the request id."""
        original = cls.__dict__[attr]
        begin, end, tag = self.begin, self.end, self.request

        @functools.wraps(original)
        def wrapper(obj, request, *args, **kwargs):
            with tag(request.get("uid") if isinstance(request, dict) else None):
                span = begin(name)
                try:
                    return original(obj, request, *args, **kwargs)
                finally:
                    end(span)

        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def dump(self, path) -> None:
        """Write the spans (one JSON array per line) and the counters."""
        with open(path, "w") as handle:
            counts = [[rid, dict(c)] for rid, c in self.counts.items()]
            handle.write(json.dumps({"counts": counts}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def load(path) -> Tuple[List[Span], Dict[Optional[str], Dict[str, int]]]:
    """(spans, counters per request id) from a :meth:`Tracer.dump` file."""
    with open(path) as handle:
        counts = {rid: c for rid, c in json.loads(handle.readline())["counts"]}
        loaded = []
        for line in handle:
            span = Span()
            (span.id, span.name, span.start, span.end, span.parent, span.rid,
             span.child) = json.loads(line)  # fmt: skip
            loaded.append(span)
    return loaded, counts


# ---------------------------------------------------------------------------
# The layer table
# ---------------------------------------------------------------------------


def install(tracer: Tracer, service: bool = False) -> Tracer:
    """Wrap every traced ``repro`` entry point (``service=True`` also wraps
    the daemon's per-request unit, which tags spans with the request uid)."""
    from repro.analysis import lint, verifier
    from repro.compiler import driver, opt
    from repro.eval import cache, dataset, mutate, repair, score
    from repro.lang import interpreter, lexer, parser, typecheck
    from repro.testing import fuzz, generator, irexec, native, oracle

    if service:
        from repro.eval import service as service_module

        tracer.wrap_request_method(
            service_module.ScoringService, "_execute_unit", "eval.service:execute"
        )

    count = tracer.count

    def after_lint(findings, args, kwargs):
        if any(finding.predicts_trap for finding in findings):
            count("analysis.lint.prefilter_skips")

    def after_batch_init(_, args, kwargs):
        built = args[0]._build_proc is not None
        count("testing.native.builds" if built else "testing.native.binary_hits")

    def after_outcome(outcome, args, kwargs):
        if outcome[0] == "limit":
            count("testing.native.timeouts")

    def on_group(item):
        if item[1] is None:
            count("testing.native.group_fallbacks")

    def after_score_sets(_, args, kwargs):
        sets = args[1] if len(args) > 1 else kwargs["candidate_sets"]
        count("eval.score.submitted", sum(len(s) for s in sets))

    def after_put(_, args, kwargs):
        if args[1] == "verdict":
            count("eval.score.executed")

    tracer.wrap_function(lexer, "tokenize", "lang.lexer")
    tracer.wrap_function(parser, "parse_program", "lang.parser")
    tracer.wrap_method(typecheck.TypeChecker, "check", "lang.typecheck")
    tracer.wrap_method(interpreter.Interpreter, "run_function", "lang.interpreter")
    tracer.wrap_function(lint, "lint_program", "analysis.lint", after_lint)
    tracer.wrap_function(verifier, "verify_function_or_raise", "analysis.verifier")
    tracer.wrap_function(driver, "lower_for_backend", "compiler.lowering")
    tracer.wrap_function(opt, "optimize_ir", "compiler.opt")
    tracer.wrap_function(driver, "emit_from_lowered", "compiler.emit")
    tracer.wrap_method(generator.ProgramGenerator, "generate", "testing.generator")
    tracer.wrap_method(
        native.NativeBatch, "__init__", "testing.native:init", after_batch_init
    )
    tracer.wrap_method(native.NativeBatch, "ensure_built", "testing.native:build_wait")
    tracer.wrap_method(native.NativeBatch, "outcome", "testing.native:exec", after_outcome)
    tracer.wrap_generator_method(native.GroupedBatchRunner, "run", on_group)
    tracer.wrap_method(oracle.Oracle, "prepare_batch", "testing.oracle")
    tracer.wrap_method(oracle.Oracle, "finish_batch", "testing.oracle")
    tracer.wrap_method(irexec.IRExecutor, "run_function", "testing.irexec")
    tracer.wrap_function(fuzz, "run_campaign", "testing.fuzz")
    tracer.wrap_function(dataset, "build_entry", "eval.dataset")
    tracer.wrap_generator_function(
        mutate,
        "repair_neighbors",
        "eval.mutate:neighbors",
        lambda item: count("eval.mutate.neighbors"),
    )
    tracer.wrap_function(score, "score_entry_sets", "eval.score", after_score_sets)
    tracer.wrap_function(score, "edit_similarity", "eval.score:similarity")
    tracer.wrap_function(score, "build_report", "eval.score:report")
    tracer.wrap_method(cache.EvalCache, "get", "eval.cache:get")
    tracer.wrap_method(cache.EvalCache, "get_file", "eval.cache:get")
    tracer.wrap_method(cache.EvalCache, "put", "eval.cache:put", after_put)
    tracer.wrap_method(cache.EvalCache, "put_file", "eval.cache:put")
    tracer.wrap_function(repair, "repair_campaign", "eval.repair")
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric the traced run prints: (name, unit, better).
#: ``*_frac`` times are self-time shares of the workload's denominator
#: (the timed phase; for ``serve``, the summed request latency), so a layer
#: a workload never calls reads 0 rather than a constant time.
CACHE_LAYERS = ("entry", "candidates", "asm", "binary", "verdict")

PER_LAYER: List[Tuple[str, str, str]] = [
    ("lang.lexer.calls", "count", "lower"),
    ("lang.lexer.self_frac", "1", "lower"),
    ("lang.parser.calls", "count", "lower"),
    ("lang.parser.self_frac", "1", "lower"),
    ("lang.typecheck.calls", "count", "lower"),
    ("lang.typecheck.self_frac", "1", "lower"),
    ("lang.interpreter.runs", "count", "lower"),
    ("lang.interpreter.self_frac", "1", "lower"),
    ("analysis.lint.calls", "count", "lower"),
    ("analysis.lint.self_frac", "1", "lower"),
    ("analysis.lint.prefilter_skips", "count", "higher"),
    ("analysis.lint.skip_ratio", "1", "higher"),
    ("analysis.verifier.calls", "count", "lower"),
    ("analysis.verifier.self_frac", "1", "lower"),
    ("compiler.lowering.calls", "count", "lower"),
    ("compiler.lowering.self_frac", "1", "lower"),
    ("compiler.opt.calls", "count", "lower"),
    ("compiler.opt.self_frac", "1", "lower"),
    ("compiler.emit.calls", "count", "lower"),
    ("compiler.emit.self_frac", "1", "lower"),
    ("testing.generator.calls", "count", "lower"),
    ("testing.generator.self_frac", "1", "lower"),
    ("testing.native.batches", "count", "lower"),
    ("testing.native.builds", "count", "lower"),
    ("testing.native.binary_hit_ratio", "1", "higher"),
    ("testing.native.build_wait_frac", "1", "lower"),
    ("testing.native.pairs", "count", "lower"),
    ("testing.native.exec_frac", "1", "lower"),
    ("testing.native.timeouts", "count", "lower"),
    ("testing.native.group_fallbacks", "count", "lower"),
    ("testing.native.self_frac", "1", "lower"),
    ("testing.oracle.calls", "count", "lower"),
    ("testing.oracle.self_frac", "1", "lower"),
    ("testing.irexec.calls", "count", "lower"),
    ("testing.irexec.self_frac", "1", "lower"),
    ("testing.fuzz.self_frac", "1", "lower"),
    ("eval.dataset.calls", "count", "lower"),
    ("eval.dataset.self_frac", "1", "lower"),
    ("eval.mutate.neighbors", "count", "lower"),
    ("eval.mutate.neighbors_frac", "1", "lower"),
    ("eval.score.calls", "count", "lower"),
    ("eval.score.self_frac", "1", "lower"),
    ("eval.score.dedupe_ratio", "1", "lower"),
    ("eval.score.similarity_frac", "1", "lower"),
    ("eval.score.report_frac", "1", "lower"),
    ("eval.cache.get_frac", "1", "lower"),
    ("eval.cache.put_frac", "1", "lower"),
    ("eval.cache.bytes_written", "bytes", "lower"),
] + [(f"eval.cache.{layer}.hit_ratio", "1", "higher") for layer in CACHE_LAYERS] + [
    ("eval.repair.rounds", "count", "lower"),
    ("eval.repair.attempts", "count", "lower"),
    ("eval.repair.repaired", "count", "higher"),
    ("eval.repair.yield", "1", "higher"),
    ("eval.repair.self_frac", "1", "lower"),
    ("eval.service.overhead_frac", "1", "lower"),
    ("eval.service.queue_depth_max", "count", "lower"),
    ("eval.service.busy_frac", "1", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.late_frac", "1", "lower"),
    ("host.probe_ms", "ms", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.unattributed_frac", "1", "lower"),
]

#: Per-layer counts that must repeat exactly between two traced rounds on
#: the same seed; only these may back a later count-based claim.
EXACT_COUNTS: Tuple[str, ...] = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "bytes")
    and not name.startswith(("eval.service.", "loadgen."))
) + tuple(f"eval.cache.{layer}.{kind}" for layer in CACHE_LAYERS for kind in ("hits", "misses"))

#: (metric, span names whose self time it sums).
_SELF_SHARES = {
    "eval.mutate.neighbors_frac": ("eval.mutate:neighbors",),
    "eval.score.similarity_frac": ("eval.score:similarity",),
    "eval.score.report_frac": ("eval.score:report",),
    "eval.cache.get_frac": ("eval.cache:get",),
    "eval.cache.put_frac": ("eval.cache:put",),
    "testing.native.build_wait_frac": ("testing.native:build_wait",),
    "testing.native.exec_frac": ("testing.native:exec",),
}

#: (metric, span names it counts).
_CALLS = {
    "lang.lexer.calls": ("lang.lexer",),
    "lang.parser.calls": ("lang.parser",),
    "lang.typecheck.calls": ("lang.typecheck",),
    "lang.interpreter.runs": ("lang.interpreter",),
    "analysis.lint.calls": ("analysis.lint",),
    "analysis.verifier.calls": ("analysis.verifier",),
    "compiler.lowering.calls": ("compiler.lowering",),
    "compiler.opt.calls": ("compiler.opt",),
    "compiler.emit.calls": ("compiler.emit",),
    "testing.generator.calls": ("testing.generator",),
    "testing.native.batches": ("testing.native:init",),
    "testing.native.pairs": ("testing.native:exec",),
    "testing.oracle.calls": ("testing.oracle",),
    "testing.irexec.calls": ("testing.irexec",),
    "eval.dataset.calls": ("eval.dataset",),
    "eval.score.calls": ("eval.score",),
}


def span_summary(spans: Iterable[Span]) -> Tuple[Dict[str, int], Dict[str, float], float]:
    """(calls per span name, self seconds per span name, top-level seconds)."""
    calls: Dict[str, int] = collections.Counter()
    self_s: Dict[str, float] = collections.defaultdict(float)
    top = 0.0
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        self_s[span.name] += duration - span.child
        if span.parent == -1:
            top += duration
    return calls, self_s, top


def layer_metrics(
    calls: Dict[str, int],
    self_s: Dict[str, float],
    counts: Dict[str, int],
    denominator_s: float,
) -> Dict[str, float]:
    """The span- and counter-derived per-layer metrics (cache hit ratios,
    repair, service, loadgen, host and trace values are added by the
    workload, which measures them at its own boundaries)."""
    share = (lambda seconds: seconds / denominator_s) if denominator_s > 0 else (
        lambda seconds: 0.0
    )
    out: Dict[str, float] = {}
    for metric, names in _CALLS.items():
        out[metric] = sum(calls.get(name, 0) for name in names)
    for metric, names in _SELF_SHARES.items():
        out[metric] = share(sum(self_s.get(name, 0.0) for name in names))
    layer_self: Dict[str, float] = collections.defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(":")[0]] += seconds
    for metric, _, _ in PER_LAYER:
        if metric.endswith(".self_frac"):
            out[metric] = share(layer_self.get(metric[: -len(".self_frac")], 0.0))
    lint_calls = out["analysis.lint.calls"]
    out["analysis.lint.prefilter_skips"] = counts.get("analysis.lint.prefilter_skips", 0)
    out["analysis.lint.skip_ratio"] = (
        out["analysis.lint.prefilter_skips"] / lint_calls if lint_calls else 0.0
    )
    builds = counts.get("testing.native.builds", 0)
    hits = counts.get("testing.native.binary_hits", 0)
    out["testing.native.builds"] = builds
    out["testing.native.binary_hit_ratio"] = hits / (builds + hits) if builds + hits else 0.0
    out["testing.native.timeouts"] = counts.get("testing.native.timeouts", 0)
    out["testing.native.group_fallbacks"] = counts.get("testing.native.group_fallbacks", 0)
    out["eval.mutate.neighbors"] = counts.get("eval.mutate.neighbors", 0)
    submitted = counts.get("eval.score.submitted", 0)
    out["eval.score.dedupe_ratio"] = (
        counts.get("eval.score.executed", 0) / submitted if submitted else 0.0
    )
    return out


def cache_metrics(summary: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Hit ratios (and raw hit/miss counts) from ``EvalCache.stats_summary``."""
    out: Dict[str, float] = {}
    layers = (summary or {}).get("layers", {})
    for layer in CACHE_LAYERS:
        stats = layers.get(layer, {})
        hits, misses = stats.get("hits", 0), stats.get("misses", 0)
        out[f"eval.cache.{layer}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"eval.cache.{layer}.hits"] = hits
        out[f"eval.cache.{layer}.misses"] = misses
    return out
