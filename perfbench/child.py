"""One batch round in a fresh process.

    python3 perfbench/child.py ROUND_SPEC.json

``run.py`` writes the spec and records when it spawned this process; the
result (timed-phase start, load time, ops, CPU, peak RSS and, when traced,
the per-layer metrics) is written to the spec's ``result`` path.  A
``setup_only`` spec stops where the timed phase would start, so it gives
one more setup-time sample.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads
from repro.eval.cache import EvalCache
from procs import dir_bytes, host_probe_ms


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    workload = spec["workload"]
    round_dir = Path(spec["round_dir"])
    setup_only = spec.get("setup_only", False)
    loaded = time.monotonic()
    inputs = None if setup_only else workloads.load(workload, spec)
    load_s = time.monotonic() - loaded
    cache = None if workload == "fuzz" else EvalCache(round_dir / "cache")
    workdir = round_dir / "work"
    workdir.mkdir()
    tracer = spans.install(spans.Tracer()) if spec["traced"] else None
    report_span = tracer.span if tracer else (lambda name: nullcontext())

    cpu_start = cpu_s()
    start = time.monotonic()
    if setup_only:
        Path(spec["result"]).write_text(json.dumps({"timed_start": start, "load_s": load_s}))
        return 0
    out = workloads.body(workload, inputs, cache, workdir, report_span)
    end = time.monotonic()
    cpu_end = cpu_s()

    result = {
        **out,
        "timed_start": start,
        "timed_s": end - start,
        "load_s": load_s,
        "probe_ms": host_probe_ms(),
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        calls, self_s, top = spans.span_summary(tracer.spans)
        layers = spans.layer_metrics(calls, self_s, tracer.counts[None], end - start)
        layers.update(spans.cache_metrics(cache.stats_summary() if cache else None))
        layers["eval.cache.bytes_written"] = dir_bytes(round_dir / "cache")
        layers.update(out.get("repair", {}))
        layers["trace.unattributed_frac"] = 1.0 - top / (end - start)
        result["layers"] = layers
        tracer.dump(spec["spans_out"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
