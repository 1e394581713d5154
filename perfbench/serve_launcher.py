"""Run the scoring daemon in this process, optionally traced.

    python3 perfbench/serve_launcher.py [--spans-out PATH] serve ARGS...

Without ``--spans-out`` this is ``python -m repro.eval.service serve ARGS``.
With it, every traced layer is wrapped (the per-request unit tags its spans
with the request's ``uid``) and the spans are written to PATH when the
daemon stops.
"""

import sys

import spans
from repro.eval import service


def main(argv) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    tracer = spans.install(spans.Tracer(), service=True) if spans_out else None
    try:
        return service.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
