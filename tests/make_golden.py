"""Regenerate (or verify) the golden files used by test_backends.py.

Two kinds of golden data live in ``tests/golden/``:

* ``add2_<isa>_<opt>.s`` — byte-exact assembly for one tiny function;
* ``corpus_fingerprint.sha256`` — one sha256 over the IR text, x86
  assembly and ARM assembly of every generator case in ``CORPUS_SEEDS``
  at -O0 and -O3 (lowered with ``verify_ir=True``).  Any change to
  lowering, the -O3 passes, register allocation or either emitter that
  alters a single byte of output changes it.

Run from the repository root:

    python tests/make_golden.py          # rewrite the golden files
    python tests/make_golden.py --check  # exit 1 if any golden file is stale
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler import compile_function  # noqa: E402
from repro.compiler.driver import emit_from_lowered, lower_for_backend  # noqa: E402
from repro.testing.generator import generate_case  # noqa: E402

SOURCE = "int add2(int a, int b) { return a + b + 2; }\n"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FINGERPRINT = GOLDEN_DIR / "corpus_fingerprint.sha256"
#: Generator seeds the corpus fingerprint covers.
CORPUS_SEEDS = range(200)


def corpus_fingerprint() -> str:
    """sha256 of IR, x86 and ARM output over the generator corpus."""
    digest = hashlib.sha256()
    for seed in CORPUS_SEEDS:
        case = generate_case(seed)
        for opt in ("O0", "O3"):
            lowered = lower_for_backend(
                case.program, case.name, opt, checker=case.checker, verify_ir=True
            )
            parts = [f"seed {seed} {opt}", str(lowered.ir_func)]
            parts += [emit_from_lowered(lowered, isa).assembly for isa in ("x86", "arm")]
            for part in parts:
                digest.update(part.encode())
                digest.update(b"\0")
    return digest.hexdigest()


def generate() -> dict:
    """{path: expected text} for every golden file."""
    expected = {}
    for isa in ("x86", "arm"):
        for opt in ("O0", "O3"):
            compiled = compile_function(SOURCE, isa=isa, opt_level=opt)
            expected[GOLDEN_DIR / f"add2_{isa}_{opt}.s"] = compiled.assembly
    expected[FINGERPRINT] = corpus_fingerprint() + "\n"
    return expected


def main() -> int:
    check = "--check" in sys.argv[1:]
    GOLDEN_DIR.mkdir(exist_ok=True)
    expected = generate()
    stale = []
    for path, text in expected.items():
        if check:
            if not path.exists() or path.read_text() != text:
                stale.append(path)
        else:
            path.write_text(text)
            print(f"wrote {path} ({len(text.splitlines())} lines)")
    if check and stale:
        for path in stale:
            print(f"stale golden file: {path}", file=sys.stderr)
        print("regenerate with: python tests/make_golden.py", file=sys.stderr)
        return 1
    if check:
        print(f"{len(expected)} golden files up to date")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
