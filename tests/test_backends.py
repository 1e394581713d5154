"""Backend smoke tests: the emitted assembly must be non-empty and
syntactically well-formed for both ISAs at both optimisation levels, and the
tiny golden functions must produce their expected shape exactly."""

import re
from pathlib import Path

import pytest

from repro.compiler import compile_function

from corpus import CORPUS

_GOLDEN_DIR = Path(__file__).parent / "golden"

#: A line of AT&T x86 assembly: label, directive, or tab-indented mnemonic.
_X86_LINE = re.compile(r"^(?:[.\w]+:|\t\.[a-z_]+.*|\t[a-z][a-z0-9]*\t?.*)$")
#: Same for the AArch64 dialect.
_ARM_LINE = re.compile(r"^(?:[.\w]+:|\t\.[a-z_]+.*|\t[a-z][a-z0-9.]*\t?.*|\t//.*)$")

_GRID = [(isa, opt) for isa in ("x86", "arm") for opt in ("O0", "O3")]


def _assert_well_formed(assembly: str, isa: str, name: str) -> None:
    assert assembly.strip(), f"{name}/{isa}: empty assembly"
    pattern = _X86_LINE if isa == "x86" else _ARM_LINE
    for line in assembly.splitlines():
        if not line:
            continue
        assert pattern.match(line), f"{name}/{isa}: malformed line {line!r}"
    # The function label and a return must be present.
    assert f"{name}:" in assembly.splitlines(), f"{name}/{isa}: missing function label"
    assert re.search(r"^\tret$", assembly, re.M), f"{name}/{isa}: missing ret"
    # Every local label that is jumped to must be defined.
    if isa == "x86":
        targets = re.findall(r"^\tj\w+\t(\.L\S+)$", assembly, re.M)
    else:
        targets = re.findall(
            r"^\t(?:b|b\.\w+|cbn?z\t\w+,)\t?\s*(\.L\S+)$", assembly, re.M
        )
    defined = set(re.findall(r"^(\.L\S+):$", assembly, re.M))
    for target in targets:
        assert target in defined, f"{name}/{isa}: jump to undefined label {target}"


@pytest.mark.parametrize("isa,opt", _GRID)
@pytest.mark.parametrize(
    "source,name", [(entry[0], entry[1]) for entry in CORPUS], ids=[
        e[1] for e in CORPUS
    ]
)
def test_corpus_compiles(source, name, isa, opt):
    compiled = compile_function(source, name=name, isa=isa, opt_level=opt)
    assert compiled.isa == isa and compiled.opt_level == opt
    _assert_well_formed(compiled.assembly, isa, name)


@pytest.mark.parametrize("isa,opt", _GRID)
def test_golden_add2(isa, opt):
    """Byte-exact golden files for a tiny function: the compiler is
    deterministic, so any drift in emission shows up here first."""
    source = "int add2(int a, int b) { return a + b + 2; }\n"
    compiled = compile_function(source, isa=isa, opt_level=opt)
    golden = _GOLDEN_DIR / f"add2_{isa}_{opt}.s"
    assert golden.exists(), (
        f"golden file {golden} missing; regenerate with tests/make_golden.py"
    )
    assert compiled.assembly == golden.read_text(), (
        f"assembly for add2/{isa}/{opt} drifted from {golden}; "
        "regenerate with tests/make_golden.py if the change is intentional"
    )


def test_o0_spills_and_o3_allocates():
    """-O0 must keep values in the frame; -O3 must use callee-saved registers."""
    source, name, _ = CORPUS[0]  # sum_to
    o0_x86 = compile_function(source, name=name, isa="x86", opt_level="O0").assembly
    o3_x86 = compile_function(source, name=name, isa="x86", opt_level="O3").assembly
    assert "%rbx" not in o0_x86
    assert any(reg in o3_x86 for reg in ("%rbx", "%r12", "%r13", "%r14", "%r15"))
    o0_arm = compile_function(source, name=name, isa="arm", opt_level="O0").assembly
    o3_arm = compile_function(source, name=name, isa="arm", opt_level="O3").assembly
    assert "x19" not in o0_arm
    assert any(f"x{n}" in o3_arm for n in range(19, 29))


def test_float_and_string_literals_emitted():
    source = """
double scaled(double x) {
    return 2.5 * x + 0.125;
}
"""
    for isa in ("x86", "arm"):
        assembly = compile_function(source, isa=isa, opt_level="O0").assembly
        assert ".LCF" in assembly, f"{isa}: float literal pool missing"
        assert ".rodata" in assembly


def test_corpus_fingerprint():
    """IR, x86 and ARM output over 200 generator cases at -O0 and -O3 is
    byte-identical to the committed fingerprint: a middle-end change that
    reorders a single instruction, register or label shows up here."""
    import make_golden

    committed = make_golden.FINGERPRINT.read_text().strip()
    assert make_golden.corpus_fingerprint() == committed, (
        "compiler output drifted from tests/golden/corpus_fingerprint.sha256; "
        "regenerate with tests/make_golden.py if the change is intentional"
    )
