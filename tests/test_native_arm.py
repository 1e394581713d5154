"""Native AArch64 IO-equivalence tests.

The mirror image of ``test_native_x86.py`` for the ARM backend: every
corpus function is compiled to AArch64 assembly at -O0 and -O3, built as a
static binary with the cross toolchain, executed under ``qemu-aarch64``
user-mode emulation (or directly on aarch64 hosts) and compared against the
interpreter's observable state.

Skipped cleanly when no AArch64 toolchain/emulator is available.
"""

import pytest

from corpus import CORPUS, WIDE_SIGNATURES
from repro.testing.frontend import CaseContext
from repro.testing.native import BatchCase, NativeBatch, have_arm_toolchain
from repro.testing.oracle import values_equal

pytestmark = pytest.mark.skipif(
    not have_arm_toolchain(),
    reason="requires an AArch64 toolchain (aarch64 host, or cross gcc + qemu-aarch64)",
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("native_arm")


def _check_entry(source, name, inputs, opt, workdir):
    context = CaseContext(source, name)
    case = BatchCase(source, name, list(inputs), context=context)
    with NativeBatch([case], opt, workdir, isa="arm", tag=name) as batch:
        for index, args in enumerate(inputs):
            expected = context.interpreter().run_function(name, args)
            status, actual = batch.outcome(0, index)
            assert status == "ok", f"{name}{args} @ arm/{opt}: {status} ({actual})"
            if expected.return_value is not None:
                assert values_equal(actual.return_value, expected.return_value), (
                    f"{name}{args} @ arm/{opt}: native returned "
                    f"{actual.return_value!r}, interpreter {expected.return_value!r}"
                )
            for j, value in enumerate(actual.arg_values):
                assert values_equal(value, expected.arg_values[j]), (
                    f"{name}{args} @ arm/{opt}: arg {j} native {value!r} "
                    f"!= interpreter {expected.arg_values[j]!r}"
                )
            for gname, gvalue in actual.globals.items():
                assert values_equal(gvalue, expected.globals[gname]), (
                    f"{name}{args} @ arm/{opt}: global {gname} native "
                    f"{gvalue!r} != interpreter {expected.globals[gname]!r}"
                )


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize(
    "source,name,inputs", CORPUS, ids=[entry[1] for entry in CORPUS]
)
def test_arm_native_matches_interpreter(source, name, inputs, opt, workdir):
    _check_entry(source, name, inputs, opt, workdir)


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize(
    "source,name,inputs", WIDE_SIGNATURES, ids=[entry[1] for entry in WIDE_SIGNATURES]
)
def test_arm_wide_signature_matches_interpreter(source, name, inputs, opt, workdir):
    """Signatures wider than the argument registers run on the batch too:
    the case's call stub passes the overflow on the stack."""
    _check_entry(source, name, inputs, opt, workdir)
