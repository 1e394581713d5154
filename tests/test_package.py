"""Packaging/API tests: the lazy re-exports of ``repro.compiler``,
``repro.testing`` and ``repro.eval``, and the driver's error reporting."""

import importlib

import pytest

import repro.compiler as compiler_pkg
from repro.compiler import (
    CompileError,
    CompiledFunction,
    compile_function,
    compile_program,
)


def test_advertised_entry_points_importable():
    assert callable(compile_function)
    assert callable(compile_program)
    assert issubclass(CompileError, Exception)
    assert CompiledFunction is not None


def test_submodules_importable_standalone():
    for name in ("ir", "lowering", "opt", "regalloc", "x86", "arm", "driver"):
        module = importlib.import_module(f"repro.compiler.{name}")
        assert module is getattr(compiler_pkg, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        compiler_pkg.no_such_symbol


def test_dir_lists_exports():
    listing = dir(compiler_pkg)
    assert "compile_function" in listing
    assert "lowering" in listing


def test_native_harness_public_api_surface():
    """The native harness lives in ``repro.testing.native`` (the
    ``tests/native_runner.py`` shim is gone); pin the public surface so a
    future relocation cannot silently break consumers again."""
    module = importlib.import_module("repro.testing.native")
    for name in (
        "BatchCase",
        "BatchExecutionError",
        "GroupedBatchRunner",
        "NativeBatch",
        "NativeResult",
        "have_arm_toolchain",
        "have_native_toolchain",
    ):
        assert name in module.__all__, name
        assert getattr(module, name) is not None
    # One executor: the per-function harness and the re-export shim are gone.
    assert not hasattr(module, "NativeFunction")
    assert not hasattr(module, "values_equal")
    # The lazy package-level re-export must resolve to the same object.
    import repro.testing as testing_pkg

    assert testing_pkg.NativeBatch is module.NativeBatch
    assert "NativeFunction" not in testing_pkg.__all__


def test_in_product_bench_is_gone():
    # One benchmark: perfbench/ measures from outside the package.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.perf")


def test_eval_package_api_surface():
    import repro.eval as eval_pkg

    for name in eval_pkg.__all__:
        assert getattr(eval_pkg, name) is not None, name
    from repro.eval.dataset import VERDICTS

    assert VERDICTS == (
        "parse_error",
        "type_error",
        "compile_error",
        "trap",
        "io_mismatch",
        "io_equivalent",
    )
    with pytest.raises(AttributeError):
        eval_pkg.no_such_symbol


def test_compile_program_grid():
    source = """
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
"""
    grid = compile_program(source)
    assert set(grid) == {"twice", "thrice"}
    for per_func in grid.values():
        assert set(per_func) == {
            ("x86", "O0"), ("x86", "O3"), ("arm", "O0"), ("arm", "O3")
        }
        for compiled in per_func.values():
            assert compiled.assembly.strip()


def test_parse_error_becomes_compile_error():
    with pytest.raises(CompileError, match="parse error"):
        compile_function("int broken( {")


def test_unknown_isa_rejected():
    with pytest.raises(CompileError, match="unknown ISA"):
        compile_function("int f(void) { return 0; }", isa="riscv")


def test_unknown_opt_level_rejected():
    with pytest.raises(CompileError, match="optimisation level"):
        compile_function("int f(void) { return 0; }", opt_level="O2")


def test_isa_and_opt_aliases():
    source = "int f(void) { return 0; }"
    assert compile_function(source, isa="aarch64", opt_level=0).isa == "arm"
    assert compile_function(source, isa="x86_64", opt_level="-O3").opt_level == "O3"


def test_named_function_selection():
    source = "int a(void) { return 1; }\nint b(void) { return 2; }"
    assert compile_function(source, name="b").name == "b"
    with pytest.raises(CompileError, match="multiple functions"):
        compile_function(source)
    with pytest.raises(CompileError, match="no function named"):
        compile_function(source, name="c")
