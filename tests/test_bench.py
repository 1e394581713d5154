"""Unit tests for the benchmark harness's regression gates (no timing)."""

from repro.perf.bench import compare_reports


def _report(rate: float) -> dict:
    return {"fuzz": {"batched": {"cases_per_second": rate}}}


def test_compare_within_tolerance_passes():
    assert compare_reports(_report(8.0), _report(10.0), tolerance=0.30) is None
    assert compare_reports(_report(25.0), _report(10.0), tolerance=0.30) is None


def test_compare_absolute_regression_fails():
    failure = compare_reports(_report(6.0), _report(10.0), tolerance=0.30)
    assert failure is not None and "regressed" in failure


def test_compare_tolerates_malformed_baseline():
    assert compare_reports(_report(6.0), {}, tolerance=0.30) is not None


def _eval_report(rate: float) -> dict:
    report = _report(50.0)
    report["eval"] = {"candidates_per_second": rate, "backend": "x86"}
    return report


def test_compare_eval_absolute_regression_fails():
    failure = compare_reports(
        _eval_report(30.0), _eval_report(100.0), tolerance=0.30
    )
    assert failure is not None and "eval scoring throughput regressed" in failure
    assert compare_reports(_eval_report(90.0), _eval_report(100.0), 0.30) is None


def test_compare_jobs_scaling_gate():
    current = _report(50.0)
    baseline = _report(10.0)
    failure = compare_reports(
        current, baseline, tolerance=0.30, require_jobs_scaling=True
    )
    assert failure is not None and "scaling curve" in failure
    current["fuzz"]["jobs_curve"] = [
        {"jobs": 1, "cases_per_second": 50.0, "speedup_vs_jobs1": 1.0},
        {"jobs": 4, "cases_per_second": 80.0, "speedup_vs_jobs1": 1.6},
    ]
    failure = compare_reports(
        current, baseline, tolerance=0.30, require_jobs_scaling=True
    )
    assert failure is not None and "multi-core" in failure
    current["fuzz"]["jobs_curve"][1] = {
        "jobs": 4,
        "cases_per_second": 150.0,
        "speedup_vs_jobs1": 3.0,
    }
    assert (
        compare_reports(current, baseline, tolerance=0.30, require_jobs_scaling=True)
        is None
    )
