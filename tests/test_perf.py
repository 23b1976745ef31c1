"""Tests for the performance harness (repro.perf) and its CLI surface."""

import json

import pytest

from repro.perf import (
    BENCH_FILENAME,
    DEFAULT_GATES,
    SCHEMA,
    SUITE,
    BenchSpec,
    compare_reports,
    format_comparisons,
    has_gated_regression,
    load_report,
    run_suite,
    write_report,
)
from repro.perf import micro


# --------------------------------------------------------------------------- #
# Harness mechanics (no real timing — tiny synthetic benches)
# --------------------------------------------------------------------------- #
def _toy_suite(value=100.0):
    return [
        BenchSpec(name="toy_rate", fn=lambda scale=1.0: value * scale,
                  unit="1/s", params={"scale": 1.0}, repeats=3, quick_repeats=1),
        BenchSpec(name="toy_const", fn=lambda: 2.0, unit="1/s",
                  repeats=2, quick_repeats=1),
    ]


def test_run_suite_schema_and_modes():
    report = run_suite(_toy_suite(), quick=False)
    assert report["schema"] == SCHEMA
    assert report["mode"] == "full"
    names = [bench["name"] for bench in report["benchmarks"]]
    assert names == ["toy_rate", "toy_const"]
    # Every bench is a throughput; rows keep the v1 "direction" field.
    assert all(bench["direction"] == "higher" for bench in report["benchmarks"])
    rate = report["benchmarks"][0]
    assert rate["value"] == 100.0
    assert rate["repeats"] == 3 and len(rate["samples"]) == 3
    assert rate["params"] == {"scale": 1.0}

    quick = run_suite(_toy_suite(), quick=True)
    assert quick["mode"] == "quick"
    assert quick["benchmarks"][0]["repeats"] == 1


def test_report_roundtrip_and_schema_check(tmp_path):
    report = run_suite(_toy_suite(), quick=True)
    path = tmp_path / BENCH_FILENAME
    write_report(report, str(path))
    loaded = load_report(str(path))
    assert loaded == report

    bad = dict(report, schema="other/v9")
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_report(str(bad_path))


def test_compare_reports_directions_and_gating():
    baseline = run_suite(_toy_suite(value=100.0), quick=True)
    # toy_rate halves (bad), toy_const unchanged.
    current = run_suite(_toy_suite(value=50.0), quick=True)
    # Pin the calibrations equal: this test is about ratio/gating logic,
    # not cross-machine normalization.
    current["calibration_sends_per_sec"] = baseline["calibration_sends_per_sec"]
    comparisons = compare_reports(current, baseline, tolerance=0.2,
                                  gates=("toy_rate",))
    by_name = {c.name: c for c in comparisons}
    assert by_name["toy_rate"].ratio == pytest.approx(0.5)
    assert by_name["toy_rate"].regressed and by_name["toy_rate"].gated
    assert by_name["toy_const"].ratio == pytest.approx(1.0)
    assert not by_name["toy_const"].regressed
    assert has_gated_regression(comparisons)
    assert "REGRESSED" in format_comparisons(comparisons)

    # Same numbers -> no regression.
    same = compare_reports(baseline, baseline, gates=("toy_rate",))
    assert not has_gated_regression(same)


def test_calibration_normalizes_cross_machine_comparisons():
    """A slower machine (lower calibration) producing proportionally lower
    absolute numbers must not read as a regression."""
    baseline = run_suite(_toy_suite(value=100.0), quick=True)
    baseline["calibration_sends_per_sec"] = 2_000_000.0

    current = run_suite(_toy_suite(value=50.0), quick=True)  # half the speed...
    current["calibration_sends_per_sec"] = 1_000_000.0       # ...on a half-speed box
    # toy_const is a constant 2.0 in both, so on the slower box it reads as
    # a 2x improvement after normalization; the rate bench reads as parity.
    comparisons = compare_reports(current, baseline, tolerance=0.2,
                                  gates=("toy_rate",))
    by_name = {c.name: c for c in comparisons}
    assert by_name["toy_rate"].ratio == pytest.approx(1.0)
    assert not has_gated_regression(comparisons)


def test_reports_carry_machine_calibration():
    report = run_suite(_toy_suite(), quick=True)
    assert report["calibration_sends_per_sec"] > 0


def test_reports_record_the_interpreter():
    from repro.perf import harness

    report = run_suite(_toy_suite(), quick=True)
    interp = report["interpreter"]
    assert interp["implementation"] in ("cpython", "pypy")
    assert interp["version"] == report["python"]
    # On this (CPython) test run the PyPy probe must be off.
    assert harness.IS_PYPY == (interp["implementation"] == "pypy")


def test_pypy_probe_skips_calibration(monkeypatch):
    """Under PyPy the CPython-specific calibration is skipped: reports carry
    null and comparisons degrade to raw (scale-1) ratios."""
    from repro.perf import harness

    monkeypatch.setattr(harness, "IS_PYPY", True)
    assert harness.machine_calibration() is None
    report = run_suite(_toy_suite(value=100.0), quick=True)
    assert report["calibration_sends_per_sec"] is None

    monkeypatch.setattr(harness, "IS_PYPY", False)
    baseline = run_suite(_toy_suite(value=100.0), quick=True)
    assert baseline["calibration_sends_per_sec"] > 0
    # Uncalibrated current vs calibrated baseline: raw ratio, no crash.
    comparisons = compare_reports(report, baseline, gates=("toy_rate",))
    by_name = {c.name: c for c in comparisons}
    assert by_name["toy_rate"].ratio == pytest.approx(1.0)
    assert not has_gated_regression(comparisons)


def test_cli_perf_warns_on_cross_interpreter_comparison(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf
    from repro.perf import harness

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    # Pin the calibration: this test is about the warning, and two measured
    # calibrations can differ by more than the gate's 20% on a busy host.
    monkeypatch.setattr(harness, "machine_calibration", lambda: 1e7)
    baseline_path = tmp_path / "baseline.json"
    assert cli.main(["perf", "--quick", "--out", str(baseline_path)]) == 0
    baseline = json.loads(baseline_path.read_text())
    baseline["interpreter"] = {"implementation": "pypy", "version": "3.10.14"}
    baseline_path.write_text(json.dumps(baseline))
    capsys.readouterr()
    out = tmp_path / "current.json"
    assert cli.main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline_path), "--gate", "toy_rate"]) == 0
    assert "uncalibrated across interpreters" in capsys.readouterr().err


def test_unknown_baseline_benchmarks_are_skipped():
    baseline = run_suite(_toy_suite(), quick=True)
    current = run_suite([BenchSpec(name="brand_new", fn=lambda: 1.0,
                                   unit="x", repeats=1)], quick=True)
    assert compare_reports(current, baseline) == []


# --------------------------------------------------------------------------- #
# The real microbenchmarks (smallest sizes — correctness, not speed)
# --------------------------------------------------------------------------- #
def test_kernel_microbenchmarks_return_positive_rates():
    assert micro.kernel_throughput(iterations=200) > 0
    assert micro.kernel_zero_delay_throughput(iterations=200) > 0
    assert micro.channel_handoff(items=100) > 0
    assert micro.noc_message_throughput(messages=20, width=4, height=4) > 0


def test_power_microbenchmarks_return_positive_rates():
    assert micro.noc_message_throughput(messages=20, power_hooks=True) > 0
    assert micro.energy_sample_rate(samples=200) > 0


def test_default_suite_is_well_formed():
    names = [spec.name for spec in SUITE]
    assert "kernel_events_per_sec" in names
    # The energy-accounting overhead twins ship in the default suite (the
    # hooks-on NoC bench is CI-gated; see docs/power.md).
    assert "noc_messages_per_sec_hooks_on" in names
    assert "energy_samples_per_sec" in names
    assert len(names) == len(set(names))


def test_every_default_gate_is_a_suite_bench():
    names = {spec.name for spec in SUITE}
    assert DEFAULT_GATES
    assert set(DEFAULT_GATES) <= names


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
def test_cli_perf_writes_report_and_gates(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf

    # Substitute a fast suite so the CLI path stays quick under test.
    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    out = tmp_path / "BENCH_kernel.json"
    assert cli.main(["perf", "--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    capsys.readouterr()

    # Gate against a baseline demanding double the throughput -> exit 1.
    inflated = json.loads(out.read_text())
    for bench in inflated["benchmarks"]:
        if bench["name"] == "toy_rate":
            bench["value"] *= 2
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(inflated))
    code = cli.main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline_path), "--gate", "toy_rate"])
    assert code == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out


def test_cli_perf_refuses_to_overwrite_its_own_baseline(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    baseline_path = tmp_path / "BENCH_kernel.json"
    assert cli.main(["perf", "--quick", "--out", str(baseline_path)]) == 0
    before = baseline_path.read_text()
    capsys.readouterr()
    # Same file as --out (explicitly or via the default filename) -> refuse.
    code = cli.main(["perf", "--quick", "--out", str(baseline_path),
                     "--baseline", str(baseline_path)])
    assert code == 2
    assert baseline_path.read_text() == before
    assert "refusing to overwrite" in capsys.readouterr().err


def test_cli_perf_fails_when_gated_benchmark_is_not_comparable(tmp_path, monkeypatch, capsys):
    """A gate that silently vanishes from the comparison must fail the run,
    not pass vacuously."""
    from repro.api import cli
    from repro import perf

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    baseline_path = tmp_path / "baseline.json"
    out = tmp_path / "current.json"
    assert cli.main(["perf", "--quick", "--out", str(baseline_path)]) == 0
    capsys.readouterr()
    code = cli.main(["perf", "--quick", "--out", str(out),
                     "--baseline", str(baseline_path),
                     "--gate", "renamed_bench"])
    assert code == 1
    assert "missing from the comparison" in capsys.readouterr().err
