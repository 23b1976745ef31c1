"""Tests for the performance harness (repro.perf), its CLI surface and the
micro-bench gate (tools/perf_compare.py)."""

import json
import os
import sys

import pytest

from repro.perf import (
    DEFAULT_GATES,
    SCHEMA,
    SUITE,
    BenchSpec,
    load_report,
    run_suite,
    write_report,
)
from repro.perf import micro

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import perf_compare  # noqa: E402


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
    path = tmp_path / "report.json"
    write_report(report, str(path))
    loaded = load_report(str(path))
    assert loaded == report

    bad = dict(report, schema="other/v9")
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_report(str(bad_path))


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


def test_pypy_probe_skips_calibration(monkeypatch, tmp_path):
    """Under PyPy the CPython-specific calibration is skipped: reports carry
    null and the micro-bench gate pools their raw samples."""
    from repro.perf import harness

    monkeypatch.setattr(harness, "IS_PYPY", True)
    assert harness.machine_calibration() is None
    report = run_suite(_toy_suite(value=100.0), quick=True)
    assert report["calibration_sends_per_sec"] is None

    path = tmp_path / "pypy.json"
    write_report(report, str(path))
    assert perf_compare.pool(str(path))["toy_rate"]["samples"] == [100.0]


# --------------------------------------------------------------------------- #
# The real microbenchmarks (smallest sizes — correctness, not speed)
# --------------------------------------------------------------------------- #
def test_kernel_microbenchmarks_return_positive_rates():
    assert micro.kernel_throughput(iterations=200) > 0
    assert micro.kernel_zero_delay_throughput(iterations=200) > 0
    assert micro.channel_handoff(items=100) > 0
    assert micro.noc_message_throughput(messages=20, width=4, height=4) > 0


def test_spin_microbenchmark_returns_a_positive_rate():
    assert micro.spin_poll_rate(rounds=2, cores=2, late_cycles=200) > 0


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
def test_cli_perf_writes_the_report(tmp_path, monkeypatch):
    from repro.api import cli
    from repro import perf

    # Substitute a fast suite so the CLI path stays quick under test.
    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    out = tmp_path / "report.json"
    assert cli.main(["perf", "--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert [bench["name"] for bench in report["benchmarks"]] == ["toy_rate", "toy_const"]


def test_cli_perf_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    from repro.api import cli
    from repro import perf

    monkeypatch.setattr(perf, "SUITE", _toy_suite())
    monkeypatch.chdir(tmp_path)
    assert cli.main(["perf", "--quick"]) == 0
    assert cli.main(["perf", "--quick", "--json"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert "toy_rate" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# The micro-bench gate: tools/perf_compare.py on synthetic reports
# --------------------------------------------------------------------------- #
_SPREAD = (1.00, 1.02, 0.98, 1.01, 0.99)


def _bench(name, scale=1.0, params=None):
    return {"name": name, "unit": "1/s", "direction": "higher",
            "samples": [1000.0 * scale * spread for spread in _SPREAD],
            "params": {"size": 8} if params is None else params}


def _gate_side(directory, benches, rounds=3, speed=1e7):
    """``rounds`` report files holding ``benches``, as ``repro perf`` writes
    them on a host whose calibration reads ``speed``."""
    directory.mkdir()
    for round_index in range(rounds):
        report = {"schema": SCHEMA, "calibration_sends_per_sec": speed,
                  "benchmarks": benches}
        (directory / f"round{round_index}.json").write_text(json.dumps(report))
    return str(directory)


def _gate(tmp_path, parent, change, capsys, change_speed=1e7):
    code = perf_compare.main([
        _gate_side(tmp_path / "parent", parent),
        _gate_side(tmp_path / "change", change, speed=change_speed)])
    return code, capsys.readouterr().out


def _labels(out):
    return {line.split()[0]: line.split()[-1] for line in out.splitlines()[1:]}


def test_perf_compare_passes_identical_sides(tmp_path, capsys):
    benches = [_bench(name) for name in DEFAULT_GATES] + [_bench("other")]
    code, out = _gate(tmp_path, benches, benches, capsys)
    assert code == 0
    labels = _labels(out)
    assert all(labels[name] == "unchanged" for name in DEFAULT_GATES)
    assert labels["other"] == "info"
    # Samples pool over every report of a side: 3 files x 5 samples.
    assert "n=15" in out


def test_perf_compare_scales_samples_by_host_speed(tmp_path, capsys):
    """Half the throughput on a host whose calibration reads half as fast
    is the same code: each sample is divided by its report's calibration."""
    parent = [_bench(name) for name in DEFAULT_GATES]
    change = [_bench(name, scale=0.5) for name in DEFAULT_GATES]
    code, out = _gate(tmp_path, parent, change, capsys, change_speed=5e6)
    assert code == 0
    labels = _labels(out)
    assert all(labels[name] == "unchanged" for name in DEFAULT_GATES)
    assert "+0.0%" in out


def test_perf_compare_fails_a_halved_gated_bench(tmp_path, capsys):
    parent = [_bench(name) for name in DEFAULT_GATES]
    change = [_bench(name, scale=0.5 if name == "noc_messages_per_sec" else 1.0)
              for name in DEFAULT_GATES]
    code, out = _gate(tmp_path, parent, change, capsys)
    assert code == 1
    labels = _labels(out)
    assert labels["noc_messages_per_sec"] == "worse"
    assert labels["kernel_events_per_sec"] == "unchanged"
    assert "-50.0%" in out


@pytest.mark.parametrize("change, label", [
    ([_bench(name) for name in DEFAULT_GATES[1:]], "missing on the change side"),
    ([_bench(name, params={"size": 4} if name == DEFAULT_GATES[0] else None)
      for name in DEFAULT_GATES], "params differ"),
], ids=["missing", "resized"])
def test_perf_compare_fails_a_missing_or_resized_gated_bench(tmp_path, capsys,
                                                             change, label):
    """A gate that cannot be compared fails instead of passing vacuously."""
    parent = [_bench(name) for name in DEFAULT_GATES]
    code, out = _gate(tmp_path, parent, change, capsys)
    assert code == 1
    row = next(line for line in out.splitlines()
               if line.startswith(DEFAULT_GATES[0]))
    assert row.endswith(label)


def test_perf_compare_only_informs_on_non_gated_benches(tmp_path, capsys):
    gated = [_bench(name) for name in DEFAULT_GATES]
    parent = gated + [_bench("other"), _bench("retired")]
    change = gated + [_bench("other", scale=0.5), _bench("added")]
    code, out = _gate(tmp_path, parent, change, capsys)
    assert code == 0
    labels = _labels(out)
    assert labels["other"] == labels["retired"] == labels["added"] == "info"


def test_perf_compare_fails_on_empty_report_sets(tmp_path, capsys):
    """No reports at all is not a pass: every gate is missing on both sides."""
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    assert perf_compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert capsys.readouterr().out.count("missing on both sides") == len(DEFAULT_GATES)


def test_perf_compare_rejects_unknown_report_schemas(tmp_path, capsys):
    """A report in another schema is an error, not pooled or a KeyError."""
    parent = _gate_side(tmp_path / "parent", [_bench(name) for name in DEFAULT_GATES])
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "other/v9", "benchmarks": []}))
    assert perf_compare.main([parent, str(bogus)]) == 1
    assert "other/v9" in capsys.readouterr().err
