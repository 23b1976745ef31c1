"""Tests of the benchmark itself, outside the tier-1 suite:

    PYTHONPATH=src python -m pytest bench/tests -q

They run ``bench/run.py --smoke`` (tiny sizes, one repetition) in
subprocesses, as a user would, and check ``compare.py`` on synthetic data.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SERVING = ("serve_steady", "serve_regions_observed", "fleet_chaos")


def run_bench(out: Path, *args: str, cwd: Path = REPO):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--smoke",
         "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    done = run_bench(out, "--seed", "2023")
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), result_lines(done.stdout)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    done = run_bench(tmp / "traced.json", "--seed", "2023", "--trace", "1",
                     "--trace-out", str(tmp / "trace.json"))
    assert done.returncode == 0, done.stderr
    return (json.loads((tmp / "traced.json").read_text()), result_lines(done.stdout),
            tmp / "trace.json")


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in common.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m)[:3] for m in common.PER_LAYER]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_emits_every_end_to_end_metric(smoke):
    report, lines = smoke
    assert set(report["workloads"]) == set(workloads.WORKLOADS)
    assert len(lines) == len(workloads.WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
            metric.name: metric.unit for metric in common.END_TO_END}
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
    for name, workload in report["workloads"].items():
        expected = ({"sim_p50_us", "sim_p999_us", "sim_goodput_krps", "sim_shed_frac"}
                    if name in SERVING else {"sim_paper_err"})
        assert set(workload["sim"]) == expected


def test_traced_smoke_emits_every_layer_metric(traced):
    report, lines, trace_path = traced
    for line in lines:
        assert line["correct"], line
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
            metric.name: metric.unit for metric in common.PER_LAYER}
    # A traced repetition is attempted beside the untraced one, and its
    # digest had to match for ``correct`` to hold.
    assert all(workload["attempted"] == 2 for workload in report["workloads"].values())
    trace = json.loads(trace_path.read_text())
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert {span["name"] for span in spans} >= {"bench.workload", "sim.kernel.run"}


def test_smoke_outputs_repeat_across_invocations(smoke, traced):
    first, second = smoke[0]["workloads"], traced[0]["workloads"]
    for name in workloads.WORKLOADS:
        assert first[name]["digest"] == second[name]["digest"]
        assert first[name]["sim"] == second[name]["sim"]


def test_seeds_change_the_outputs(smoke, tmp_path):
    done = run_bench(tmp_path / "seed7.json", "--seed", "7")
    assert done.returncode == 0, done.stderr
    held_out = json.loads((tmp_path / "seed7.json").read_text())["workloads"]
    for name, workload in smoke[0]["workloads"].items():
        assert held_out[name]["digest"] != workload["digest"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not result_lines(done.stdout)


@pytest.mark.parametrize("a, b, better, bound, label", [
    # Same distribution: unchanged.
    ([1.0, 1.01, 0.99, 1.0], [1.0, 1.0, 1.01, 0.99], "lower", 0.1, "unchanged"),
    # Time up by 20% against a 10% bound: worse.
    ([1.0] * 4, [1.2] * 4, "lower", 0.1, "worse"),
    # Throughput down by 20%: worse.
    ([100.0] * 4, [80.0] * 4, "higher", 0.1, "worse"),
    # Clear gain over ten pairs, every pair won: better.
    ([1.0 + 0.01 * i for i in range(10)], [0.7 + 0.01 * i for i in range(10)],
     "lower", 0.1, "better"),
    # The same gain over three pairs cannot be claimed.
    ([1.0, 1.01, 1.02], [0.7, 0.71, 0.72], "lower", 0.1, "unresolved"),
    # Parent spread wider than the bound: unresolved, not unchanged.
    ([0.6, 1.0, 1.4, 0.8, 1.2], [0.9, 1.3, 0.7, 1.1, 1.0], "lower", 0.1, "unresolved"),
    # Wide parent spread, but every change sample beats every parent one:
    # no regression, and a gain below the spread claims nothing.
    ([1.0, 1.2, 1.4, 1.1], [0.99, 0.95, 0.9, 0.97], "lower", 0.1, "unchanged"),
    # A small change within the bound and the spread: unchanged.
    ([1.0, 1.02, 0.98, 1.01], [1.03, 1.05, 1.01, 1.04], "lower", 0.1, "unchanged"),
])
def test_compare_classifies(a, b, better, bound, label):
    assert compare.classify(a, b, better, bound) == label


def test_compare_checks_simulated_outputs_exactly():
    def record(p50, digest):
        return {"seed": 7, "workloads": {"serve_steady": {
            "samples": {"wall_s": [1.0, 1.0]}, "sim": {"sim_p50_us": p50},
            "digest": digest}}}

    same = compare.compare(compare.pool([record(7.1, "x")]),
                           compare.pool([record(7.1, "x")]))
    assert {row[1]: row[-1] for row in same} == {
        "wall_s": "unchanged", "digest (seed 7)": "unchanged",
        "sim_p50_us (seed 7)": "unchanged"}
    moved = compare.compare(compare.pool([record(7.1, "x")]),
                            compare.pool([record(7.1000001, "y")]))
    assert {row[1]: row[-1] for row in moved}["sim_p50_us (seed 7)"] == "differs"
    assert {row[1]: row[-1] for row in moved}["digest (seed 7)"] == "differs"
