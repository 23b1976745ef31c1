"""Tests for the unified experiment API (registry, runner, results, CLI)."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys

import pytest

from repro.api import (
    ExperimentSpec,
    Runner,
    ResultSet,
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.workloads import APPLICATION_CONFIGS
from repro.workloads.synthetic import (
    LATENCY_MECHANISMS,
    measure_bandwidth,
    measure_latency,
)

PAPER_EXPERIMENTS = ("table1", "table2", "fig9", "fig10", "fig11", "fig12")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_cli_env(), cwd=REPO_ROOT, timeout=300,
    )


# --------------------------------------------------------------------------- #
# Registry discovery
# --------------------------------------------------------------------------- #
def test_registry_discovers_all_paper_experiments():
    names = [spec.name for spec in list_experiments()]
    for name in PAPER_EXPERIMENTS:
        assert name in names


def test_registry_lookup_and_tags():
    assert get_experiment("fig9").name == "fig9"
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig13")
    paper = {spec.name for spec in list_experiments(tag="paper")}
    assert paper == set(PAPER_EXPERIMENTS)
    # Fig. 12 is the one application experiment: a cell per configuration.
    assert [spec.name for spec in list_experiments(tag="application")] == ["fig12"]
    assert get_experiment("fig12").num_cells() == len(APPLICATION_CONFIGS)


def test_register_experiment_rejects_duplicates():
    spec = get_experiment("fig9")
    with pytest.raises(ValueError, match="already registered"):
        register_experiment(spec)


def test_spec_cells_enumeration_and_overrides():
    spec = get_experiment("fig9")
    cells = spec.cells()
    assert len(cells) == 18  # 6 mechanisms x 3 frequencies
    assert cells[0]["mechanism"] == "shadow_reg"
    assert {"mechanism", "fpga_mhz", "seed"} == set(cells[0])
    # Axis overrides accept scalars and iterables; unknown names fail fast.
    assert len(spec.cells({"fpga_mhz": 100.0})) == 6
    assert len(spec.cells({"mechanism": ("shadow_reg",), "fpga_mhz": (100.0,)})) == 1
    with pytest.raises(ValueError, match="no parameters"):
        spec.cells({"frequency": 100.0})


def test_fixed_override_with_multiple_values_becomes_an_axis():
    spec = get_experiment("fig10")
    cells = spec.cells({"mechanism": "shadow_reg", "fpga_mhz": 100.0,
                        "quad_words": [16, 32]})
    assert len(cells) == 2
    assert [cell["quad_words"] for cell in cells] == [16, 32]
    results = Runner().run("fig10", mechanism="shadow_reg", fpga_mhz=100.0,
                           quad_words=[16, 32])
    assert len(results) == 2
    assert results[0].measured_mbytes_per_s != results[1].measured_mbytes_per_s


# --------------------------------------------------------------------------- #
# Runner: serial, parallel, caching
# --------------------------------------------------------------------------- #
def test_serial_run_matches_direct_measurement():
    results = Runner().run("fig9", mechanism="shadow_reg", fpga_mhz=100.0)
    assert len(results) == 1
    direct = measure_latency("shadow_reg", 100.0)
    assert results[0].measured_roundtrip_ns == direct.roundtrip_ns
    assert results[0].paper_roundtrip_ns == 42


def test_parallel_runner_matches_serial_fig12(quick_fig12):
    labels = ("tangent", "popcount", "dijkstra")
    serial_rows = [row for row in quick_fig12.rows if row["benchmark"] in labels]
    parallel = Runner(executor="process", workers=4).run("fig12", benchmark=labels)
    assert parallel.rows == serial_rows
    assert parallel.summary == get_experiment("fig12").summarize(serial_rows)
    assert parallel.stats.executor == "process"


def test_runner_reuses_one_pool_across_runs():
    """The process pool is created lazily, survives across run() calls, and
    dies with close() — worker forks are paid once per Runner, not per run."""
    with Runner(executor="process", workers=2) as runner:
        assert runner._pool is None  # lazy: no workers until a run needs them
        first = runner.run("fig9", mechanism=("shadow_reg",), fpga_mhz=(100.0,))
        pool = runner._pool
        assert pool is not None and runner._pool_workers == 2
        second = runner.run("fig9", mechanism=("normal_reg",), fpga_mhz=(100.0,))
        assert runner._pool is pool  # same pool, no re-fork
        assert first.stats.workers == second.stats.workers == 2
    assert runner._pool is None  # context exit tears the workers down


def test_serial_runner_close_is_a_noop():
    runner = Runner()
    runner.run("fig9", mechanism=("shadow_reg",), fpga_mhz=(100.0,))
    runner.close()  # nothing to shut down; must not raise


def test_cache_hits_on_second_run(tmp_path):
    cache_dir = str(tmp_path / "cache")
    runner = Runner(cache_dir=cache_dir)
    overrides = {"mechanism": ("shadow_reg", "normal_reg"), "fpga_mhz": (100.0,)}
    first = runner.run("fig9", **overrides)
    assert first.stats.cache_misses == 2
    assert first.stats.cache_hits == 0
    assert len(os.listdir(os.path.join(cache_dir, "fig9"))) == 2
    second = runner.run("fig9", **overrides)
    assert second.stats.cache_hits == 2
    assert second.stats.cache_misses == 0
    assert second.rows == first.rows
    # use_cache=False bypasses the cache without deleting it.
    bypass = runner.run("fig9", use_cache=False, **overrides)
    assert bypass.stats.cache_hits == 0
    assert bypass.rows == first.rows


def test_cache_key_distinguishes_params(tmp_path):
    runner = Runner(cache_dir=str(tmp_path))
    first = runner.run("fig9", mechanism="shadow_reg", fpga_mhz=100.0)
    other = runner.run("fig9", mechanism="shadow_reg", fpga_mhz=500.0)
    assert first.stats.cache_misses == 1
    assert other.stats.cache_hits == 0  # different frequency, different key
    assert len(os.listdir(tmp_path / "fig9")) == 2


def test_cache_misses_after_a_source_change(tmp_path, monkeypatch):
    from repro.api import runner as runner_module

    overrides = {"mechanism": "shadow_reg", "fpga_mhz": 100.0}
    first = Runner(cache_dir=str(tmp_path)).run("fig9", **overrides)
    assert first.stats.cache_misses == 1
    same = Runner(cache_dir=str(tmp_path)).run("fig9", **overrides)
    assert same.stats.cache_hits == 1
    monkeypatch.setattr(runner_module, "source_digest", lambda: "edited-model")
    edited = Runner(cache_dir=str(tmp_path)).run("fig9", **overrides)
    assert edited.stats.cache_hits == 0
    assert edited.stats.cache_misses == 1
    assert edited.rows == first.rows


def test_runner_rejects_bad_configuration():
    with pytest.raises(ValueError, match="executor"):
        Runner(executor="threads")
    with pytest.raises(ValueError, match="workers"):
        Runner(workers=0)


def test_ad_hoc_spec_runs_without_registry():
    spec = ExperimentSpec(name="square", cell=_square_cell, grid={"x": (1, 2, 3)})
    results = Runner().run(spec)
    assert [row.y for row in results] == [1, 4, 9]


def _square_cell(x):
    return [{"x": x, "y": x * x}]


# --------------------------------------------------------------------------- #
# Determinism / seed plumbing
# --------------------------------------------------------------------------- #
def test_same_seed_is_bit_identical():
    first = measure_bandwidth("shadow_reg", 100.0, quad_words=16, seed=7)
    second = measure_bandwidth("shadow_reg", 100.0, quad_words=16, seed=7)
    assert first.elapsed_ns == second.elapsed_ns
    assert first.mbytes_per_s == second.mbytes_per_s

    runner_a = Runner(seed=7)
    runner_b = Runner(seed=7)
    overrides = {"mechanism": ("shadow_reg",), "fpga_mhz": (100.0,), "quad_words": 16}
    rows_a = runner_a.run("fig10", **overrides).to_dicts()
    rows_b = runner_b.run("fig10", **overrides).to_dicts()
    assert rows_a == rows_b
    assert rows_a[0]["measured_mbytes_per_s"] > 0


def test_seed_reaches_the_cells():
    results = Runner(seed=11).run("fig10", mechanism="shadow_reg",
                                  fpga_mhz=100.0, quad_words=16)
    direct = measure_bandwidth("shadow_reg", 100.0, quad_words=16, seed=11)
    assert results[0].measured_mbytes_per_s == direct.mbytes_per_s


# --------------------------------------------------------------------------- #
# ResultSet model
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fig9_results():
    return Runner().run("fig9", fpga_mhz=(100.0,))


def test_resultset_json_roundtrip(fig9_results):
    clone = ResultSet.from_json(fig9_results.to_json())
    assert clone == fig9_results
    assert clone.columns == fig9_results.columns


def test_resultset_json_file_roundtrip(fig9_results, tmp_path):
    path = str(tmp_path / "fig9.json")
    fig9_results.to_json(path)
    assert ResultSet.load(path) == fig9_results


def test_resultset_csv_roundtrip(fig9_results, tmp_path):
    text = fig9_results.to_csv(str(tmp_path / "fig9.csv"))
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == fig9_results.columns
    assert len(parsed) == len(fig9_results) + 1
    assert parsed[1][0] == fig9_results[0].mechanism
    assert float(parsed[1][2]) == fig9_results[0].measured_roundtrip_ns
    assert (tmp_path / "fig9.csv").read_text() == text


def test_resultset_filter_group_pivot(fig9_results):
    shadow = fig9_results.filter(mechanism="shadow_reg")
    assert len(shadow) == 1 and shadow[0].mechanism == "shadow_reg"
    fast = fig9_results.filter(lambda row: row.measured_roundtrip_ns < 100)
    assert all(row.measured_roundtrip_ns < 100 for row in fast)
    headers, rows = fig9_results.pivot("mechanism", "fpga_mhz", "measured_roundtrip_ns")
    assert headers == ["mechanism", "100.0"]
    assert len(rows) == 6 and all(len(row) == 2 for row in rows)


def test_resultset_deviations(fig9_results):
    records = fig9_results.deviations()
    assert records, "fig9 carries paper_roundtrip_ns columns"
    for record in records:
        assert record["metric"] == "roundtrip_ns"
        assert record["ratio"] == pytest.approx(record["measured"] / record["paper"])
    assert "paper vs measured" in fig9_results.deviation_table()


def test_resultset_percentile_nearest_rank():
    results = ResultSet("t", [{"x": value} for value in (5, 1, 4, 2, 3)])
    assert results.percentile("x", 0.0) == 1
    assert results.percentile("x", 0.5) == 3
    assert results.percentile("x", 0.99) == 5
    assert results.percentile("x", 1.0) == 5
    # Agrees with the in-sim Histogram convention.
    from repro.sim.stats import Histogram

    histogram = Histogram("x", samples=[5, 1, 4, 2, 3])
    for q in (0.25, 0.5, 0.9, 0.95):
        assert results.percentile("x", q) == histogram.percentile(q)


def test_resultset_percentile_handles_ragged_and_empty_columns():
    results = ResultSet("t", [
        {"x": 10.0, "label": "a"},
        {"label": "b"},                      # column missing entirely
        {"x": None, "label": "c"},           # null value
        {"x": "n/a", "label": "d"},          # non-numeric
        {"x": True, "label": "e"},           # booleans are not measurements
        {"x": 30.0, "label": "f"},
    ])
    assert results.percentile("x", 0.5) == 10.0
    assert results.percentile("x", 1.0) == 30.0
    # No numeric value at all -> None, distinguishable from a measured 0.
    assert results.percentile("label", 0.5) is None
    assert ResultSet("t", []).percentile("x", 0.5) is None
    # The range check lives in nearest_rank, so histograms refuse too.
    from repro.sim.stats import Histogram

    for bad in (1.5, -0.1):
        for read in (lambda q: results.percentile("x", q),
                     lambda q: ResultSet("t", []).percentile("x", q),
                     Histogram("x", samples=[10.0, 30.0]).percentile,
                     Histogram("empty").percentile):
            with pytest.raises(ValueError, match=f"fraction .* got {bad}"):
                read(bad)


def test_resultset_percentile_on_serve_rows():
    """The helper exists so serve reports don't hand-roll p99 math."""
    from repro.serve.experiments import serve_policy_cell

    rows = serve_policy_cell("affinity", 250.0, "duo", duration_us=1_000.0)
    results = ResultSet("serve_policy", rows)
    p99 = results.percentile("p99_latency_us", 0.99)
    assert p99 is not None and p99 > 0
    assert results.percentile("p99_latency_us", 0.0) <= p99


def test_resultset_to_table_uses_format_table(fig9_results):
    text = fig9_results.to_table(columns=["mechanism", "measured_roundtrip_ns"],
                                 headers=["Mechanism", "ns"], title="Latency")
    lines = text.splitlines()
    assert lines[0] == "Latency"
    assert "shadow_reg" in text


# --------------------------------------------------------------------------- #
# CLI (subprocess smoke tests)
# --------------------------------------------------------------------------- #
def test_cli_list_shows_all_paper_experiments():
    proc = _cli("list")
    assert proc.returncode == 0, proc.stderr
    for name in PAPER_EXPERIMENTS:
        assert name in proc.stdout
    proc_json = _cli("list", "--json")
    names = [entry["name"] for entry in json.loads(proc_json.stdout)]
    assert set(PAPER_EXPERIMENTS) <= set(names)


def test_cli_run_fig9_json_matches_runner():
    proc = _cli("run", "fig9", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["experiment"] == "fig9"
    assert payload["rows"] == Runner().run(
        "fig9", mechanism=LATENCY_MECHANISMS,
        fpga_mhz=(100.0, 200.0, 500.0)).to_dicts()


def test_cli_run_unknown_experiment_fails_cleanly():
    proc = _cli("run", "fig13")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_cli_bad_parameter_type_exits_2_with_one_line():
    expected = ["error: parameter 'regions' of experiment 'reconfig' expects int, got 'abc'"]
    run = _cli("run", "reconfig", "-p", "regions=abc", "-p", "policy=fcfs",
               "-p", "tenant_mix=duo", "-p", "fabric_scale=1.0")
    trace = _cli("trace", "reconfig", "-p", "regions=abc")
    for proc in (run, trace):
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == expected


def test_spec_checks_override_types_against_defaults_and_grid():
    fig9 = get_experiment("fig9")
    assert fig9.num_cells({"fpga_mhz": 100, "mechanism": "shadow_reg"}) == 1
    with pytest.raises(ValueError, match="'fpga_mhz' of experiment 'fig9' expects float"):
        fig9.cells({"fpga_mhz": "fast"})
    reconfig = get_experiment("reconfig")
    for bad in (True, 2.0, [2, "4"]):
        with pytest.raises(ValueError, match="'regions' .* expects int"):
            reconfig.cells({"regions": bad})
    with pytest.raises(ValueError, match="'duration_us' .* expects float"):
        reconfig.cells({"duration_us": [400.0, "long"]})


def test_every_cell_keyword_is_a_spec_parameter():
    """A keyword a cell takes but its spec does not name cannot be set
    from ``repro run``/``repro trace`` (``**kwargs`` and ``tracer`` aside)."""
    for spec in list_experiments():
        keywords = {name for name, parameter in inspect.signature(spec.cell).parameters.items()
                    if parameter.kind is not parameter.VAR_KEYWORD and name != "tracer"}
        assert keywords <= set(spec.parameters), spec.name


def test_cli_workers_alone_implies_process_executor():
    from repro.api.cli import _make_runner, build_parser

    parser = build_parser()
    implied = _make_runner(parser.parse_args(
        ["run", "fig9", "--workers", "2"]))
    assert implied.executor == "process" and implied.workers == 2
    explicit = _make_runner(parser.parse_args(
        ["run", "fig9", "--executor", "serial"]))
    assert explicit.executor == "serial"
    # End to end: the implied process run produces the serial rows.
    serial = _cli("run", "fig9", "--json",
                  "-p", "mechanism=shadow_reg", "-p", "fpga_mhz=100")
    proc = _cli("run", "fig9", "--json", "--workers", "2",
                "-p", "mechanism=shadow_reg", "-p", "fpga_mhz=100")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rows"] == json.loads(serial.stdout)["rows"]
