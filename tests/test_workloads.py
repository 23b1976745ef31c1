"""End-to-end tests of the application workloads and the synthetic studies.

These are the integration tests closest to the paper's evaluation: each one
runs a (scaled-down) benchmark on at least two of the three systems and
checks functional correctness plus the headline performance relationship.
"""

import dataclasses
import json
import os

import pytest

from repro.api import Runner
from repro.api.registry import fig12_row
from repro.core.exceptions import DuetError, ErrorCode, ExceptionHandler
from repro.fpga.synthesis import SynthesisModel
from repro.platform import SystemKind
from repro.workloads import (
    APPLICATION_CONFIGS, bfs, dijkstra, pdes, popcount, sort, tangent)
from repro.workloads.common import WorkloadParams
from repro.workloads.synthetic import measure_bandwidth, measure_latency
from tests.conftest import QUICK_FIG12_LABELS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# --------------------------------------------------------------------------- #
# Fine-grained acceleration benchmarks
# --------------------------------------------------------------------------- #
def test_tangent_correct_and_duet_faster_than_cpu():
    cpu = tangent.run(SystemKind.CPU_ONLY, WorkloadParams(1, 0), calls=16)
    duet = tangent.run(SystemKind.DUET, WorkloadParams(1, 0), calls=16)
    assert cpu.correct and duet.correct
    assert duet.speedup_over(cpu) > 1.0


def test_popcount_correct_on_all_three_systems():
    results = {
        kind: popcount.run(kind, WorkloadParams(1, 1), vectors=8)
        for kind in (SystemKind.CPU_ONLY, SystemKind.FPSOC, SystemKind.DUET)
    }
    checksums = {result.checksum for result in results.values()}
    assert len(checksums) == 1
    assert all(result.correct for result in results.values())
    assert results[SystemKind.DUET].runtime_ns < results[SystemKind.FPSOC].runtime_ns


def test_sort_accelerated_produces_sorted_output_and_beats_fpsoc():
    duet = sort.run(SystemKind.DUET, WorkloadParams(1, 2), total_elements=128, slice_size=32)
    fpsoc = sort.run(SystemKind.FPSOC, WorkloadParams(1, 2), total_elements=128, slice_size=32)
    assert duet.correct and fpsoc.correct
    assert duet.runtime_ns < fpsoc.runtime_ns


def test_dijkstra_distances_match_reference():
    duet = dijkstra.run(SystemKind.DUET, WorkloadParams(1, 1), vertices=24, degree=4)
    cpu = dijkstra.run(SystemKind.CPU_ONLY, WorkloadParams(1, 1), vertices=24, degree=4)
    assert duet.correct and cpu.correct
    assert duet.checksum == cpu.checksum


# --------------------------------------------------------------------------- #
# Hardware-augmentation benchmarks
# --------------------------------------------------------------------------- #
def test_pdes_processes_all_events_on_both_systems():
    cpu = pdes.run(SystemKind.CPU_ONLY, WorkloadParams(2, 1), gates=12, max_events=40)
    duet = pdes.run(SystemKind.DUET, WorkloadParams(2, 1), gates=12, max_events=40)
    assert cpu.correct and duet.correct
    assert duet.runtime_ns < cpu.runtime_ns


def test_run_leaves_the_callers_params_unchanged():
    params = WorkloadParams(4, 1)
    assert bfs.run(SystemKind.DUET, params, vertices=48, degree=3).correct
    assert params == WorkloadParams(4, 1)
    # Sort's network reads through one hub and writes through another.
    params = WorkloadParams(1, 1)
    with pytest.raises(DuetError, match="needs 2 memory hubs"):
        sort.run(SystemKind.DUET, params, total_elements=64, slice_size=32)
    assert params == WorkloadParams(1, 1)


def test_bfs_levels_match_reference_and_duet_beats_cpu():
    cpu = bfs.run(SystemKind.CPU_ONLY, WorkloadParams(4, 0), vertices=48, degree=3)
    duet = bfs.run(SystemKind.DUET, WorkloadParams(4, 0), vertices=48, degree=3)
    assert cpu.correct and duet.correct
    assert duet.checksum == cpu.checksum
    assert duet.runtime_ns < cpu.runtime_ns


# --------------------------------------------------------------------------- #
# Synthetic communication studies (Sec. V-C)
# --------------------------------------------------------------------------- #
def test_latency_shadow_beats_normal_and_proxy_is_frequency_insensitive():
    shadow = measure_latency("shadow_reg", 100.0)
    normal = measure_latency("normal_reg", 100.0)
    assert shadow.roundtrip_ns < normal.roundtrip_ns
    proxy_slow_clock = measure_latency("cpu_pull_proxy", 50.0)
    proxy_fast_clock = measure_latency("cpu_pull_proxy", 500.0)
    # The Proxy Cache keeps the eFPGA off the critical path: CPU-pull latency
    # barely moves across a 10x eFPGA clock change.
    assert abs(proxy_slow_clock.roundtrip_ns - proxy_fast_clock.roundtrip_ns) < 25.0


def test_latency_slow_cache_penalized_at_low_frequency():
    slow = measure_latency("cpu_pull_slow", 50.0)
    proxy = measure_latency("cpu_pull_proxy", 50.0)
    assert slow.roundtrip_ns > proxy.roundtrip_ns


def test_bandwidth_proxy_beats_slow_cache_for_efpga_pull():
    proxy = measure_bandwidth("efpga_pull_proxy", 100.0, quad_words=32)
    slow = measure_bandwidth("efpga_pull_slow", 100.0, quad_words=32)
    assert proxy.mbytes_per_s > slow.mbytes_per_s
    assert proxy.bytes_moved == 32 * 8


def test_fig10_bandwidth_laws():
    """Fig. 10's shape at a reduced size: two eFPGA clocks, 64 quad-words."""
    frequencies = (100.0, 500.0)
    rows = Runner().run("fig10", fpga_mhz=frequencies, quad_words=64).to_dicts()
    mbs = {(row["mechanism"], row["fpga_mhz"]): row["measured_mbytes_per_s"]
           for row in rows}
    # The Proxy Cache delivers the highest bandwidth of all mechanisms.
    assert max(mbs.values()) == max(mbs[("efpga_pull_proxy", freq)]
                                    for freq in frequencies)
    # eFPGA pull outruns CPU pull, which the 8-byte store port limits.
    assert mbs[("efpga_pull_proxy", 500.0)] > mbs[("cpu_pull_proxy", 500.0)]
    for freq in frequencies:
        assert mbs[("shadow_reg", freq)] > mbs[("normal_reg", freq)], freq
        assert mbs[("efpga_pull_proxy", freq)] > mbs[("efpga_pull_slow", freq)], freq


def test_fig11_register_scalability_laws():
    """Fig. 11's shape at a reduced size: 1-4 processors, 16 accesses each."""
    counts = (1, 2, 4)
    rows = Runner().run("fig11", num_processors=counts,
                        accesses_per_processor=16).to_dicts()
    mbs = {(row["mechanism"], row["operation"], row["num_processors"]):
           row["per_processor_mbytes_per_s"] for row in rows}
    # Shadow registers sustain more per-processor bandwidth than normal
    # registers at every processor count...
    for operation in ("read", "write"):
        for count in counts:
            assert (mbs[("shadow_reg", operation, count)]
                    > mbs[("normal_reg", operation, count)]), (operation, count)
    # ...and lose no more of it than normal registers as contention grows.
    shadow_drop = mbs[("shadow_reg", "write", 1)] / mbs[("shadow_reg", "write", 2)]
    normal_drop = mbs[("normal_reg", "write", 1)] / mbs[("normal_reg", "write", 2)]
    assert shadow_drop <= normal_drop * 1.5


# A blocking read of the accelerator's result FIFO gives up after the
# adapter's exception timeout (20,000 system cycles, 20 us), which a long
# transfer against a slow eFPGA clock exceeds.  These tests pin that defect
# until the model calibration fixes it; the fix moves fig10's outputs.
@pytest.mark.xfail(raises=DuetError, strict=True,
                   reason="the exception timeout deactivates the memory hubs "
                          "mid-transfer; the default 512 quad-words fails at "
                          "50 MHz too")
def test_cpu_pull_proxy_completes_256_quad_words_at_20_mhz():
    result = measure_bandwidth("cpu_pull_proxy", 20.0, quad_words=256)
    assert result.bytes_moved == 256 * 8


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the cell latches an adapter TIMEOUT and still "
                          "reports a bandwidth")
@pytest.mark.parametrize("mechanism, fpga_mhz", [
    ("cpu_pull_slow", 20.0), ("cpu_pull_slow", 50.0), ("efpga_pull_slow", 20.0),
])
def test_fig10_default_cells_latch_no_adapter_timeout(monkeypatch, mechanism,
                                                      fpga_mhz):
    latched = []
    raise_error = ExceptionHandler.raise_error

    def spy(handler, code):
        latched.append(code)
        raise_error(handler, code)

    monkeypatch.setattr(ExceptionHandler, "raise_error", spy)
    measure_bandwidth(mechanism, fpga_mhz, quad_words=128)
    assert ErrorCode.TIMEOUT not in latched


def test_result_accounting_speedup_and_adp_helpers():
    cpu = tangent.run(SystemKind.CPU_ONLY, WorkloadParams(1, 0), calls=8)
    duet = tangent.run(SystemKind.DUET, WorkloadParams(1, 0), calls=8)
    assert duet.chip_area_mm2 > cpu.chip_area_mm2
    assert duet.adp() == pytest.approx(duet.chip_area_mm2 * duet.runtime_ns)
    assert duet.normalized_adp(cpu) > 0.0


# --------------------------------------------------------------------------- #
# Fig. 12: application speedups
# --------------------------------------------------------------------------- #
def test_fig12_duet_beats_fpsoc_on_every_quick_application(quick_fig12):
    rows = quick_fig12.rows
    assert [row["benchmark"] for row in rows] == list(QUICK_FIG12_LABELS)
    for row in rows:
        assert row["all_correct"], row["benchmark"]
        assert row["duet_speedup"] > row["fpsoc_speedup"], row["benchmark"]
    summary = quick_fig12.summary
    assert summary["duet_geomean_speedup"] > summary["fpsoc_geomean_speedup"]
    assert summary["duet_geomean_speedup"] > 1.0


def test_fig12_quick_rows_and_summary_match_golden_file(quick_fig12):
    """Every Fig. 12 number of the quick applications, pinned exactly.

    Re-record only after an intentional output change, with::

        PYTHONPATH=src python -c "
        import json, sys; sys.path.insert(0, '.')
        from repro.api import Runner; from tests.conftest import QUICK_FIG12_LABELS
        rs = Runner().run('fig12', benchmark=QUICK_FIG12_LABELS)
        json.dump({'rows': rs.to_dicts(), 'summary': rs.summary},
                  open('tests/data/fig12_quick_golden.json', 'w'), indent=1, sort_keys=True)"
    """
    with open(os.path.join(DATA_DIR, "fig12_quick_golden.json")) as handle:
        golden = json.load(handle)
    measured = {"rows": quick_fig12.to_dicts(), "summary": quick_fig12.summary}
    assert json.loads(json.dumps(measured, sort_keys=True)) == golden


@pytest.mark.parametrize("label, fmax_mhz", [("sort/64", 234.0),
                                             ("sort/128", 228.0)])
def test_fig12_sorts_are_correct_at_the_paper_table_ii_clock(
        monkeypatch, label, fmax_mhz):
    """At the paper's Table II Fmax the sorting accelerator issues misses
    fast enough to queue two misses to one line behind full MSHRs; the
    private cache must join them into one ``GetM``, and every system must
    still sort correctly."""
    implement = SynthesisModel.implement

    def at_paper_clock(model, design, fabric=None):
        return dataclasses.replace(implement(model, design, fabric),
                                   fmax_mhz=fmax_mhz)

    monkeypatch.setattr(SynthesisModel, "implement", at_paper_clock)
    row = fig12_row(APPLICATION_CONFIGS[label])
    assert row["all_correct"], row
