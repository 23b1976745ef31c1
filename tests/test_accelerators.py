"""Unit tests for the accelerator kernels (algorithmic pieces, no full system)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.barnes_hut import decode_request, encode_request, from_fixed, to_fixed
from repro.accel.dijkstra import pack_edge, unpack_edge
from repro.accel.pdes_scheduler import decode_event, encode_event
from repro.accel.sortnet import (
    SortingNetworkAccelerator,
    pack_elements,
    sorting_network_stages,
    unpack_words,
)
from repro.accel.tangent import from_fixed as tan_from_fixed
from repro.accel.tangent import piecewise_linear_tangent, to_fixed as tan_to_fixed
from repro.api import Runner


# --------------------------------------------------------------------------- #
# Tangent approximation
# --------------------------------------------------------------------------- #
@given(st.floats(min_value=-1.45, max_value=1.45))
@settings(max_examples=200)
def test_piecewise_tangent_error_bound(angle):
    exact = math.tan(angle)
    if abs(exact) < 1e-2:
        return
    approx = piecewise_linear_tangent(angle)
    assert abs(approx - exact) / abs(exact) < 0.01


def test_tangent_fixed_point_roundtrip():
    for value in (-3.5, 0.0, 0.125, 123.456):
        assert tan_from_fixed(tan_to_fixed(value)) == pytest.approx(value, abs=1e-5)


# --------------------------------------------------------------------------- #
# Encodings
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=2**20),
       st.integers(min_value=0, max_value=2**20))
def test_barnes_hut_request_encoding_roundtrip(thread, target, particle):
    assert decode_request(encode_request(thread, target, particle)) == (thread, target, particle)


def test_barnes_hut_fixed_point_handles_negative_values():
    assert from_fixed(to_fixed(-2.5)) == pytest.approx(-2.5, abs=1e-4)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**20))
def test_dijkstra_edge_packing_roundtrip(dst, weight):
    assert unpack_edge(pack_edge(dst, weight)) == (dst, weight)


@given(st.integers(min_value=0, max_value=2**27), st.integers(min_value=0, max_value=2**31))
def test_pdes_event_encoding_roundtrip(timestamp, payload):
    assert decode_event(encode_event(timestamp, payload)) == (timestamp, payload)


# --------------------------------------------------------------------------- #
# Sorting-network helpers
# --------------------------------------------------------------------------- #
def test_sorting_network_stage_counts():
    assert sorting_network_stages(32) == 15
    assert sorting_network_stages(64) == 21
    assert sorting_network_stages(128) == 28


@given(st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=2, max_size=64))
def test_pack_unpack_elements_roundtrip(elements):
    if len(elements) % 2:
        elements = elements[:-1]
    assert unpack_words(pack_elements(elements), len(elements)) == elements


def test_sorting_network_supported_sizes_only():
    with pytest.raises(ValueError):
        SortingNetworkAccelerator(48)
    for size in (32, 64, 128):
        assert SortingNetworkAccelerator(size).design.mem_ports == 2


# --------------------------------------------------------------------------- #
# Tables I / II runners
# --------------------------------------------------------------------------- #
def test_table1_rows_match_paper_constants():
    rows = Runner().run("table1").to_dicts()
    by_name = {row["component"]: row for row in rows}
    assert by_name["Ariane"]["scaled_area_mm2"] == pytest.approx(1.56)
    assert by_name["P-Mesh Socket"]["scaled_freq_mhz"] == pytest.approx(711.0)
    # The Duet Adapter's hard logic is small next to one core plus its
    # socket: the Sec. V-B "negligible hardware overhead" claim.
    core_and_socket = (by_name["Ariane"]["scaled_area_mm2"]
                       + by_name["P-Mesh Socket"]["scaled_area_mm2"])
    adapter = by_name["Duet Adapter overhead vs 1 core (P1M1)"]
    assert adapter["area_mm2"] < core_and_socket


def test_table2_covers_all_seven_benchmarks_with_sane_values():
    rows = Runner().run("table2").to_dicts()
    names = {row["benchmark"] for row in rows}
    assert {"tangent", "popcount", "sort32", "sort64", "sort128",
            "dijkstra", "barnes-hut", "bfs", "pdes"} <= names
    for row in rows:
        # All accelerators run at 5%-50% of the 1 GHz system clock, like the
        # paper's 8%-28% range.
        assert 50.0 <= row["measured_fmax_mhz"] <= 500.0
        assert 0.0 < row["measured_clb_util"] <= 1.0
        assert 0.0 <= row["measured_bram_util"] <= 1.0
        assert row["measured_norm_area"] > 0.0
    area = {row["benchmark"]: row["measured_norm_area"] for row in rows}
    # The sorting networks grow with their size, and Barnes-Hut is the
    # largest design.
    assert area["sort32"] < area["sort64"] < area["sort128"]
    assert area["barnes-hut"] == max(area.values())
