"""Unit and property tests for the NoC substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc import Mesh2D, NocNetwork, MessagePlane, NocMessage
from repro.sim import ClockDomain, Delay, Simulator


# --------------------------------------------------------------------------- #
# Topology
# --------------------------------------------------------------------------- #
def test_mesh_coordinates_roundtrip():
    mesh = Mesh2D(4, 3)
    for node in range(mesh.node_count):
        x, y = mesh.coordinates(node)
        assert mesh.node_at(x, y) == node


def test_mesh_hop_count_is_manhattan_distance():
    mesh = Mesh2D(4, 4)
    assert mesh.hop_count(0, 0) == 0
    assert mesh.hop_count(0, 3) == 3
    assert mesh.hop_count(0, 15) == 6


def test_mesh_route_is_xy_ordered():
    mesh = Mesh2D(3, 3)
    route = mesh.route(0, 8)  # (0,0) -> (2,2)
    assert route == ((0, 1), (1, 2), (2, 5), (5, 8))


def test_mesh_route_empty_for_same_node():
    mesh = Mesh2D(2, 2)
    assert mesh.route(3, 3) == ()


def test_mesh_rejects_bad_nodes_and_dims():
    with pytest.raises(ValueError):
        Mesh2D(0, 3)
    mesh = Mesh2D(2, 2)
    with pytest.raises(ValueError):
        mesh.coordinates(4)
    with pytest.raises(ValueError):
        mesh.node_at(2, 0)


@given(
    width=st.integers(min_value=1, max_value=6),
    height=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_route_length_matches_hop_count(width, height, data):
    mesh = Mesh2D(width, height)
    src = data.draw(st.integers(min_value=0, max_value=mesh.node_count - 1))
    dst = data.draw(st.integers(min_value=0, max_value=mesh.node_count - 1))
    route = mesh.route(src, dst)
    assert len(route) == mesh.hop_count(src, dst)
    # Route is contiguous and ends at dst.
    current = src
    for a, b in route:
        assert a == current
        assert mesh.hop_count(a, b) == 1
        current = b
    assert current == dst


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #
def test_message_flit_count():
    header_only = NocMessage(src=0, dst=1, kind="req", size_bytes=0)
    assert header_only.flits == 1
    line = NocMessage(src=0, dst=1, kind="data", size_bytes=16)
    assert line.flits == 3
    partial = NocMessage(src=0, dst=1, kind="data", size_bytes=9)
    assert partial.flits == 3


def test_message_ids_are_unique():
    a = NocMessage(src=0, dst=1, kind="x")
    b = NocMessage(src=0, dst=1, kind="x")
    assert a.msg_id != b.msg_id


def test_message_stamp_first_occurrence_wins():
    msg = NocMessage(src=0, dst=1, kind="x")
    msg.stamp("injected", 5.0)
    msg.stamp("injected", 9.0)
    assert msg.timestamps["injected"] == 5.0


# --------------------------------------------------------------------------- #
# Network
# --------------------------------------------------------------------------- #
def _build_network(width=2, height=2, freq=1000.0):
    sim = Simulator()
    clk = ClockDomain(sim, freq, "sys")
    network = NocNetwork(sim, clk, width, height)
    return sim, clk, network


def test_network_delivers_to_handler():
    sim, _, network = _build_network()
    received = []
    network.attach(3, received.append)
    network.attach(0, lambda m: None)
    msg = NocMessage(src=0, dst=3, kind="ping")
    done = network.send(msg)
    sim.run()
    assert received == [msg]
    assert done.triggered
    assert msg.timestamps["delivered"] > msg.timestamps["injected"]


def test_network_requires_attached_destination():
    sim, _, network = _build_network()
    network.attach(0, lambda m: None)
    with pytest.raises(ValueError):
        network.send(NocMessage(src=0, dst=1, kind="ping"))


def test_network_rejects_double_attach():
    _, _, network = _build_network()
    network.attach(0, lambda m: None)
    with pytest.raises(ValueError):
        network.attach(0, lambda m: None)


def test_network_latency_scales_with_distance():
    sim, _, network = _build_network(width=4, height=4)
    latencies = {}
    for node in range(16):
        network.attach(node, lambda m: None)

    def measure(dst):
        msg = NocMessage(src=0, dst=dst, kind="ping")
        done = network.send(msg)
        yield done
        return msg.noc_latency()

    latencies[1] = sim.run_process(measure(1))
    latencies[15] = sim.run_process(measure(15))
    assert latencies[15] > latencies[1]


def test_network_point_to_point_ordering():
    """Messages between the same pair arrive in injection order."""
    sim, _, network = _build_network(width=4, height=1)
    received = []
    for node in range(4):
        network.attach(node, lambda m: received.append(m.meta["seq"]) if m.dst == 3 else None)

    def sender():
        for seq in range(20):
            network.send(NocMessage(src=0, dst=3, kind="data", size_bytes=16, meta={"seq": seq}))
            yield Delay(0.1)

    sim.process(sender())
    sim.run()
    assert received == list(range(20))


def test_network_contention_increases_latency():
    """Two senders sharing a link see more latency than one alone."""
    def run(num_senders):
        sim, _, network = _build_network(width=4, height=1)
        for node in range(4):
            network.attach(node, lambda m: None)
        last_delivery = {}

        def sender(src):
            events = []
            for _ in range(50):
                msg = NocMessage(src=src, dst=3, kind="data", size_bytes=16)
                events.append((network.send(msg), msg))
            for event, msg in events:
                yield event
            last_delivery[src] = sim.now

        for src in range(num_senders):
            sim.process(sender(src))
        sim.run()
        return max(last_delivery.values())

    assert run(2) > run(1)


def test_network_plane_isolation():
    """Traffic on one plane does not serialize behind another plane."""
    sim, _, network = _build_network(width=4, height=1)
    for node in range(4):
        network.attach(node, lambda m: None)
    latencies = {}

    def sender(plane, key):
        msgs = []
        for _ in range(20):
            msg = NocMessage(src=0, dst=3, kind="data", size_bytes=16, plane=plane)
            msgs.append((network.send(msg), msg))
        for event, msg in msgs:
            yield event
        latencies[key] = sim.now

    sim.process(sender(MessagePlane.REQUEST, "req"))
    sim.process(sender(MessagePlane.RESPONSE, "resp"))
    sim.run()
    contended_finish = max(latencies.values())

    # Same load on a single plane takes longer than split across two planes.
    sim2 = Simulator()
    clk2 = ClockDomain(sim2, 1000.0)
    network2 = NocNetwork(sim2, clk2, 4, 1)
    for node in range(4):
        network2.attach(node, lambda m: None)
    finish = {}

    def sender2(key):
        msgs = []
        for _ in range(40):
            msg = NocMessage(src=0, dst=3, kind="data", size_bytes=16, plane=MessagePlane.REQUEST)
            msgs.append(network2.send(msg))
        for event in msgs:
            yield event
        finish[key] = sim2.now

    sim2.process(sender2("all"))
    sim2.run()
    assert finish["all"] > contended_finish


def test_network_local_delivery_pays_router_latency():
    sim, clk, network = _build_network()
    network.attach(0, lambda m: None)

    def body():
        msg = NocMessage(src=0, dst=0, kind="loopback")
        done = network.send(msg)
        yield done
        return msg.noc_latency()

    latency = sim.run_process(body())
    assert latency >= clk.period_ns
