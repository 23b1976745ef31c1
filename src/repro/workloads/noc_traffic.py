"""Synthetic NoC traffic for the topology scaling study (``noc_scaling``).

A standalone network (no cores, no caches) is driven with uniform-random
traffic: every node runs an injector process that sends fixed-size messages
to uniformly-random destinations with exponentially-distributed gaps whose
mean is set by ``injection_rate`` (messages per node per NoC cycle).  The
experiment reports *simulated-time* quantities — delivered throughput,
latency percentiles, link-wait time — so it measures the interconnect
model, not the host.  The host cost of the NoC model is timed end to end
by ``bench/run.py``'s ``paper_figs`` workload, whose cells send every
message through it.

Everything is seeded and deterministic: per-node PRNGs derive from the
experiment seed, so a (topology, size, rate, seed) cell always reproduces
the same numbers, which is what lets the experiment runner cache results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.noc import NocMessage, NocNetwork, make_topology
from repro.sim import ClockDomain, Delay, Simulator

#: System (NoC) clock used by the scaling study, matching Sec. V-A's 1 GHz.
NOC_CLOCK_MHZ = 1000.0


@dataclass
class NocTrafficResult:
    """Aggregate statistics of one uniform-random traffic run."""

    topology: str
    nodes: int
    injection_rate: float
    messages: int
    sim_ns: float
    mean_latency_ns: float
    p95_latency_ns: float
    max_latency_ns: float
    mean_link_wait_ns: float
    delivered_per_node_per_cycle: float

    def as_row(self) -> Dict[str, float]:
        return {
            "topology": self.topology,
            "nodes": self.nodes,
            "injection_rate": self.injection_rate,
            "messages": self.messages,
            "sim_ns": self.sim_ns,
            "mean_latency_ns": self.mean_latency_ns,
            "p95_latency_ns": self.p95_latency_ns,
            "max_latency_ns": self.max_latency_ns,
            "mean_link_wait_ns": self.mean_link_wait_ns,
            "delivered_per_node_per_cycle": self.delivered_per_node_per_cycle,
        }


def run_uniform_traffic(
    topology: str,
    size: int,
    injection_rate: float,
    messages_per_node: int = 25,
    payload_bytes: int = 16,
    seed: int = 0,
) -> NocTrafficResult:
    """Drive ``size`` x ``size`` nodes of ``topology`` with random traffic.

    ``size`` is the linear dimension: mesh/torus build a ``size`` x ``size``
    grid, ring/crossbar the same ``size**2`` node count — so topologies are
    compared at equal scale.
    """
    if injection_rate <= 0:
        raise ValueError(f"injection rate must be positive, got {injection_rate}")
    sim = Simulator()
    domain = ClockDomain(sim, NOC_CLOCK_MHZ, "noc")
    network = NocNetwork(sim, domain, topology=make_topology(topology, size, size))
    node_count = network.node_count
    for node in range(node_count):
        network.attach(node, lambda message: None)

    period = domain.period_ns
    mean_gap_cycles = 1.0 / injection_rate

    def injector(node: int):
        rng = random.Random((seed << 20) ^ (node * 2654435761 % 2**32))
        for _ in range(messages_per_node):
            yield Delay(rng.expovariate(1.0) * mean_gap_cycles * period)
            dst = rng.randrange(node_count)
            network.send(NocMessage(src=node, dst=dst, kind="traffic",
                                    size_bytes=payload_bytes))

    for node in range(node_count):
        sim.process(injector(node), name=f"inject{node}")
    sim.run()

    latency = network.stats.histogram("message_latency_ns")
    link_wait = network.stats.histogram("link_wait_ns")
    delivered = latency.count
    sim_ns = sim.now
    cycles = sim_ns / period if sim_ns else 0.0
    return NocTrafficResult(
        topology=topology,
        nodes=node_count,
        injection_rate=injection_rate,
        messages=delivered,
        sim_ns=sim_ns,
        mean_latency_ns=latency.mean,
        p95_latency_ns=latency.percentile(0.95),
        max_latency_ns=latency.maximum,
        mean_link_wait_ns=link_wait.mean,
        delivered_per_node_per_cycle=(delivered / (node_count * cycles)
                                      if cycles else 0.0),
    )
