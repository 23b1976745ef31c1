"""Microbenchmarks for the simulation kernel's hot paths.

Each one times a single layer (kernel, channel, NoC, energy accounting);
end-to-end serving and paper-figure time is measured by ``bench/run.py``.

* :func:`kernel_throughput` — the canonical *kernel events/sec* number: a
  mixed workload of cooperative yields, event rendezvous (zero-delay
  wakeups through the immediate deque) and timed delays (heap traffic).
  The mix deliberately emphasizes the zero-delay paths (~6:1) because the
  per-event overhead of exactly those hops is what the fast path exists to
  eliminate; :func:`kernel_timed_throughput` tracks the heap path on its
  own (the figure experiments schedule ~45% of their events at zero
  delay).
* :func:`channel_handoff` — blocking producer/consumer pairs through a
  capacity-1 :class:`~repro.sim.channel.Channel`, so every item forces a
  real event rendezvous in each direction.
* :func:`noc_message_throughput` — serialized messages across a network
  diameter on any topology, exercising batched link reservation, clock
  alignment and delivery events.  The gated ``noc_messages_per_sec``
  number runs the 8x8 mesh, with per-topology variants alongside (see
  ``repro.perf.SUITE``).  Passing ``power_hooks=True`` attaches a live
  :class:`~repro.power.PowerProbe` — the gated
  ``noc_messages_per_sec_hooks_on`` variant, which is what proves the
  energy-accounting hooks cost ~nothing on the hot path.
* :func:`energy_sample_rate` — epoch closes per wall second of a busy
  :class:`~repro.power.EnergyModel`: the accounting layer's own overhead.
* :func:`spin_poll_rate` — spin-wait polls per wall second, eight CPU-only
  cores on one barrier: the cost of :meth:`~repro.cpu.CpuContext.spin_until`,
  where Fig. 12's lock- and barrier-bound baselines spend their time.

All of them return a rate (per wall second), so *higher is better* and
regressions show up as ratios < 1 against the parent commit's runs.
"""

from __future__ import annotations

import time

from repro.noc import NocMessage, NocNetwork, make_topology
from repro.power.model import EnergyModel, PowerConfig, PowerProbe
from repro.sim import Channel, ClockDomain, Delay, Simulator


def kernel_throughput(iterations: int = 30_000) -> float:
    """Events per wall second on the zero-delay-heavy kernel workload.

    Per iteration: four cooperative yields, one event rendezvous (a
    zero-delay succeed plus the waiter's wakeup) and one timed delay —
    seven events, ~6:1 zero-delay:timed.
    """
    sim = Simulator()

    def pinger():
        for _ in range(iterations):
            yield None                       # cooperative yields
            yield None
            yield None
            yield None
            event = sim.event()
            sim.schedule(0.0, event.succeed, 1)
            yield event                      # zero-delay rendezvous
            yield Delay(1.0)                 # timed wakeup (heap)

    sim.process(pinger())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed / elapsed


def kernel_timed_throughput(iterations: int = 30_000, processes: int = 4) -> float:
    """Events per wall second when every wakeup is a timed delay (heap path)."""
    sim = Simulator()

    def ticker():
        for _ in range(iterations):
            yield Delay(1.0)

    for _ in range(processes):
        sim.process(ticker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed / elapsed


def kernel_zero_delay_throughput(iterations: int = 50_000) -> float:
    """Events per wall second when every wakeup is zero-delay."""
    sim = Simulator()

    def pinger():
        for _ in range(iterations):
            yield None
            event = sim.event()
            sim.schedule(0.0, event.succeed, 1)
            yield event

    sim.process(pinger())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_executed / elapsed


def channel_handoff(items: int = 20_000) -> float:
    """Items per wall second through a capacity-1 blocking channel."""
    sim = Simulator()
    channel = Channel(sim, capacity=1)
    received = 0

    def producer():
        for index in range(items):
            yield from channel.put(index)

    def consumer():
        nonlocal received
        for _ in range(items):
            yield from channel.get()
            received += 1

    sim.process(producer())
    sim.process(consumer())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if received != items:
        raise RuntimeError(f"channel bench lost items: {received}/{items}")
    return items / elapsed


def noc_message_throughput(messages: int = 2_000, width: int = 8, height: int = 8,
                           topology: str = "mesh", power_hooks: bool = False) -> float:
    """Serialized messages per wall second across a network diameter.

    The destination is the node farthest (in hops) from node 0, so every
    topology is measured over its own longest route — the mesh pays the
    full diagonal, the torus half of it, the crossbar a single hop.
    ``power_hooks=True`` attaches a live power probe, turning every send's
    default-off energy hook into a real counter increment.
    """
    sim = Simulator()
    domain = ClockDomain(sim, 1000.0, "noc-bench")
    network = NocNetwork(sim, domain, topology=make_topology(topology, width, height))
    if power_hooks:
        network.power_probe = PowerProbe()
    fabric = network.topology
    far = max(range(network.node_count), key=lambda node: (fabric.hop_count(0, node), -node))
    network.attach(far, lambda message: None)
    if far != 0:
        network.attach(0, lambda message: None)
    delivered_count = 0

    def sender():
        nonlocal delivered_count
        for index in range(messages):
            yield network.send(NocMessage(src=0, dst=far, kind="bench", addr=index))
            delivered_count += 1

    sim.process(sender())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if delivered_count != messages:
        raise RuntimeError(f"noc bench lost messages: {delivered_count}/{messages}")
    return messages / elapsed


def energy_sample_rate(samples: int = 20_000) -> float:
    """Epoch closes per wall second of a busy :class:`EnergyModel`.

    A ticking process bumps several probe counters and closes one
    accounting epoch every simulated 10 ns — far more often than any real
    governor would (epochs are normally 250-1000 ns) — so this number
    bounds the accounting layer's overhead from above.
    """
    sim = Simulator()
    domain = ClockDomain(sim, 1000.0, "energy-bench")
    model = EnergyModel(PowerConfig(enabled=True, trace=False), sim, name="bench")
    model.sys_domain = domain
    model.num_tiles = 4
    model.core_area_mm2 = 3.0
    probe = model.probe

    def ticker():
        sample = model.sample
        for _ in range(samples):
            probe.cache_accesses += 3
            probe.core_active_cycles += 8
            probe.noc_flit_hops += 5
            probe.directory_lookups += 1
            yield Delay(10.0)
            sample()

    sim.process(ticker())
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    if model.epochs < samples:
        raise RuntimeError(f"energy bench lost epochs: {model.epochs}/{samples}")
    return samples / elapsed


def spin_poll_rate(rounds: int = 10, cores: int = 8, late_cycles: int = 4_000) -> float:
    """Spin-wait polls per wall second.

    ``cores`` cores of a CPU-only system meet at one barrier ``rounds``
    times; each round the last core arrives ``late_cycles`` after the
    others, which poll the barrier's sense word meanwhile (an L1 hit, the
    pause, the next load).  Every core load in this program is a poll.
    """
    # Imported here, not at the top, so the other benches run in a process
    # without the platform stack loaded, as they did before this one existed.
    from repro.cpu import Barrier
    from repro.platform import DollyConfig, build_system

    system = build_system(DollyConfig.cpu_only(cores))
    barrier = Barrier(system.memory, cores)
    late = cores - 1

    def program(ctx, thread):
        for _ in range(rounds):
            if thread == late:
                yield from ctx.compute(late_cycles)
            yield from barrier.wait(ctx, thread)

    start = time.perf_counter()
    system.run_programs([(thread, program, (thread,)) for thread in range(cores)],
                        drain_ns=0.0)
    elapsed = time.perf_counter() - start
    polls = sum(core.stats.counters()["loads"] for core in system.cores)
    if polls < rounds * (cores - 1):
        raise RuntimeError(f"spin bench polled too little: {polls} polls")
    return polls / elapsed
