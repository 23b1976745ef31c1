"""Transaction-level NoC with per-link contention and batched reservation.

Each directed link carries one flit per NoC cycle and serves messages in
reservation order; each of the three planes has its own set of link
resources.  A message of ``F`` flits crossing ``H`` hops therefore takes
roughly ``H * (router_latency + F)`` cycles when the network is idle, and
longer under contention — enough fidelity for the bandwidth and scalability
studies of Sec. V-C without simulating individual flits.

**Batched link reservation.**  Injection reserves the *whole route* in one
pass: every hop's start and finish is computed arithmetically against the
per-link ``_link_free_at`` table at injection time, and a single delivery
callback is scheduled at the final finish instant.  Compared to the seed's
per-hop generator loop this eliminates ``H`` process resumptions and ``H``
heap operations per message (one process, one alignment delay and ``H``
timed delays collapse into one ``schedule_at``).  The per-hop float
arithmetic is mirrored operation for operation — ``t = t + ((start +
transfer) - t)`` exactly as the kernel advanced the old transfer process —
so delivery times are bit-identical to the per-hop model (guarded by the
golden test in ``tests/test_noc_topologies.py``); the scheduled delivery
lands on the same integer-picosecond heap key the per-hop version produced.
Reservations happen in ``send()`` call order, which is the same order the
seed's transfer processes started in, so per-link FIFO order is preserved.
See ``docs/noc.md`` for the contention model and its invariants.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.noc.message import NocMessage
from repro.noc.topology import Mesh2D, Topology, make_topology
from repro.sim import ClockDomain, Event, Simulator, StatSet

#: Signature of an endpoint's message handler.
MessageHandler = Callable[[NocMessage], None]


class NocNetwork:
    """A NoC over any :class:`~repro.noc.topology.Topology`, in the system
    (fast) clock domain.

    ``topology`` may be a ready :class:`Topology` instance, a kind string
    (``"mesh"``, ``"torus"``, ``"ring"``, ``"crossbar"`` — built over
    ``width`` x ``height`` nodes via :func:`make_topology`), or omitted
    entirely for the default 2D mesh.  Endpoints attach a handler per node;
    :meth:`send` injects a message and returns an :class:`Event` that fires
    at delivery time (most senders ignore it).  Delivery calls the
    destination handler synchronously at the delivery instant, so handlers
    should only enqueue work or spawn processes, never block.
    """

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        width: Optional[int] = None,
        height: Optional[int] = None,
        router_latency_cycles: int = 1,
        name: str = "noc",
        topology: Union[Topology, str, None] = None,
    ) -> None:
        self.sim = sim
        self.domain = domain
        if topology is None or isinstance(topology, str):
            if width is None or height is None:
                raise ValueError("width and height are required without a Topology instance")
            topology = make_topology(topology or Mesh2D.kind, width, height)
        self.topology = topology
        self.router_latency_cycles = router_latency_cycles
        self.name = name
        self._handlers: Dict[int, MessageHandler] = {}
        # (plane, src, dst) -> time the link becomes free
        self._link_free_at: Dict[Tuple[int, int, int], float] = {}
        #: Energy-accounting hook (see ``repro.power``); ``None`` unless the
        #: system was built with ``PowerConfig(enabled=True)``.
        self.power_probe = None
        self.stats = StatSet(f"{name}.stats")
        # The per-message stat objects, resolved once instead of per send.
        self._messages_sent = self.stats.counter("messages_sent")
        self._flits_sent = self.stats.counter("flits_sent")
        self._link_wait_ns = self.stats.histogram("link_wait_ns")
        self._message_latency_ns = self.stats.histogram("message_latency_ns")
        # Pre-bound delivery callback: one bound method for the network's
        # lifetime instead of one per send.
        self._deliver_bound = self._deliver

    # ------------------------------------------------------------------ #
    # Endpoint management
    # ------------------------------------------------------------------ #
    def attach(self, node: int, handler: MessageHandler) -> None:
        """Register the message handler for ``node`` (exactly one per node)."""
        self.topology._check_node(node)
        if node in self._handlers:
            raise ValueError(f"node {node} already has a handler attached")
        self._handlers[node] = handler

    def detach(self, node: int) -> None:
        self._handlers.pop(node, None)

    # ------------------------------------------------------------------ #
    # Message injection
    # ------------------------------------------------------------------ #
    def send(self, message: NocMessage) -> Event:
        """Inject ``message``; returns an event fired at delivery.

        The whole route is reserved here, at injection: each hop's start is
        the later of the message's arrival at that hop and the link's
        ``_link_free_at`` entry, each hop's finish extends the link's busy
        window, and one delivery callback is scheduled at the final finish.
        The float arithmetic below intentionally mirrors the retired
        per-hop generator loop step for step (``t + (delay)`` rather than
        the algebraically-equal running sum) so delivery instants stay
        bit-identical to the seed mesh behaviour.
        """
        if message.dst not in self._handlers:
            raise ValueError(f"no handler attached at destination node {message.dst}")
        sim = self.sim
        delivered = Event(sim, "delivered")
        now = sim.now
        message.stamp("injected", now)
        self._messages_sent.value += 1
        self._flits_sent.value += message.flits
        # Injection is aligned to the NoC clock even for local (same-tile)
        # delivery: the endpoint's NoC interface still clocks the packet in.
        domain = self.domain
        target = domain.edge_after(now, 1)
        align_delay = target - now
        t = now if align_delay <= 0.0 else now + align_delay
        cycle = domain.period_ns
        transfer_ns = (self.router_latency_cycles + message.flits) * cycle
        route = self.topology.route(message.src, message.dst)
        probe = self.power_probe
        if probe is not None:
            # A local delivery still clocks the packet through one router.
            probe.noc_flit_hops += message.flits * (len(route) or 1)
        if route:
            plane = int(message.plane)
            link_free_at = self._link_free_at
            record_wait = self._link_wait_ns.record
            for src, dst in route:
                key = (plane, src, dst)
                # Reserve the link in injection order: the message occupies
                # the link from the later of its arrival and "link free",
                # for its serialization time.  Injection order equals the
                # order the seed's transfer processes started in, keeping
                # per-link FIFO order identical.
                start = link_free_at.get(key, 0.0)
                if start > t:
                    record_wait(start - t)
                else:
                    start = t
                end = start + transfer_ns
                link_free_at[key] = end
                t = t + (end - t)
        else:
            # Local delivery still pays one router traversal.
            t = t + self.router_latency_cycles * cycle
        sim.schedule_at(t, self._deliver_bound, (message, delivered))
        return delivered

    def _deliver(self, pair: Tuple[NocMessage, Event]) -> None:
        message, delivered = pair
        sim = self.sim
        message.stamp("delivered", sim.now)
        self._message_latency_ns.record(message.noc_latency())
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise RuntimeError(f"handler for node {message.dst} detached mid-flight")
        handler(message)
        delivered.succeed(sim.now)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def mean_latency_ns(self) -> float:
        """Mean in-network latency over all delivered messages (0.0 if none).

        Reuses the pre-resolved ``message_latency_ns`` histogram rather
        than re-looking it up through the :class:`StatSet` on every call.
        """
        histogram = self._message_latency_ns
        return histogram.mean if histogram.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NocNetwork {self.topology!r} @{self.domain.freq_mhz}MHz>"
