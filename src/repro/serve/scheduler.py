"""Reconfiguration-aware multiplexing of eFPGA fabrics across tenants.

A :class:`FabricScheduler` owns a bounded admission queue and one worker
process per :class:`FabricContext`.  A fabric is the two parts of the
Control Hub's FPGA Manager that serving uses: the programming engine's
timed transfer (:func:`~repro.core.control_hub.transfer_bitstream`,
``config_bits / PROGRAMMING_BITS_PER_CYCLE`` cycles of the
:data:`SYSTEM_MHZ` system clock) and a
:class:`~repro.fpga.clocking.ProgrammableClockGenerator`, retuned to each
programmed accelerator's Fmax.  Fabric 0 is the control tile, and a chain
of control links reaches the rest: link ``a`` joins fabric ``a`` to fabric
``a + 1``.  Chaos can cut a link (:meth:`FabricScheduler.cut_link`), which
strands every fabric past it.

Scheduling policies are pluggable (:data:`POLICY_KINDS`):

* ``fcfs`` — strict arrival order;
* ``sjf`` — shortest estimated service first (ties by arrival);
* ``priority`` — highest tenant priority first (ties by arrival);
* ``affinity`` — serve requests matching the fabric's currently programmed
  bitstream first, falling back to the oldest request when nothing matches
  or when the head of the queue has waited longer than ``patience_ns``
  (the starvation guard).  Batching same-bitstream requests amortizes the
  reconfiguration cost, which is the serving-side payoff of bitstream
  programmability.

With ``ServeConfig.regions > 1`` each fabric is one *shared* device carved
into K column-band regions (:mod:`repro.reconfig`): designs co-locate on
contiguous spans, a switch programs only the changed span
(:meth:`Bitstream.for_regions` through the same ``transfer_bitstream``),
idle spans are evicted LRU-first when the grid is full, and K region
workers per fabric serve different resident designs concurrently.  With
the default ``regions=1`` the whole-fabric path below runs unchanged —
bit-identical to a build without region support.

Each request-lifecycle event goes once to the ordered subscriber tuple
:attr:`FabricScheduler.hooks`: telemetry, SLO accounting, request trace.

Everything is driven by simulated time and seeded randomness only, so a
serve run is exactly as deterministic as any other experiment cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.control_hub import transfer_bitstream
from repro.core.exceptions import DuetError
from repro.fpga.bitstream import Bitstream
from repro.fpga.clocking import ProgrammableClockGenerator
from repro.obs.trace import LifecycleSubscriber, RequestTrace, Tracer
from repro.reconfig.placement import RegionAllocator
from repro.reconfig.plan import RegionPlan
from repro.serve.catalog import SERVE_ACCELERATORS, ServedAccelerator, materialize
from repro.serve.slo import SloMonitor
from repro.serve.traffic import Request
from repro.sim import Delay, Simulator
from repro.sim.clock import ClockDomain
from repro.sim.stats import Counter


# --------------------------------------------------------------------------- #
# Scheduling policies
# --------------------------------------------------------------------------- #
class SchedulingPolicy:
    """Picks the next request a fabric should serve from the pending list.

    ``select`` returns an *index* into ``pending`` (kept in arrival order);
    implementations must be pure functions of the queue and fabric state so
    scheduling stays deterministic.
    """

    kind = "fcfs"

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class FcfsPolicy(SchedulingPolicy):
    """First come, first served — the baseline every policy is judged against."""

    kind = "fcfs"


class SjfPolicy(SchedulingPolicy):
    """Shortest estimated job first (estimated in simulated service time)."""

    kind = "sjf"

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        return min(range(len(pending)),
                   key=lambda i: (fabric.estimate_service_ns(pending[i]), i))


class PriorityPolicy(SchedulingPolicy):
    """Highest tenant priority first; arrival order breaks ties."""

    kind = "priority"

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        return min(range(len(pending)),
                   key=lambda i: (-pending[i].priority, i))


class AffinityPolicy(SchedulingPolicy):
    """Batch requests for the currently programmed bitstream.

    If the oldest pending request has waited longer than ``patience_ns``
    the policy degenerates to FCFS for that pick — bounding how long a
    minority tenant can starve behind a popular bitstream.
    """

    kind = "affinity"

    def __init__(self, patience_ns: float = 100_000.0) -> None:
        if patience_ns < 0:
            raise ValueError(f"patience_ns cannot be negative, got {patience_ns}")
        self.patience_ns = patience_ns

    def select(self, pending: List[Request], fabric: "FabricContext") -> int:
        head = pending[0]
        now = fabric.sim.now
        if now - head.arrival_ns > self.patience_ns:
            return 0
        for index, request in enumerate(pending):
            if fabric.has_resident(request.accelerator):
                return index
        return 0


POLICY_KINDS: Tuple[str, ...] = ("fcfs", "sjf", "priority", "affinity")


def make_policy(kind: str, patience_ns: float = 100_000.0) -> SchedulingPolicy:
    if kind == "fcfs":
        return FcfsPolicy()
    if kind == "sjf":
        return SjfPolicy()
    if kind == "priority":
        return PriorityPolicy()
    if kind == "affinity":
        return AffinityPolicy(patience_ns=patience_ns)
    known = ", ".join(POLICY_KINDS)
    raise ValueError(f"unknown scheduling policy {kind!r}; known policies: {known}")


# --------------------------------------------------------------------------- #
# One servable fabric
# --------------------------------------------------------------------------- #
class FabricContext:
    """One eFPGA fabric: programming engine, clock generator, programmed state."""

    def __init__(
        self,
        sim: Simulator,
        sys_domain: ClockDomain,
        accelerators: Dict[str, ServedAccelerator],
        index: int = 0,
        images: Optional[Dict[str, Bitstream]] = None,
        plan: Optional[RegionPlan] = None,
    ) -> None:
        self.sim = sim
        self.sys_domain = sys_domain
        self.index = index
        self.name = f"fabric{index}"
        self.accelerators = accelerators
        self.clock_generator = ProgrammableClockGenerator(
            sim, name=f"{self.name}.clkgen")
        self.current_design: Optional[str] = None
        self.reconfigurations = 0
        self.reconfig_ns_total = 0.0
        self.service_ns_total = 0.0
        #: Energy hook: when set, served cycles and clock retunes feed the
        #: attached :class:`~repro.power.model.EnergyModel` (see Deployment).
        self.energy = None
        #: Observability hooks (:mod:`repro.obs`): when the scheduler is
        #: built with a Tracer, ``tracer`` records ``clock_retune`` instants
        #: and ``xfer`` transfer spans (on track ``<name>.ctrl``), and the
        #: scheduler's :class:`~repro.obs.trace.RequestTrace` records the
        #: serve path's ``program``/``service`` spans.
        self.tracer = None
        self.request_trace: Optional[RequestTrace] = None
        #: Corrupt-image overrides shared with the scheduler (see
        #: :attr:`FabricScheduler.images`); empty on every fault-free run.
        self.images: Dict[str, Bitstream] = images if images is not None else {}
        # -- region mode (repro.reconfig; None = whole-fabric path) ------ #
        self.plan = plan
        self.allocator: Optional[RegionAllocator] = (
            RegionAllocator(plan.capacities) if plan is not None else None)
        self.regions_programmed = 0
        self.frag_samples: List[float] = []
        # -- fault state (repro.chaos) ---------------------------------- #
        self.failed = False
        self.fail_time_ns = -1.0
        self.fail_time_ps = -1
        self.fail_reason: Optional[str] = None
        self._repair = None

    # ------------------------------------------------------------------ #
    # Fault state (driven by the scheduler's chaos APIs)
    # ------------------------------------------------------------------ #
    def repair_event(self):
        """Event a parked worker waits on until this fabric heals."""
        if self._repair is None or self._repair.triggered:
            self._repair = self.sim.event(name=f"{self.name}.repair")
        return self._repair

    def fail(self, reason: str) -> None:
        self.failed = True
        self.fail_time_ns = self.sim.now
        self.fail_time_ps = self.sim.now_ps
        self.fail_reason = reason

    def heal(self) -> None:
        self.failed = False
        self.fail_reason = None
        # The configuration memory did not survive the fault: the next
        # request pays a full reprogram through transfer_bitstream.
        self.current_design = None
        if self.allocator is not None:
            self.allocator.reset()
        if self._repair is not None and not self._repair.triggered:
            self._repair.succeed()

    # ------------------------------------------------------------------ #
    # Introspection used by policies
    # ------------------------------------------------------------------ #
    def has_resident(self, name: str) -> bool:
        """Whether ``name`` is loaded on this fabric right now.

        The affinity test: in region mode a design is resident while it
        holds a span; in whole-fabric mode it is resident when it is the
        currently programmed bitstream.
        """
        if self.allocator is not None:
            return self.allocator.lookup(name) is not None
        return name == self.current_design

    def can_start(self, request: Request) -> bool:
        """Region mode: can ``request`` start now without waiting?

        Yes when its design holds an *idle* span (pins mark in-service
        instances: one span serves one request at a time), or when a span
        could be placed — evicting idle residents LRU-first if needed.
        """
        name = request.accelerator
        if self.allocator.lookup(name) is not None:
            return not self.allocator.is_pinned(name)
        return self.allocator.can_place(self.plan.tiles[name], name)

    def estimate_service_ns(self, request: Request) -> float:
        """Pure service-time estimate at Fmax (no queueing, no reconfiguration)."""
        accelerator = self.accelerators[request.accelerator]
        cycles = accelerator.service_cycles(request.size)
        return cycles * 1000.0 / accelerator.fmax_mhz

    # ------------------------------------------------------------------ #
    # The serve path (generators driven by the scheduler worker)
    # ------------------------------------------------------------------ #
    def _transfer(self, image: Bitstream):
        """The programming engine's timed transfer of ``image``."""
        return transfer_bitstream(self.sim, self.sys_domain, image,
                                  f"{self.name}.ctrl", self.tracer)

    def reconfigure(self, accelerator: ServedAccelerator):
        """Program ``accelerator``'s bitstream and retune the eFPGA clock to
        its Fmax."""
        started = self.sim.now
        if self.energy is not None:
            # Close the accounting epoch at the old frequency before the
            # retune so each epoch integrates at the voltage that applied.
            self.energy.sample()
        image = self.images.get(accelerator.name)
        yield from self._transfer(
            image if image is not None else accelerator.bitstream)
        self.clock_generator.set_max_frequency(accelerator.fmax_mhz)
        self.clock_generator.set_frequency(accelerator.fmax_mhz)
        if self.tracer is not None:
            # The generator settles instantaneously in the current clock
            # model, so the retune is an instant, not a span (decompose
            # keeps a zero "retune" stage for when that changes).
            self.tracer.instant(
                "clock_retune", self.name, self.sim.now_ps, cat="reconfig",
                args={"mhz": accelerator.fmax_mhz})
        self.current_design = accelerator.name
        self.reconfigurations += 1
        self.reconfig_ns_total += self.sim.now - started

    def serve(self, request: Request):
        """Occupy the fabric for the request's service time."""
        trace = self.request_trace
        accelerator = self.accelerators[request.accelerator]
        if self.current_design != accelerator.name:
            program_start_ps = self.sim.now_ps if trace is not None else 0
            yield from self.reconfigure(accelerator)
            if trace is not None:
                trace.program(self, request, program_start_ps)
        request.start_ns = self.sim.now
        service_start_ps = self.sim.now_ps if trace is not None else 0
        cycles = accelerator.service_cycles(request.size)
        if self.energy is not None:
            self.energy.probe.fpga_active_cycles += cycles
        domain = self.clock_generator.fpga_domain
        yield domain.wait_cycles(cycles)
        request.finish_ns = self.sim.now
        self.service_ns_total += request.finish_ns - request.start_ns
        if trace is not None:
            trace.service(self, request, service_start_ps)
        return request

    # ------------------------------------------------------------------ #
    # The region-granular serve path (ServeConfig.regions > 1)
    # ------------------------------------------------------------------ #
    def program_span(self, name: str, span: Tuple[int, ...]):
        """Hot-swap one contiguous span: transfer only its regions' bits."""
        started = self.sim.now
        image = self.images.get(name, self.plan.images[name])
        yield from self._transfer(image.for_regions(span))
        self.reconfigurations += 1
        self.regions_programmed += len(span)
        self.reconfig_ns_total += self.sim.now - started

    def serve_regional(self, request: Request):
        """Serve on the design's span; place/program it first if absent.

        The span is pinned for the whole service (one span = one
        accelerator instance = one request at a time) and pinned *before*
        programming starts, so a concurrent worker placing another design
        can never evict a span mid-transfer.  Region grids run each design
        at its own Fmax (per-region clocking), so service time is a plain
        delay — no shared-generator retune.
        """
        trace = self.request_trace
        accelerator = self.accelerators[request.accelerator]
        name = accelerator.name
        span = self.allocator.lookup(name)
        if span is None:
            placement = self.allocator.place(name, self.plan.tiles[name])
            self.allocator.pin(name)
            self.frag_samples.append(self.allocator.fragmentation())
            program_start_ps = self.sim.now_ps if trace is not None else 0
            try:
                yield from self.program_span(name, placement.regions)
                if trace is not None:
                    trace.program(self, request, program_start_ps,
                                  placement.regions)
            except DuetError:
                # The integrity check tripped (SEU in the transferred
                # span): the span holds no valid design — free it before
                # the scheduler's scrub/retry or shed path runs.
                self.allocator.unpin(name)
                self.allocator.evict(name)
                raise
        else:
            self.allocator.pin(name)
            self.allocator.touch(name)
        try:
            request.start_ns = self.sim.now
            service_start_ps = self.sim.now_ps if trace is not None else 0
            cycles = accelerator.service_cycles(request.size)
            yield Delay(cycles * 1000.0 / accelerator.fmax_mhz)
            request.finish_ns = self.sim.now
            self.service_ns_total += request.finish_ns - request.start_ns
            if trace is not None:
                trace.service(self, request, service_start_ps)
        finally:
            self.allocator.unpin(name)
        return request


# --------------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------------- #
#: System clock of every serving deployment (MHz): the clock the programming
#: engine's transfer cycles tick at.
SYSTEM_MHZ = 1000.0


@dataclass
class ServeConfig:
    """Static configuration of one serving deployment.

    Every accelerator serves at its own post-route Fmax.
    """

    policy: str = "fcfs"
    num_fabrics: int = 1
    #: Bounded admission queue; ``None`` means unbounded (never shed).
    queue_capacity: Optional[int] = 64
    #: Affinity starvation guard (see :class:`AffinityPolicy`).
    patience_ns: float = 100_000.0
    #: Which catalog entries this deployment can serve.
    accelerators: Tuple[str, ...] = ()
    #: Region grid per fabric; 1 = the whole-fabric path (bit-identical to
    #: a build without region support), > 1 = region-granular co-location.
    regions: int = 1
    #: Under/over-provision the shared region grid (< 1 forces eviction and
    #: fragmentation pressure; only meaningful with ``regions > 1``).
    region_fabric_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_fabrics < 1:
            raise ValueError(f"need at least one fabric, got {self.num_fabrics}")
        if self.patience_ns < 0:
            raise ValueError(f"patience_ns cannot be negative, got {self.patience_ns}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1 or None, got {self.queue_capacity}")
        if self.regions < 1:
            raise ValueError(f"regions must be >= 1, got {self.regions}")
        if self.region_fabric_scale <= 0:
            raise ValueError(
                f"region_fabric_scale must be positive, got {self.region_fabric_scale}")
        make_policy(self.policy, patience_ns=self.patience_ns)  # fail fast
        unknown = [name for name in self.accelerators
                   if name not in SERVE_ACCELERATORS]
        if unknown:
            known = ", ".join(sorted(SERVE_ACCELERATORS))
            raise ValueError(
                f"ServeConfig.accelerators has unknown entries {unknown}; "
                f"catalog: {known}")


#: The scheduler's fault counters (all zero on a fault-free run), registered
#: eagerly so every metrics snapshot carries them.  Per-request outcomes
#: (replayed, fault-shed) are counted only in the tenant accounts.
FAULT_COUNTERS: Tuple[str, ...] = (
    "faults_injected", "fabric_faults", "requests_lost", "seu_scrubs",
    "link_faults",
)

#: Detection/scrub latency an SEU retry pays before it requeues (ns).
SEU_DETECT_NS = 2_000.0


class FabricScheduler:
    """Admission queue + per-fabric worker processes.

    Every observer and mode is fixed at construction: ``tracer`` records
    the request lifecycle (a :class:`~repro.obs.trace.RequestTrace`
    subscriber) plus the fabrics' program/service spans and their
    ``xfer`` transfers; ``telemetry`` (a
    :class:`~repro.obs.monitor.TelemetryMonitor`) windows the monitor's
    series; ``recovery`` selects the fault path — replay lost requests
    and scrub corrupt images (True) or shed what a fault touches.
    Neither observer ever changes a result (pinned in ``tests/test_obs.py``).
    """

    def __init__(self, sim: Simulator, config: ServeConfig,
                 monitor: Optional[SloMonitor] = None,
                 tracer: Optional[Tracer] = None,
                 telemetry=None, recovery: bool = True) -> None:
        if not config.accelerators:
            raise ValueError("ServeConfig.accelerators must name >= 1 catalog entry")
        self.sim = sim
        self.config = config
        self.monitor = monitor or SloMonitor(sim)
        self.policy = make_policy(config.policy, patience_ns=config.patience_ns)
        self.sys_domain = ClockDomain(sim, SYSTEM_MHZ, "serve-sys")
        # Pre-materialize every servable bitstream once (the offline
        # synthesis the paper's toolchain performs).
        self.accelerators: Dict[str, ServedAccelerator] = {}
        for name in config.accelerators:
            if name not in self.accelerators:
                self.accelerators[name] = materialize(name)
        #: Indices of the cut control links (:meth:`cut_link`); link ``a``
        #: joins fabric ``a`` to fabric ``a + 1``.
        self.cut_links: Set[int] = set()
        #: Corrupt-image overrides keyed by accelerator name.  SEU injection
        #: writes here; reconfigure reads through it; scrubbing pops the
        #: entry to restore the pristine catalog bitstream.  Empty (and
        #: never touched) on fault-free runs.
        self.images: Dict[str, Bitstream] = {}
        #: The shared region grid (None on the whole-fabric path).
        self.region_plan: Optional[RegionPlan] = (
            RegionPlan.build(self.accelerators, config.regions,
                             fabric_scale=config.region_fabric_scale)
            if config.regions > 1 else None)
        self.fabrics = [
            FabricContext(
                sim, self.sys_domain, self.accelerators, index=node,
                images=self.images, plan=self.region_plan,
            )
            for node in range(config.num_fabrics)
        ]
        self.pending: List[Request] = []
        self.closed = False
        self._work_event = sim.event(name="serve.work")
        # -- chaos (the accounting stays zero on fault-free runs) --------- #
        self.recovery = recovery
        #: The deployment's one metrics registry (:mod:`repro.obs.metrics`),
        #: owned by the SLO monitor: the fault counters below sit beside its
        #: latency histograms and queue-depth series in one snapshot.
        self.metrics = self.monitor.metrics
        #: The :data:`FAULT_COUNTERS` by name.
        self.fault_stats: Dict[str, Counter] = {
            name: self.metrics.counter(name) for name in FAULT_COUNTERS}
        #: Accelerators whose image is corrupt with recovery disabled.
        self.poisoned: Set[str] = set()
        self.tracer = tracer
        request_trace = None
        if tracer is not None:
            request_trace = RequestTrace(tracer, sim)
            for fabric in self.fabrics:
                fabric.tracer = tracer
                fabric.request_trace = request_trace
        if telemetry is not None:
            telemetry.scheduler = self
        #: The request-lifecycle fan-out: every event goes once to each
        #: subscriber, in this order — telemetry first, so a window the
        #: clock has crossed closes *before* the SLO monitor records the
        #: event that crossed it.
        self.hooks: Tuple[LifecycleSubscriber, ...] = tuple(
            hook for hook in (telemetry, self.monitor, request_trace)
            if hook is not None)
        # One worker per fabric; in region mode K per fabric, so different
        # resident designs serve concurrently, each on its own span.
        self.workers = [
            sim.process(self._worker(fabric), name=(
                f"serve.worker{fabric.index}.{slot}"
                if self.region_plan is not None
                else f"serve.worker{fabric.index}"))
            for fabric in self.fabrics
            for slot in range(config.regions)
        ]

    # ------------------------------------------------------------------ #
    # Admission (called by traffic sources)
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> bool:
        """Admit ``request``; returns False when admission shed it."""
        request.arrival_ns = self.sim.now
        capacity = self.config.queue_capacity
        if self.closed or (capacity is not None and len(self.pending) >= capacity):
            request.shed = True
            for hook in self.hooks:
                hook.on_shed(request)
            if request.completion is not None:
                request.completion.succeed(request)
            return False
        self.pending.append(request)
        depth = len(self.pending)
        for hook in self.hooks:
            hook.on_submit(request, depth)
        self._notify()
        return True

    def note_replay(self, request: Request) -> None:
        """Report a queued ``request`` as the replay of one a fault lost."""
        depth = len(self.pending)
        for hook in self.hooks:
            hook.on_replay(request, depth)

    def close(self) -> None:
        """Stop admitting; workers exit once the queue drains."""
        self.closed = True
        self._notify()

    def _notify(self) -> None:
        event = self._work_event
        self._work_event = self.sim.event(name="serve.work")
        if not event.triggered:
            event.succeed()

    # ------------------------------------------------------------------ #
    # Fault injection + recovery (driven by repro.chaos)
    # ------------------------------------------------------------------ #
    def fail_fabric(self, index: int, reason: str = "fabric") -> bool:
        """Kill fabric ``index`` now.  Its in-flight request (if any) is
        lost at what would have been its completion instant; its worker
        parks until :meth:`heal_fabric`.  Returns False when already dead."""
        fabric = self.fabrics[index]
        if fabric.failed:
            return False
        fabric.fail(reason)
        self.fault_stats["fabric_faults"].increment()
        for hook in self.hooks:
            hook.on_fault(self.sim.now)
        self._notify()
        return True

    def heal_fabric(self, index: int) -> bool:
        """Bring fabric ``index`` back (configuration memory blank)."""
        fabric = self.fabrics[index]
        if not fabric.failed:
            return False
        reason = fabric.fail_reason
        fabric.heal()
        for hook in self.hooks:
            hook.on_heal(fabric, reason)
        self._notify()
        return True

    def corrupt_image(self, accelerator: str, offset: int, flip_mask: int) -> None:
        """SEU: flip bits in the stored image of ``accelerator``.

        Latent until the next reprogram of that accelerator trips the
        programming engine's integrity check (see transfer_bitstream).  In
        region mode the upset lands in the design's *regioned* image, so it
        only trips when the flipped span is actually transferred — an SEU
        in a region that is never reprogrammed stays latent forever."""
        if self.region_plan is not None:
            pristine = self.region_plan.images[accelerator]
        else:
            pristine = self.accelerators[accelerator].bitstream
        base = self.images.get(accelerator, pristine)
        self.images[accelerator] = base.corrupted(offset=offset, flip_mask=flip_mask)
        for hook in self.hooks:
            hook.on_fault(self.sim.now)

    def scrub_image(self, accelerator: str) -> None:
        """Restore the pristine catalog bitstream for ``accelerator``."""
        self.images.pop(accelerator, None)
        self.poisoned.discard(accelerator)

    def cut_link(self, link: int) -> Tuple[int, ...]:
        """Cut control link ``link`` (fabric ``link`` to ``link + 1``);
        fabrics cut off from the control tile (fabric 0) fail until
        :meth:`restore_link`.  Returns the indices that went unreachable."""
        self._check_link(link)
        self.cut_links.add(link)
        self.fault_stats["link_faults"].increment()
        lost = tuple(
            fabric.index for fabric in self.fabrics
            if not self._reachable(fabric.index) and not fabric.failed)
        for index in lost:
            self.fail_fabric(index, reason="unreachable")
        return lost

    def restore_link(self, link: int) -> Tuple[int, ...]:
        """Heal the link and revive fabrics that are reachable again."""
        self._check_link(link)
        self.cut_links.discard(link)
        revived = tuple(
            fabric.index for fabric in self.fabrics
            if self._reachable(fabric.index) and fabric.failed
            and fabric.fail_reason == "unreachable")
        for index in revived:
            self.heal_fabric(index)
        return revived

    def _check_link(self, link: int) -> None:
        if not 0 <= link < len(self.fabrics) - 1:
            raise ValueError(
                f"no control link {link} among "
                f"{len(self.fabrics)} fabrics")

    def _reachable(self, index: int) -> bool:
        """Fabric ``index`` reaches the control tile: no link before it is cut."""
        return not any(link < index for link in self.cut_links)

    def _handle_lost(self, request: Request) -> None:
        """The fabric serving ``request`` died mid-service."""
        self.fault_stats["requests_lost"].increment()
        request.start_ns = -1.0
        request.finish_ns = -1.0
        for hook in self.hooks:
            hook.on_lost(request)
        if self.recovery:
            # Failover: replay through whichever fabric frees up first.
            # Not a new admission — the request was already counted.
            self.pending.append(request)
            self.note_replay(request)
            self._notify()
        else:
            self._fault_shed(request)

    def _fault_shed(self, request: Request) -> None:
        request.shed = True
        for hook in self.hooks:
            hook.on_fault_shed(request)
        if request.completion is not None:
            request.completion.succeed(request)

    def _handle_program_fault(self, fabric: FabricContext, request: Request):
        """``fabric.serve`` tripped the bitstream integrity check."""
        name = request.accelerator
        request.start_ns = -1.0
        request.finish_ns = -1.0
        if self.recovery:
            # Scrub the corrupt image, pay the detection latency, and put
            # the request back at the head of the queue for a retry (the
            # retry pays a full reprogram of the pristine image).
            self.fault_stats["seu_scrubs"].increment()
            self.scrub_image(name)
            scrub_start_ps = self.sim.now_ps
            yield Delay(SEU_DETECT_NS)
            self.pending.insert(0, request)
            for hook in self.hooks:
                hook.on_scrub(fabric, name, scrub_start_ps)
            self.note_replay(request)
            self._notify()
        else:
            # No recovery: the accelerator is poisoned — this and every
            # later request needing a reprogram of it sheds.
            self.poisoned.add(name)
            self._fault_shed(request)
        return None

    def flush_pending(self) -> int:
        """Shed whatever is still queued (a chaos run can end partitioned
        with every fabric dead); keeps submitted == completed + shed."""
        flushed = 0
        while self.pending:
            self._fault_shed(self.pending.pop())
            flushed += 1
        return flushed

    # ------------------------------------------------------------------ #
    # Worker processes
    # ------------------------------------------------------------------ #
    def _worker(self, fabric: FabricContext):
        """One worker serving ``fabric``: the only one on the whole-fabric
        path, one of K sharing a region-gridded fabric.

        Region mode adds exactly two steps: the policy picks only among
        *startable* requests (an idle resident span, or room to place one —
        a request for a busy span waits), and every completion re-notifies,
        because startability changes when pins release, not just when the
        queue grows.
        """
        regional = fabric.allocator is not None
        serve = fabric.serve_regional if regional else fabric.serve
        while True:
            if fabric.failed:
                yield fabric.repair_event()
                continue
            if not self.pending:
                if self.closed:
                    return
                yield self._work_event
                continue
            if regional:
                # can_start depends only on the design and the allocator,
                # and neither changes during the scan: ask once per design.
                verdicts: Dict[str, bool] = {}
                startable = []
                for index, request in enumerate(self.pending):
                    name = request.accelerator
                    verdict = verdicts.get(name)
                    if verdict is None:
                        verdict = verdicts[name] = fabric.can_start(request)
                    if verdict:
                        startable.append(index)
                if not startable:
                    # Every blocked request targets a pinned span, so an
                    # in-flight service exists and its completion will notify.
                    yield self._work_event
                    continue
                subset = [self.pending[index] for index in startable]
                request = self.pending.pop(
                    startable[self.policy.select(subset, fabric)])
            else:
                request = self.pending.pop(self.policy.select(self.pending, fabric))
            depth = len(self.pending)
            for hook in self.hooks:
                hook.on_dequeue(request, depth, fabric)
            program_fault = False
            try:
                # No yield before serve_regional pins its span, so the
                # startability check above cannot be stale.
                yield from serve(request)
            except DuetError:
                program_fault = True
            finally:
                if regional:
                    self._notify()
            if program_fault:
                yield from self._handle_program_fault(fabric, request)
                continue
            if fabric.failed and fabric.fail_time_ns < self.sim.now:
                # The fabric died while this request was on it.
                self._handle_lost(request)
                continue
            for hook in self.hooks:
                hook.on_complete(request, fabric)
            if request.completion is not None:
                request.completion.succeed(request)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def fabric_totals(self) -> Dict[str, float]:
        """Aggregate fabric-side accounting for report rows."""
        return {
            "reconfigurations": sum(f.reconfigurations for f in self.fabrics),
            "reconfig_us_total": sum(f.reconfig_ns_total for f in self.fabrics) / 1000.0,
            "service_us_total": sum(f.service_ns_total for f in self.fabrics) / 1000.0,
        }

    def region_totals(self) -> Dict[str, float]:
        """Region-mode accounting; only merged into rows when regions > 1
        (the default-off contract: regions=1 rows keep their exact shape)."""
        frag = [sample for f in self.fabrics for sample in f.frag_samples]
        return {
            "regions": self.config.regions,
            "region_capacity_tiles": self.region_plan.region_capacity,
            # Region mode programs only through program_span.
            "region_programmings": sum(f.reconfigurations for f in self.fabrics),
            "regions_programmed": sum(f.regions_programmed for f in self.fabrics),
            "region_evictions": sum(f.allocator.evictions for f in self.fabrics),
            "fragmentation_mean": sum(frag) / len(frag) if frag else 0.0,
        }

    def chaos_totals(self) -> Dict[str, int]:
        """The :data:`FAULT_COUNTERS` plus the dead-fabric count (all zero
        on a fault-free run)."""
        totals = {name: counter.value for name, counter in self.fault_stats.items()}
        totals["dead_fabrics"] = sum(1 for f in self.fabrics if f.failed)
        return totals
