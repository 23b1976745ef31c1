"""Request traffic: typed requests, tenants and seeded arrival processes.

Serving turns the one-shot experiments of the paper's evaluation into an
*open system*: tenants emit :class:`Request` streams against a shared
eFPGA fabric, and what matters is the latency distribution under
contention, not a single runtime.  Two families of arrival process ship:

* **open-loop** — arrivals are independent of service: ``poisson``
  (memoryless), ``bursty`` (Markov on/off with the same long-run rate) and
  ``diurnal`` (a sinusoidally modulated rate, generated by thinning).  Open
  loops keep offering load when the system falls behind, which is what
  exposes tail latency and load shedding.
* **closed-loop** — ``closed``: a fixed population of clients that each
  submit, wait for the response, think, and repeat.  Closed loops
  self-throttle, modelling interactive callers.

Every stream draws from its own :class:`random.Random` seeded from
``(seed, tenant name)`` via CRC-32 — no ``hash()``, so arrival times are
bit-identical across runs, machines and ``PYTHONHASHSEED`` values, and one
tenant's stream does not change when another tenant is added to the mix.

Open-loop streams pre-generate their ``(gap, size)`` draws in batches
(:data:`ARRIVAL_CHUNK` at a time) through tightly bound locals instead of
paying per-request attribute lookups and dict dispatch on the hot path.
The draw *order* against the tenant's private ``Random`` is exactly the
order the retired per-request code used, so arrival times and sizes are
bit-identical to the PR 5 streams (pinned by
``tests/data/traffic_golden.json``); the only observable difference is
that a stream may leave its private generator a few draws ahead after the
final arrival, which nothing else can observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.serve.catalog import resolve_accelerator
from repro.sim import Delay, Process, Simulator
from repro.sim.event import Event
from repro.sim.stats import mix_seed

#: The supported arrival processes.
ARRIVAL_PATTERNS: Tuple[str, ...] = ("poisson", "bursty", "diurnal", "closed")

#: How many ``(gap, size)`` pairs an open-loop stream pre-generates per
#: batch.  Larger batches amortize the Python call overhead further but
#: waste more draws when a stream ends mid-batch (harmless — the generator
#: is private to the stream — just unnecessary work).
ARRIVAL_CHUNK = 256


@dataclass
class Request:
    """One unit of tenant work: run ``size`` items on ``accelerator``."""

    request_id: int
    tenant: str
    accelerator: str
    size: int
    priority: int = 0
    slo_ns: float = 0.0
    #: Lifecycle timestamps (ns of simulated time); -1 until reached.
    arrival_ns: float = -1.0
    start_ns: float = -1.0
    finish_ns: float = -1.0
    #: True when admission control dropped the request (bounded queue full).
    shed: bool = False
    #: Fired at completion (or shedding); closed-loop clients wait on it.
    completion: Optional[Event] = None

    @property
    def queue_wait_ns(self) -> float:
        """Time spent queued before the fabric picked the request up."""
        if self.start_ns < 0 or self.arrival_ns < 0:
            return 0.0
        return self.start_ns - self.arrival_ns

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion latency (the SLO quantity)."""
        if self.finish_ns < 0 or self.arrival_ns < 0:
            return 0.0
        return self.finish_ns - self.arrival_ns

    @property
    def slo_met(self) -> bool:
        return (not self.shed and self.finish_ns >= 0
                and (self.slo_ns <= 0 or self.latency_ns <= self.slo_ns))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an accelerator, an arrival process and an SLO target.

    ``weight`` apportions the mix's total offered rate across its open-loop
    tenants (closed-loop tenants are paced by ``clients``/``think_ns``
    instead).  Request sizes are uniform on ``[size_min, size_max]`` work
    items, giving SJF real variance to exploit.
    """

    name: str
    accelerator: str
    pattern: str = "poisson"
    weight: float = 1.0
    size_min: int = 8
    size_max: int = 32
    priority: int = 0
    #: Tail-latency target; 0 disables SLO accounting for the tenant.
    slo_ns: float = 25_000.0
    # -- closed-loop knobs ---------------------------------------------- #
    clients: int = 4
    think_ns: float = 20_000.0
    # -- bursty knobs ---------------------------------------------------- #
    on_ns: float = 100_000.0
    off_ns: float = 100_000.0
    # -- diurnal knobs --------------------------------------------------- #
    period_ns: float = 500_000.0

    def __post_init__(self) -> None:
        if self.pattern not in ARRIVAL_PATTERNS:
            known = ", ".join(ARRIVAL_PATTERNS)
            raise ValueError(
                f"tenant {self.name!r}: unknown arrival pattern "
                f"{self.pattern!r}; known patterns: {known}"
            )
        resolve_accelerator(self.accelerator)  # fail fast on catalog typos
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if not (1 <= self.size_min <= self.size_max):
            raise ValueError(
                f"tenant {self.name!r}: need 1 <= size_min <= size_max, "
                f"got {self.size_min}/{self.size_max}"
            )
        if self.pattern == "closed" and self.clients < 1:
            raise ValueError(f"tenant {self.name!r}: closed loop needs >= 1 client")
        if self.slo_ns < 0:
            raise ValueError(
                f"tenant {self.name!r}: slo_ns cannot be negative (0 disables "
                f"SLO accounting), got {self.slo_ns}")
        for knob in ("think_ns", "on_ns", "off_ns", "period_ns"):
            if getattr(self, knob) <= 0:
                raise ValueError(
                    f"tenant {self.name!r}: {knob} must be positive, "
                    f"got {getattr(self, knob)}"
                )

    def rng_seed(self, seed: int, stream: int = 0) -> int:
        """A per-(tenant, stream) seed: :func:`~repro.sim.stats.mix_seed`."""
        return mix_seed(seed, self.name.encode(), stream=stream)


class TrafficSource:
    """Drives one tenant's arrival process into a submit callback.

    ``submit(request)`` is the scheduler's admission entry point; it must be
    callable from process context without yielding (admission itself is
    instantaneous — queueing happens behind it).
    """

    def __init__(
        self,
        sim: Simulator,
        tenant: TenantSpec,
        submit: Callable[[Request], None],
        rate_rps: float,
        duration_ns: float,
        seed: int,
        start_id: int = 0,
        start_delay_ns: float = 0.0,
    ) -> None:
        import random

        if tenant.pattern != "closed" and rate_rps <= 0:
            raise ValueError(
                f"tenant {tenant.name!r}: open-loop traffic needs a positive "
                f"rate, got {rate_rps}"
            )
        if duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {duration_ns}")
        if start_delay_ns < 0:
            raise ValueError(f"start_delay_ns cannot be negative, got {start_delay_ns}")
        self.sim = sim
        self.tenant = tenant
        self.submit = submit
        self.rate_per_ns = rate_rps / 1e9
        self.duration_ns = duration_ns
        self.seed = seed
        self.emitted = 0
        #: Stall before the first draw — a migrated fleet tenant pays its
        #: re-program + state-transfer cost here.  0 adds no event at all,
        #: so the default stream is untouched.
        self.start_delay_ns = start_delay_ns
        self._next_id = start_id
        self._random = random.Random

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> List[Process]:
        """Spawn the tenant's process(es); returns them for joining."""
        tenant = self.tenant
        if tenant.pattern == "closed":
            return [
                self.sim.process(
                    self._closed_client(index),
                    name=f"traffic.{tenant.name}.client{index}",
                )
                for index in range(tenant.clients)
            ]
        return [self.sim.process(self._open_loop(), name=f"traffic.{tenant.name}")]

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #
    def _make_request(self, rng) -> Request:
        return self._emit(rng.randint(self.tenant.size_min, self.tenant.size_max))

    def _emit(self, size: int) -> Request:
        tenant = self.tenant
        request = Request(
            request_id=self._next_id,
            tenant=tenant.name,
            accelerator=tenant.accelerator,
            size=size,
            priority=tenant.priority,
            slo_ns=tenant.slo_ns,
        )
        self._next_id += 1
        self.emitted += 1
        return request

    # ------------------------------------------------------------------ #
    # Open-loop generators (batched draw pre-generation)
    # ------------------------------------------------------------------ #
    def _open_loop(self):
        tenant = self.tenant
        rng = self._random(tenant.rng_seed(self.seed))
        pregen = {"poisson": self._pregen_poisson,
                  "bursty": self._pregen_bursty,
                  "diurnal": self._pregen_diurnal}[tenant.pattern]
        if self.start_delay_ns > 0:
            yield Delay(self.start_delay_ns)
        sim = self.sim
        submit = self.submit
        emit = self._emit
        duration_ns = self.duration_ns
        while True:
            for gap, size in pregen(rng, ARRIVAL_CHUNK):
                yield Delay(gap)
                if sim.now >= duration_ns:
                    return self.emitted
                submit(emit(size))

    def _pregen_poisson(self, rng, count: int):
        expovariate, randint = rng.expovariate, rng.randint
        rate = self.rate_per_ns
        lo, hi = self.tenant.size_min, self.tenant.size_max
        return [(expovariate(rate), randint(lo, hi)) for _ in range(count)]

    def _pregen_bursty(self, rng, count: int):
        """On/off arrivals: active bursts at a boosted rate, silent gaps.

        During an ON phase arrivals come at ``rate * (on+off)/on`` so the
        long-run offered rate matches the requested one; an OFF phase
        contributes a single long gap.  Phase boundaries are exponential
        with means ``on_ns``/``off_ns``; the burst-end test mirrors the
        retired per-request code draw for draw.
        """
        tenant = self.tenant
        expovariate, random, randint = rng.expovariate, rng.random, rng.randint
        boost_rate = self.rate_per_ns * (tenant.on_ns + tenant.off_ns) / tenant.on_ns
        on_ns, off_rate = tenant.on_ns, 1.0 / tenant.off_ns
        lo, hi = tenant.size_min, tenant.size_max
        pairs = []
        for _ in range(count):
            gap = expovariate(boost_rate)
            # With probability gap/on_ns-ish the burst ends; approximate the
            # alternating renewal by injecting an OFF gap whenever a draw
            # says the ON phase expired before this arrival.
            if random() < min(1.0, gap / on_ns):
                gap += expovariate(off_rate)
            pairs.append((gap, randint(lo, hi)))
        return pairs

    def _pregen_diurnal(self, rng, count: int):
        """Sinusoidal rate modulation via thinning against the peak rate.

        The acceptance phase depends on absolute time, so the batch tracks a
        virtual clock seeded from ``sim.now``; the kernel preserves exact
        float nanoseconds across delays, so accumulating gaps here lands on
        bit-identical phases to evaluating ``sim.now`` per request.
        """
        tenant = self.tenant
        expovariate, random, randint = rng.expovariate, rng.random, rng.randint
        peak = 2.0 * self.rate_per_ns
        period_ns = tenant.period_ns
        two_pi, sin = 2.0 * math.pi, math.sin
        lo, hi = tenant.size_min, tenant.size_max
        now = self.sim.now
        pairs = []
        for _ in range(count):
            elapsed = 0.0
            while True:
                elapsed += expovariate(peak)
                accept = 0.5 * (1.0 + sin(two_pi * ((now + elapsed) / period_ns)))
                if random() < accept:
                    break
            pairs.append((elapsed, randint(lo, hi)))
            now += elapsed
        return pairs

    # ------------------------------------------------------------------ #
    # Closed-loop clients
    # ------------------------------------------------------------------ #
    def _closed_client(self, index: int):
        tenant = self.tenant
        rng = self._random(tenant.rng_seed(self.seed, stream=index + 1))
        completed = 0
        if self.start_delay_ns > 0:
            yield Delay(self.start_delay_ns)
        # Stagger client start-up so the population does not arrive as one
        # synchronized burst at t=0.
        yield Delay(rng.expovariate(1.0 / max(1.0, tenant.think_ns)))
        while self.sim.now < self.duration_ns:
            request = self._make_request(rng)
            request.completion = self.sim.event(
                name=f"{tenant.name}.{request.request_id}.done")
            self.submit(request)
            yield request.completion
            completed += 1
            yield Delay(rng.expovariate(1.0 / max(1.0, tenant.think_ns)))
        return completed


def open_loop_rates(tenants: Sequence[TenantSpec],
                    total_rate_rps: float) -> List[float]:
    """Each tenant's share of ``total_rate_rps``, split by ``weight``.

    Only open-loop tenants share the rate; closed-loop tenants pace
    themselves and get 0.0.
    """
    open_weight = sum(t.weight for t in tenants if t.pattern != "closed")
    return [total_rate_rps * tenant.weight / open_weight
            if tenant.pattern != "closed" and open_weight > 0 else 0.0
            for tenant in tenants]


def build_sources(
    sim: Simulator,
    tenants: Tuple[TenantSpec, ...],
    submit: Callable[[Request], None],
    total_rate_rps: float,
    duration_ns: float,
    seed: int,
) -> List[TrafficSource]:
    """One :class:`TrafficSource` per tenant at its :func:`open_loop_rates`
    share of ``total_rate_rps``.  Request ids are partitioned per tenant
    (stride 1M) so ids are unique and independent of interleaving.
    """
    rates = open_loop_rates(tenants, total_rate_rps)
    return [TrafficSource(sim, tenant, submit, rate,
                          duration_ns=duration_ns, seed=seed,
                          start_id=index * 1_000_000)
            for index, (tenant, rate) in enumerate(zip(tenants, rates))]


@dataclass(frozen=True)
class ClientPopulation:
    """A closed-loop client population thinned into tractable open streams.

    The fleet experiments model "millions of users": ``clients`` interactive
    callers that each submit a request, wait, think for ``think_ms`` on
    average, and repeat.  Simulating every client as a process is hopeless at
    that scale, so the population is *thinned*: superposing millions of
    sparse independent renewal processes converges to a Poisson stream at the
    population's aggregate rate (Palm–Khintchine), and sampling a Poisson
    stream with probability ``1/thin_factor`` is again Poisson at the scaled
    rate.  Each simulated request therefore stands for ``thin_factor`` real
    ones; fleet reports multiply measured goodput back up by the same factor.
    """

    clients: int
    #: Mean think time between a client's completions and its next request.
    think_ms: float = 50.0
    #: Every simulated request stands for this many real ones.
    thin_factor: float = 1000.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"need >= 1 client, got {self.clients}")
        if self.think_ms <= 0:
            raise ValueError(f"think_ms must be positive, got {self.think_ms}")
        if self.thin_factor < 1:
            raise ValueError(f"thin_factor must be >= 1, got {self.thin_factor}")

    @property
    def offered_rps(self) -> float:
        """Aggregate request rate of the full (un-thinned) population."""
        return self.clients / (self.think_ms * 1e-3)

    @property
    def thinned_rps(self) -> float:
        """The rate the simulation actually offers."""
        return self.offered_rps / self.thin_factor
