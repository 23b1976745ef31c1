"""Per-tenant service-level accounting for the serving subsystem.

The monitor is pure observation: the scheduler reports admissions,
sheddings and completions.  Each request outcome is counted once, in its
tenant's :class:`TenantAccount`; the deployment's metrics registry holds
the per-tenant latency :class:`~repro.sim.stats.Histogram`\\ s
(p50/p95/p99 via nearest-rank) and the queue-depth
:class:`~repro.sim.stats.TimeSeries`.  Goodput is defined the strict way:
only requests that *completed within their tenant's SLO* count, so an
overloaded policy cannot buy throughput by blowing the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import LifecycleSubscriber
from repro.serve.traffic import Request
from repro.sim import TimeSeries
from repro.sim.stats import Histogram

#: The latency percentiles every tenant row reports, as (label, fraction).
#: ``p999`` (and the ``max_latency_us`` column next to the loop over this
#: tuple) arrived with :mod:`repro.obs`: chaos recovery spikes live beyond
#: p99, so tail analysis that stops there cannot see them.  The pre-p999
#: columns keep their exact values — goldens recorded before the extension
#: still match on every column they name.
REPORT_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
                      ("p999", 0.999))


@dataclass
class TenantAccount:
    """Aggregated outcomes for one tenant."""

    name: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    slo_violations: int = 0
    slo_ns: float = 0.0
    #: Completions that met the tenant's SLO (the goodput numerator).
    good: int = 0
    service_ns_total: float = 0.0
    queue_wait_ns_total: float = 0.0
    # -- chaos accounting (all zero unless faults were injected) -------- #
    #: Requests lost to a fault (dead fabric, corrupt image) and shed.
    fault_shed: int = 0
    #: Requests replayed through a surviving fabric after a fault.
    replayed: int = 0
    #: Sum over faults of (first post-fault completion - fault instant).
    recovery_time_ns: float = 0.0

    def add(self, counts: Dict[str, Any]) -> None:
        """Fold in another account's ``vars()`` (or a fleet node report's
        tenant dict): every field but ``name`` and ``slo_ns`` adds up."""
        for key in ADDITIVE_FIELDS:
            setattr(self, key, getattr(self, key) + counts[key])


#: The :class:`TenantAccount` fields that add up across tenants and nodes.
ADDITIVE_FIELDS = ("submitted", "completed", "shed", "slo_violations", "good",
                   "service_ns_total", "queue_wait_ns_total", "fault_shed",
                   "replayed", "recovery_time_ns")


def tenant_row(account: TenantAccount, samples: List[float], elapsed_ns: float,
               extra: Optional[Dict[str, Any]], chaos: bool) -> Dict[str, Any]:
    """One report row: ``extra`` columns, then the account's counts, rates
    and latency percentiles over ``samples``; the chaos columns only when
    ``chaos`` (so fault-free runs stay bit-identical to their goldens).
    Serve and fleet rows share this shape."""
    histogram = Histogram(account.name, samples=list(samples))
    row: Dict[str, Any] = dict(extra or {})
    completed = account.completed
    row.update({
        "tenant": account.name,
        "submitted": account.submitted,
        "completed": completed,
        "shed": account.shed,
        "slo_violations": account.slo_violations,
        "slo_ns": account.slo_ns,
        "goodput_krps": account.good / elapsed_ns * 1e6 if elapsed_ns else 0.0,
        "throughput_krps": completed / elapsed_ns * 1e6 if elapsed_ns else 0.0,
        "mean_latency_us": histogram.mean / 1000.0,
        "mean_queue_wait_us": (
            account.queue_wait_ns_total / completed / 1000.0 if completed else 0.0),
    })
    for label, fraction in REPORT_PERCENTILES:
        row[f"{label}_latency_us"] = histogram.percentile(fraction) / 1000.0
    row["max_latency_us"] = histogram.maximum / 1000.0
    if chaos:
        row["fault_shed"] = account.fault_shed
        row["replayed"] = account.replayed
        row["recovery_time_ns"] = account.recovery_time_ns
    return row


def tenant_rows(accounts: Dict[str, TenantAccount],
                samples: Dict[str, List[float]], elapsed_ns: float,
                extra: Optional[Dict[str, Any]],
                chaos: bool) -> List[Dict[str, Any]]:
    """One :func:`tenant_row` per account in name order (deterministic
    whatever the completion interleaving), then an ``__all__`` row over
    their summed counts and concatenated samples."""
    rows: List[Dict[str, Any]] = []
    totals = TenantAccount(name="__all__")
    all_samples: List[float] = []
    for name in sorted(accounts):
        totals.add(vars(accounts[name]))
        all_samples.extend(samples[name])
        rows.append(tenant_row(accounts[name], samples[name], elapsed_ns,
                               extra, chaos))
    rows.append(tenant_row(totals, all_samples, elapsed_ns, extra, chaos))
    return rows


class SloMonitor(LifecycleSubscriber):
    """Collects per-tenant latency/queue/goodput statistics for one run."""

    def __init__(self, sim, name: str = "serve") -> None:
        self.sim = sim
        self.name = name
        #: The deployment's one registry (:mod:`repro.obs.metrics`), shared
        #: with the scheduler; ``self.stats`` is its backing StatSet.
        self.metrics = MetricsRegistry(f"{name}.slo")
        self.stats = self.metrics.stats
        self.accounts: Dict[str, TenantAccount] = {}
        self.queue_depth: TimeSeries = self.stats.series("queue_depth")
        #: Number of fault instants observed (0 on every fault-free run).
        self.faults = 0
        # Tenants with an open recovery window: name -> fault instant (ns).
        self._recovery_pending: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Scheduler-facing recording hooks
    # ------------------------------------------------------------------ #
    def _account(self, request: Request) -> TenantAccount:
        return self.register(request.tenant, request.slo_ns)

    def register(self, tenant: str, slo_ns: float) -> TenantAccount:
        """Pre-create a tenant account so the tenant reports even when it
        never manages to submit (e.g. a migration blackout swallows its
        whole epoch).  Idempotent; returns the account."""
        account = self.accounts.get(tenant)
        if account is None:
            account = TenantAccount(name=tenant, slo_ns=slo_ns)
            self.accounts[tenant] = account
        return account

    def on_submit(self, request: Request, queue_depth: int) -> None:
        self._account(request).submitted += 1
        self.queue_depth.record(self.sim.now, queue_depth)

    def on_shed(self, request: Request) -> None:
        account = self._account(request)
        account.submitted += 1  # shed requests were still offered
        account.shed += 1

    def on_dequeue(self, request: Request, queue_depth: int, fabric) -> None:
        self.queue_depth.record(self.sim.now, queue_depth)

    def on_complete(self, request: Request, fabric=None) -> None:
        account = self._account(request)
        account.completed += 1
        account.queue_wait_ns_total += request.queue_wait_ns
        account.service_ns_total += request.finish_ns - request.start_ns
        latency = request.latency_ns
        self.stats.histogram(f"latency_ns.{request.tenant}").record(latency)
        if request.slo_met:
            account.good += 1
        elif request.slo_ns > 0:
            account.slo_violations += 1
        fault_at = self._recovery_pending.pop(request.tenant, None)
        if fault_at is not None:
            account.recovery_time_ns += self.sim.now - fault_at

    # ------------------------------------------------------------------ #
    # Chaos hooks (never called on a fault-free run)
    # ------------------------------------------------------------------ #
    def on_fault(self, time_ns: float) -> None:
        """A fault was injected: open a recovery window for every tenant.

        Each tenant's window closes at its first post-fault completion;
        the elapsed time accumulates into ``recovery_time_ns``.  Windows
        do not stack — a second fault before recovery extends nothing.
        """
        self.faults += 1
        for name in self.accounts:
            self._recovery_pending.setdefault(name, time_ns)

    def on_fault_shed(self, request: Request) -> None:
        """A previously-admitted request was lost to a fault and shed.

        Unlike :meth:`on_shed` this does *not* count a new submission —
        the request was already admitted once."""
        account = self._account(request)
        account.shed += 1
        account.fault_shed += 1

    def on_replay(self, request: Request, queue_depth: int) -> None:
        """A fault-lost request re-entered the queue for another attempt."""
        self._account(request).replayed += 1
        self.queue_depth.record(self.sim.now, queue_depth)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def latency_histogram(self, tenant: str):
        return self.stats.histogram(f"latency_ns.{tenant}")

    def tenant_rows(self, elapsed_ns: float,
                    extra: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        """:func:`tenant_rows` over this run: ``elapsed_ns`` is the goodput
        denominator, and chaos columns appear once a fault was injected."""
        if elapsed_ns <= 0:
            raise ValueError(f"elapsed_ns must be positive, got {elapsed_ns}")
        samples = {name: self.latency_histogram(name).samples
                   for name in sorted(self.accounts)}
        return tenant_rows(self.accounts, samples, elapsed_ns, extra,
                           self.faults > 0)
