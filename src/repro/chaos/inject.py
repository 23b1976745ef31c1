"""Fault injection against a live :class:`~repro.serve.scheduler.FabricScheduler`.

The :class:`FaultInjector` arms one simulation process per
:class:`~repro.chaos.schedule.FaultEvent`: the process sleeps until the
event's injection instant, applies the fault through the scheduler's chaos
APIs, and — for transient faults — sleeps ``repair_ns`` longer and undoes
it.  All randomness was already resolved when the events were drawn, so the
injector itself is completely deterministic: the same event tuple against
the same scheduler produces the same trace.

What each kind does:

* ``fabric`` — :meth:`FabricScheduler.fail_fabric` (``scope="node"`` kills
  every fabric).  With ``repair_ns > 0`` the fabric heals after that long,
  configuration memory blank (the next request pays a full reprogram).
* ``seu`` — :meth:`FabricScheduler.corrupt_image` flips bits in one stored
  accelerator image.  Latent: nothing happens until a fabric next programs
  that image and the engine's integrity check trips; then the scheduler
  either scrubs + replays (built with ``recovery=True``) or poisons the
  accelerator.
* ``link`` — :meth:`FabricScheduler.cut_link` cuts one link of the chain of
  control links from the control tile (fabric 0); every fabric past the
  cut fails, and heals when the link repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.sim import Delay


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a run needs to inject faults: a schedule + a policy.

    ``recovery`` selects the failover path: replay lost requests through
    surviving fabrics and scrub corrupt images (True), or shed everything a
    fault touches (False — the ablation baseline the chaos experiment
    compares against).
    """

    schedule: FaultSchedule
    recovery: bool = True


class FaultInjector:
    """Arms fault events against one scheduler; purely event-driven."""

    def __init__(self, sim, scheduler, events: Sequence[FaultEvent]) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        #: Accelerator names SEUs can hit; the event's fabric draw indexes
        #: this list (mod its length), so targeting is plain-data too.
        self.targets: Tuple[str, ...] = tuple(sorted(scheduler.accelerators))
        for index, event in enumerate(self.events):
            sim.process(self._run(event),
                        name=f"chaos.{event.kind}.{index}")

    # ------------------------------------------------------------------ #
    def _run(self, event: FaultEvent):
        if event.time_ns > 0:
            yield Delay(event.time_ns)
        repair = self._apply(event)
        self.scheduler.fault_stats["faults_injected"].increment()
        tracer = self.scheduler.tracer
        if tracer is not None:
            tracer.instant(f"fault_{event.kind}", "chaos", self.sim.now_ps,
                           cat="chaos", args={"fabric": event.fabric,
                                              "scope": event.scope})
        if repair is not None and event.repair_ns > 0:
            yield Delay(event.repair_ns)
            repair()
            if tracer is not None:
                tracer.instant(f"repair_{event.kind}", "chaos",
                               self.sim.now_ps, cat="chaos",
                               args={"fabric": event.fabric})
        return None

    def _apply(self, event: FaultEvent) -> Optional[Callable[[], None]]:
        """Inject one event; returns the repair action for transient kinds."""
        scheduler = self.scheduler
        if event.kind == "fabric":
            if event.scope == "node":
                killed = tuple(
                    index for index in range(len(scheduler.fabrics))
                    if scheduler.fail_fabric(index, reason="fabric"))
            else:
                killed = ((event.fabric,)
                          if scheduler.fail_fabric(event.fabric, reason="fabric")
                          else ())
            if not killed:
                return None
            return lambda: [scheduler.heal_fabric(index) for index in killed]
        if event.kind == "seu":
            if not self.targets:
                return None
            name = self.targets[event.fabric % len(self.targets)]
            scheduler.corrupt_image(name, event.seu_offset, event.seu_mask)
            return None  # scrubbed on detection, not on a timer
        if event.kind == "link":
            fabrics = len(scheduler.fabrics)
            if fabrics < 2:
                return None  # one fabric has no control link to cut
            link = min(event.fabric, fabrics - 2)
            scheduler.cut_link(link)
            return lambda: scheduler.restore_link(link)
        raise ValueError(f"unknown fault kind {event.kind!r}")  # pragma: no cover
