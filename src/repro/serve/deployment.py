"""One serving deployment: the wiring ``run_serve`` and every fleet node share.

Callers keep only what differs between them: their traffic processes and
how they turn the finished deployment into rows (``run_serve``) or a node
report (``simulate_node``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.obs.metrics import MetricsSnapshot
from repro.serve.scheduler import FabricScheduler, ServeConfig
from repro.serve.slo import SloMonitor
from repro.sim import Simulator

#: Livelock guard: no serving run comes near this many kernel events.
MAX_EVENTS = 20_000_000


class Deployment:
    """A simulator, a named SLO monitor and the scheduler it watches, built
    with its tracer, telemetry and recovery mode, then the optional layers
    in a fixed order that every golden was recorded with: one energy model
    per fabric, then chaos (fabrics carried over dead, fault injector).

    ``chaos_events`` is ``None`` for a fault-free run; any sequence, even an
    empty one, engages chaos: ``failed_fabrics`` start dead, and the
    stranded queue is shed after the run so submitted == completed + shed
    holds.  ``recovery`` is the scheduler's fault path (see
    :class:`~repro.serve.scheduler.FabricScheduler`).
    """

    def __init__(self, config: ServeConfig, name: str = "serve",
                 tracer: Optional[Any] = None,
                 telemetry_window_us: Optional[float] = None,
                 node_id: int = 0, epoch: int = 0, t0_ps: int = 0,
                 power: bool = False,
                 chaos_events: Optional[Sequence[Any]] = None,
                 recovery: bool = True,
                 failed_fabrics: Sequence[int] = ()) -> None:
        if power and config.regions > 1:
            raise ValueError(
                "power accounting is not supported with regions > 1: the "
                "EnergyModel tracks one shared eFPGA clock domain, but a "
                "region grid runs each resident design at its own clock")
        self.name = name
        self.sim = Simulator()
        self.monitor = SloMonitor(self.sim, name=name)
        self.telemetry = None
        if telemetry_window_us is not None:
            from repro.obs.monitor import TelemetryMonitor

            self.telemetry = TelemetryMonitor(
                self.monitor, telemetry_window_us * 1000.0, node_id=node_id,
                epoch=epoch, t0_ps=t0_ps)
        self.scheduler = scheduler = FabricScheduler(
            self.sim, config, monitor=self.monitor, tracer=tracer,
            telemetry=self.telemetry, recovery=recovery)
        self.energy = self._attach_energy() if power else []
        self.chaos = chaos_events is not None
        if self.chaos:
            from repro.chaos import FaultInjector

            # Damage carried over from earlier epochs: dead before t=0, no
            # new fault window opens (the impact was accounted when it
            # happened).
            for index in failed_fabrics:
                if 0 <= index < len(scheduler.fabrics):
                    scheduler.fabrics[index].fail(reason="carryover")
            FaultInjector(self.sim, scheduler, chaos_events)

    def _attach_energy(self) -> List[Any]:
        """One :class:`EnergyModel` per fabric (each tracks its own eFPGA
        clock domain); the deployment's energy is their sum."""
        from repro.power.model import EnergyModel, PowerConfig

        scheduler = self.scheduler
        # The fabric silicon is provisioned for the largest catalog
        # bitstream it may host (fixed leakage area, like real silicon).
        area_mm2 = max(accelerator.synthesis.area_mm2
                       for accelerator in scheduler.accelerators.values())
        models = []
        for fabric in scheduler.fabrics:
            energy = EnergyModel(PowerConfig(enabled=True), self.sim,
                                 name=f"{fabric.name}.energy")
            energy.sys_domain = scheduler.sys_domain
            energy.fpga_domain = fabric.clock_generator.fpga_domain
            energy.num_tiles = 1
            energy.set_efpga_area(area_mm2)
            fabric.energy = energy
            models.append(energy)
        return models

    def run(self, processes: Sequence[Any], horizon_ns: float) -> float:
        """Close admission once ``processes`` finish and run until the queue
        drains, energy windows and telemetry spanning the whole run; returns
        the measured window, ``max(sim.now, horizon_ns)``."""
        scheduler = self.scheduler

        def supervisor():
            for process in processes:
                if not process.finished:
                    yield process
            scheduler.close()

        self.sim.process(supervisor(), name=f"{self.name}.supervisor")
        for model in self.energy:
            model.begin_window()
        self.sim.run(max_events=MAX_EVENTS)
        if self.chaos:
            # A chaos run can end with every fabric dead and requests
            # stranded in the queue; shed them.
            scheduler.flush_pending()
        elapsed_ns = max(self.sim.now, horizon_ns)
        for model in self.energy:
            model.end_window()
        if self.telemetry is not None:
            self.telemetry.finalize(elapsed_ns)
        return elapsed_ns

    def metrics(self) -> MetricsSnapshot:
        """A snapshot of the deployment's one registry, which the scheduler
        and the SLO monitor share.

        Every tenant gets its ``latency_ns.<tenant>`` histogram first, so a
        tenant that never completed still shows up, with no samples.
        """
        for name in sorted(self.monitor.accounts):
            self.monitor.latency_histogram(name)
        return self.monitor.metrics.snapshot()
