"""Metric definitions and summary statistics shared by ``run.py`` and
``compare.py``.

The tables here are the benchmark's contract with ``BENCHMARK.json`` at
the repository root; ``tests/test_bench.py`` checks that the two agree.
Importing this module imports nothing from ``repro``.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

#: Seconds :func:`calibrate` takes when the host runs at its reference
#: speed: about its median on the 2-vCPU x86-64 VM the baseline was
#: measured on, when nothing else loaded that VM's host.
REFERENCE_CALIBRATION_S = 0.0100
#: Host seconds of timed work between two :func:`calibrate` samples.
SAMPLE_INTERVAL_S = 0.2


class Metric(NamedTuple):
    name: str
    unit: str
    better: str            # "lower" | "higher"
    bound: float = 0.0     # share of the parent's median a regression may take


#: End-to-end metrics measured with tracing off.  All are host-side and
#: apply to every workload.  Host times are medians at the reference host
#: speed (see :class:`HostClock`).  Across ten seeds on the loaded 2-vCPU
#: host the baseline was measured on, the run medians of ``wall_s`` and
#: ``sim_req_per_s`` spread by at most 4.4% (quartile distance over
#: median), so their 15% bound is over three spreads wide.  A process's
#: peak RSS for ``paper_figs`` is either ~40.6 or ~42.5 MB, and a run has
#: one or two such processes, so ``peak_rss_mb`` can spread by 4.6%; its
#: bound is 20%.  ``setup_s``, a few short samples per run (spread up to
#: 12%), has the largest bound, so that work moved into set-up still shows.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.15),
    Metric("sim_req_per_s", "1/s", "higher", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)

#: Simulated outputs.  They are deterministic per seed, so they compare
#: exactly between commits and carry no bound.  ``sim_shed_frac`` is 0 on
#: the serve workloads, which is why these are printed and recorded beside
#: the end-to-end metrics rather than listed in ``BENCHMARK.json``.
SIM_OUTPUTS = (
    Metric("sim_p50_us", "us", "lower"),
    Metric("sim_p999_us", "us", "lower"),
    Metric("sim_goodput_krps", "krps", "higher"),
    Metric("sim_shed_frac", "fraction", "lower"),
    Metric("sim_paper_err", "ratio", "lower"),
)

#: Per-layer metrics from the traced run (``--trace 1``).  Host time is
#: inclusive around each wrapped public call unless the name says
#: ``self_s``; names whose last part starts with ``sim_`` are modelled
#: counters read off the output rows.
PER_LAYER = (
    Metric("fpga.bitstream.generate_calls", "count", "lower"),
    Metric("fpga.bitstream.generate_s", "s", "lower"),
    Metric("fpga.bitstream.redundant_frac", "fraction", "lower"),
    Metric("fpga.bitstream.verify_calls", "count", "lower"),
    Metric("fpga.synthesis.implement_s", "s", "lower"),
    Metric("serve.catalog.materialize_s", "s", "lower"),
    Metric("reconfig.plan.build_s", "s", "lower"),
    Metric("serve.scheduler.construct_s", "s", "lower"),
    Metric("sim.kernel.run_s", "s", "lower"),
    Metric("sim.kernel.self_s", "s", "lower"),
    Metric("sim.kernel.events", "count", "lower"),
    Metric("sim.kernel.events_per_s", "1/s", "higher"),
    Metric("sim.kernel.events_per_req", "events/req", "lower"),
    Metric("serve.scheduler.submit_calls", "count", "lower"),
    Metric("serve.scheduler.submit_s", "s", "lower"),
    Metric("serve.slo.hook_s", "s", "lower"),
    Metric("obs.trace.record_s", "s", "lower"),
    Metric("obs.trace.events", "count", "lower"),
    Metric("obs.trace.export_s", "s", "lower"),
    Metric("obs.monitor.tick_s", "s", "lower"),
    Metric("obs.decompose.rows_s", "s", "lower"),
    Metric("reconfig.placement.place_s", "s", "lower"),
    Metric("fleet.node.simulate_calls", "count", "lower"),
    Metric("fleet.node.simulate_s", "s", "lower"),
    Metric("fleet.router.place_s", "s", "lower"),
    Metric("fleet.router.rebalance_s", "s", "lower"),
    Metric("obs.alerts.observe_s", "s", "lower"),
    Metric("obs.metrics.merge_s", "s", "lower"),
    Metric("fleet.cluster.self_s", "s", "lower"),
    Metric("platform.dolly.install_s", "s", "lower"),
    Metric("platform.dolly.run_programs_s", "s", "lower"),
    Metric("noc.network.send_calls", "count", "lower"),
    Metric("mem.private_cache.ops", "count", "lower"),
    Metric("api.runner.cell_p50_s", "s", "lower"),
    Metric("api.runner.cell_max_s", "s", "lower"),
    Metric("serve.scheduler.sim_queue_wait_us_mean", "us", "lower"),
    Metric("serve.scheduler.sim_reconfig_overhead", "fraction", "lower"),
    Metric("serve.scheduler.sim_reconfigurations", "count", "lower"),
    Metric("core.control_hub.sim_program_us", "us", "lower"),
    Metric("reconfig.placement.sim_evictions", "count", "lower"),
    Metric("reconfig.placement.sim_fragmentation_mean", "fraction", "lower"),
    Metric("chaos.sim_faults_injected", "count", "lower"),
    Metric("chaos.sim_replayed", "count", "higher"),
    Metric("fleet.cluster.sim_spare_promotions", "count", "lower"),
    Metric("fleet.cluster.sim_migrations", "count", "lower"),
    Metric("obs.alerts.sim_fired", "count", "lower"),
    Metric("bench.trace_overhead", "fraction", "lower"),
)

METRICS: Dict[str, Metric] = {
    metric.name: metric for metric in END_TO_END + SIM_OUTPUTS + PER_LAYER}


def calibrate() -> float:
    """Host seconds of a fixed pure-Python event loop shaped like the
    simulator's (a heap of generator processes updating a dict), ~10 ms.

    The loop shares no code with ``repro``, so no change there moves it.
    The garbage collector is off while it runs: a collection there would
    charge the loop for the objects the measured work left behind.
    """
    state: Dict[int, int] = {}

    def process(index: int) -> Iterator[int]:
        for step in range(1, 46):
            state[index] = state.get(index, 0) + step
            yield (step * 7 + index) % 13 + 1

    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap = [(0, index, process(index)) for index in range(300)]
        heapq.heapify(heap)
        sequence = len(heap)
        while heap:
            now, _, proc = heapq.heappop(heap)
            for delay in proc:
                sequence += 1
                heapq.heappush(heap, (now + delay, sequence, proc))
                break
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Times work while sampling the host's speed during it.

    Shared hosts change speed for seconds to minutes at a time, by up to
    2x on the host this benchmark was built on, and a long repetition
    spans several such changes.  So :meth:`measure` runs :func:`calibrate`
    before its work, after every :data:`SAMPLE_INTERVAL_S` of it (from a
    ``SIGALRM`` handler) and after it.  The work's host seconds, which
    leave out the handler's, times ``REFERENCE_CALIBRATION_S /
    mean(samples)`` read as seconds at the reference speed.  The mean,
    not the median, because the work's seconds sum its slow stretches as
    the samples' mean does.  On a loaded host, medians of 15 s of
    repetitions spread by 8-18% uncorrected and 2.3-3.5% corrected so;
    the median of the samples left 4.7-5.8%, and samples taken only
    between repetitions could not follow a change inside a 10 s one.

    :meth:`now` is the clock with every handler's time left out; the
    traced run's layer wrappers read it too.  The handler touches only
    this object and re-arms its one-shot timer when done, so it never
    nests.
    """

    def __init__(self) -> None:
        self._excluded = 0.0
        self._samples: List[float] = []
        self._active = False
        signal.signal(signal.SIGALRM, self._sample)

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _sample(self, signum: int, frame: Any) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        self._samples.append(calibrate())
        self._excluded += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def measure(self, work: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``work``; returns its result, its host seconds and the
        host speed over it (reference seconds per host second)."""
        self._samples = [calibrate()]
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        start = self.now()
        try:
            result = work()
        finally:
            seconds = self.now() - start
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        samples = self._samples + [calibrate()]
        return result, seconds, REFERENCE_CALIBRATION_S / statistics.fmean(samples)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, sample count and quartiles of one metric's samples."""
    q1, _, q3 = quartiles(values)
    return {"value": statistics.median(values), "n": len(values),
            "q1": q1, "q3": q3}
