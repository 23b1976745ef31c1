"""The traced run: timing wrappers around each layer's public entry points.

:func:`install` replaces each entry point listed in :data:`HOOKS` with a
wrapper that reports to a :class:`Profiler`.  It is called only in the
traced child process, after set-up, so untraced runs execute unmodified
code.  Host timestamps stay here: nothing is written into
``repro.obs.Tracer``, whose simulated-time traces are part of the outputs
the benchmark checks.

A name imported by value (``from m import f``) must be patched in the
module that looks it up, which is why ``simulate_node`` is patched in
``repro.fleet.cluster`` and ``materialize`` in ``repro.serve.scheduler``.
Each workload names the layers it must hit; a wrapper that sees no call
there fails the traced run, which catches a hook patched in the wrong place.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import common
#: The measured repetition itself; its self time is the work outside
#: every wrapped layer.
ROOT = "bench.workload"

#: Wrapper kinds: ``span`` times the call and keeps a Chrome-trace span;
#: ``hot`` times it without a span (called per request or per event);
#: ``count`` only counts calls (generator functions, whose body runs after
#: they return, and calls too frequent to time).
SPAN, HOT, COUNT = "span", "hot", "count"


class Hook(NamedTuple):
    layer: str
    module: str
    #: ``Class.method`` or a module-level function name.
    path: str
    kind: str


HOOKS: Tuple[Hook, ...] = (
    Hook("serve.scheduler.construct", "repro.serve.scheduler", "FabricScheduler.__init__", SPAN),
    Hook("serve.catalog.materialize", "repro.serve.scheduler", "materialize", SPAN),
    Hook("fpga.synthesis.implement", "repro.fpga.synthesis", "SynthesisModel.implement", SPAN),
    Hook("fpga.bitstream.generate", "repro.fpga.bitstream", "Bitstream.generate", SPAN),
    Hook("fpga.bitstream.verify", "repro.fpga.bitstream", "Bitstream.verify", COUNT),
    Hook("reconfig.plan.build", "repro.reconfig.plan", "RegionPlan.build", SPAN),
    Hook("reconfig.placement.place", "repro.reconfig.placement", "RegionAllocator.place", HOT),
    Hook("sim.kernel.run", "repro.sim.kernel", "Simulator.run", SPAN),
    Hook("serve.scheduler.submit", "repro.serve.scheduler", "FabricScheduler.submit", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_submit", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_shed", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_dequeue", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_complete", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_fault", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_fault_shed", HOT),
    Hook("serve.slo.hook", "repro.serve.slo", "SloMonitor.on_replay", HOT),
    Hook("obs.trace.record", "repro.obs.trace", "Tracer.complete", HOT),
    Hook("obs.trace.record", "repro.obs.trace", "Tracer.instant", HOT),
    Hook("obs.trace.record", "repro.obs.trace", "Tracer.end", HOT),
    Hook("obs.trace.export", "repro.obs.trace", "Tracer.to_json", SPAN),
    Hook("obs.monitor.tick", "repro.obs.monitor", "TelemetryMonitor.tick", HOT),
    Hook("obs.decompose.rows", "repro.obs.decompose", "decompose_rows", SPAN),
    Hook("obs.alerts.observe", "repro.obs.alerts", "AlertEngine.observe", HOT),
    Hook("obs.metrics.merge", "repro.obs.metrics", "MetricsSnapshot.merge", HOT),
    Hook("fleet.cluster.run", "repro.fleet.cluster", "run_fleet", SPAN),
    Hook("fleet.node.simulate", "repro.fleet.cluster", "simulate_node", SPAN),
    Hook("fleet.router.place", "repro.fleet.router", "Router.place", SPAN),
    Hook("fleet.router.rebalance", "repro.fleet.router", "Router.rebalance", SPAN),
    Hook("platform.dolly.install", "repro.platform.dolly", "DollySystem.install_accelerator", SPAN),
    Hook("platform.dolly.run_programs", "repro.platform.dolly", "DollySystem.run_programs", SPAN),
    Hook("noc.network.send", "repro.noc.network", "NocNetwork.send", COUNT),
    Hook("mem.private_cache.ops", "repro.mem.private_cache", "PrivateCacheAgent.load", COUNT),
    Hook("mem.private_cache.ops", "repro.mem.private_cache", "PrivateCacheAgent.store", COUNT),
    Hook("mem.private_cache.ops", "repro.mem.private_cache", "PrivateCacheAgent.amo", COUNT),
    Hook("api.runner.cell", "repro.api.runner", "_call_cell", SPAN),
)


class LayerStats:
    """Calls and host time of one layer."""

    __slots__ = ("calls", "inclusive_s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        #: Open calls of this layer; only the outermost adds inclusive time.
        self.active = 0


class Profiler:
    """Per-layer call counts, inclusive and self host time, and spans.

    One stack of open frames: a frame's self time is its duration minus
    that of the wrapped calls made inside it, so the self times of all
    layers plus the root's add up to the root's duration.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        #: Host seconds, leaving out the host-speed samples taken meanwhile.
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {}
        self._stack: List[List[float]] = []
        #: (layer, start_s, duration_s, depth) of ``span`` layers.
        self.spans: List[Tuple[str, float, float, int]] = []
        self.kernel_events = 0
        #: (design, columns, rows, regions) of every generated bitstream.
        self.images: List[Tuple[Any, ...]] = []

    def stats(self, layer: str) -> LayerStats:
        if layer not in self.layers:
            self.layers[layer] = LayerStats()
        return self.layers[layer]

    def timed(self, layer: str, fn: Callable, keep_span: bool) -> Callable:
        stats = self.stats(layer)
        stack = self._stack
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.active += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.active -= 1
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if not stats.active:
                    stats.inclusive_s += duration
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    spans.append((layer, start, duration, len(stack)))
        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        stats = self.stats(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def root(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` wrapped as the root span, the measured repetition."""
        return self.timed(ROOT, fn, keep_span=True)


def _count_kernel_events(profiler: Profiler, run: Callable) -> Callable:
    @functools.wraps(run)
    def wrapper(sim, *args, **kwargs):
        before = sim.events_executed
        try:
            return run(sim, *args, **kwargs)
        finally:
            profiler.kernel_events += sim.events_executed - before
    return wrapper


def _record_images(profiler: Profiler, generate: Callable) -> Callable:
    @functools.wraps(generate)
    def wrapper(cls, design, fabric, meta=None, regions=None):
        profiler.images.append((design.name, fabric.columns, fabric.rows, regions))
        return generate(cls, design, fabric, meta, regions)
    return wrapper


#: Extra bookkeeping applied under a layer's timing wrapper.
_ADAPTERS: Dict[str, Callable[[Profiler, Callable], Callable]] = {
    "sim.kernel.run": _count_kernel_events,
    "fpga.bitstream.generate": _record_images,
}


def install(profiler: Profiler) -> None:
    """Wrap every entry point in :data:`HOOKS` for ``profiler``."""
    for hook in HOOKS:
        owner = importlib.import_module(hook.module)
        *classes, attribute = hook.path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        raw = vars(owner)[attribute]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        adapter = _ADAPTERS.get(hook.layer)
        if adapter is not None:
            fn = adapter(profiler, fn)
        if hook.kind == COUNT:
            wrapped = profiler.counted(hook.layer, fn)
        else:
            wrapped = profiler.timed(hook.layer, fn, keep_span=hook.kind == SPAN)
        setattr(owner, attribute, classmethod(wrapped) if is_classmethod else wrapped)


def layer_metrics(profiler: Profiler, items: int,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition, named as in
    ``common.PER_LAYER``.  Counters a workload's rows lack, and
    ``bench.trace_overhead``, which needs the untraced run, read 0."""
    def calls(layer: str) -> int:
        return profiler.stats(layer).calls

    def inclusive(layer: str) -> float:
        return profiler.stats(layer).inclusive_s

    images = profiler.images
    cells = sorted(duration for layer, _, duration, _ in profiler.spans
                   if layer == "api.runner.cell")
    kernel_s = inclusive("sim.kernel.run")
    events = profiler.kernel_events
    metrics: Dict[str, float] = dict.fromkeys(
        (metric.name for metric in common.PER_LAYER), 0)
    metrics.update({
        "fpga.bitstream.generate_calls": calls("fpga.bitstream.generate"),
        "fpga.bitstream.generate_s": inclusive("fpga.bitstream.generate"),
        "fpga.bitstream.redundant_frac":
            1.0 - len(set(images)) / len(images) if images else 0.0,
        "fpga.bitstream.verify_calls": calls("fpga.bitstream.verify"),
        "fpga.synthesis.implement_s": inclusive("fpga.synthesis.implement"),
        "serve.catalog.materialize_s": inclusive("serve.catalog.materialize"),
        "reconfig.plan.build_s": inclusive("reconfig.plan.build"),
        "serve.scheduler.construct_s": inclusive("serve.scheduler.construct"),
        "sim.kernel.run_s": kernel_s,
        "sim.kernel.self_s": profiler.stats("sim.kernel.run").self_s,
        "sim.kernel.events": events,
        "sim.kernel.events_per_s": events / kernel_s if kernel_s else 0.0,
        "sim.kernel.events_per_req": events / items if items else 0.0,
        "serve.scheduler.submit_calls": calls("serve.scheduler.submit"),
        "serve.scheduler.submit_s": inclusive("serve.scheduler.submit"),
        "serve.slo.hook_s": inclusive("serve.slo.hook"),
        "obs.trace.record_s": inclusive("obs.trace.record"),
        "obs.trace.events": calls("obs.trace.record"),
        "obs.trace.export_s": inclusive("obs.trace.export"),
        "obs.monitor.tick_s": inclusive("obs.monitor.tick"),
        "obs.decompose.rows_s": inclusive("obs.decompose.rows"),
        "reconfig.placement.place_s": inclusive("reconfig.placement.place"),
        "fleet.node.simulate_calls": calls("fleet.node.simulate"),
        "fleet.node.simulate_s": inclusive("fleet.node.simulate"),
        "fleet.router.place_s": inclusive("fleet.router.place"),
        "fleet.router.rebalance_s": inclusive("fleet.router.rebalance"),
        "obs.alerts.observe_s": inclusive("obs.alerts.observe"),
        "obs.metrics.merge_s": inclusive("obs.metrics.merge"),
        "fleet.cluster.self_s": profiler.stats("fleet.cluster.run").self_s,
        "platform.dolly.install_s": inclusive("platform.dolly.install"),
        "platform.dolly.run_programs_s": inclusive("platform.dolly.run_programs"),
        "noc.network.send_calls": calls("noc.network.send"),
        "mem.private_cache.ops": calls("mem.private_cache.ops"),
        "api.runner.cell_p50_s": statistics.median(cells) if cells else 0.0,
        "api.runner.cell_max_s": cells[-1] if cells else 0.0,
    })
    metrics.update(counters)
    return metrics


def self_check(profiler: Profiler, wall_s: float,
               required: Tuple[str, ...]) -> List[str]:
    """Failures of the traced run's own consistency checks."""
    failures = [f"traced layer {layer} saw no call" for layer in required
                if profiler.stats(layer).calls == 0]
    accounted = sum(stats.self_s for stats in profiler.layers.values())
    if abs(accounted - wall_s) > 0.01 * wall_s:
        failures.append(f"layer self times add up to {accounted:.4f} s "
                        f"of a {wall_s:.4f} s repetition")
    return failures


def chrome_trace(traces: Dict[str, List[Tuple[str, float, float, int]]]) -> Dict[str, Any]:
    """Chrome trace-event JSON of the spans of each traced workload, one
    process per workload, timestamps in host microseconds from its root."""
    events: List[Dict[str, Any]] = []
    for pid, (workload, spans) in enumerate(sorted(traces.items()), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": workload}})
        origin = min(start for _, start, _, _ in spans)
        for layer, start, duration, depth in spans:
            events.append({"ph": "X", "name": layer, "cat": "host",
                           "pid": pid, "tid": 1,
                           "ts": (start - origin) * 1e6, "dur": duration * 1e6,
                           "args": {"depth": depth}})
    return {"displayTimeUnit": "ms", "otherData": {"clock": "host"},
            "traceEvents": events}
