"""Streaming telemetry: windowed reads over the unified metrics layer.

End-of-run aggregates (``SloMonitor.tenant_rows``) answer *what happened*;
operations needs *what is happening* — windowed metric streams are what a
monitoring→alert→scale loop consumes.  This module adds that layer without
touching the simulation schedule:

* :class:`TelemetryMonitor` — tumbling-window reads over a live
  :class:`~repro.serve.slo.SloMonitor` (per-tenant goodput / shed rate,
  p99-over-window via cursors into the existing latency histograms,
  queue-depth level + slope from the queue-depth time series, fabric busy
  fraction from the scheduler's service accounting).  It owns **no sim
  processes and no timer events**: windows flush lazily whenever a
  lifecycle event crosses a window boundary (``tick``), plus a
  ``finalize`` sweep at run end.  Attaching a monitor therefore cannot
  perturb event ordering — monitor-on runs are bit-identical to
  monitor-off runs, not just "close" (pinned in ``tests/test_alerts.py``).
* :class:`TelemetryStream` — the plain-data result: a flat list of
  window-sample dicts with integer-ps timestamps that merges across fleet
  node reports exactly like
  :class:`~repro.obs.metrics.MetricsSnapshot` (deterministic
  ``(epoch, t_ps, node_id)`` order, the same bytes on every run), plus
  tumbling (:meth:`TelemetryStream.series`) and sliding
  (:meth:`TelemetryStream.sliding`) reads for consumers.

Window/boundary semantics: window ``k`` covers ``[k·w, (k+1)·w)`` —  an
event at exactly ``(k+1)·w`` first closes window ``k`` and then records
into window ``k+1``.  The scheduler hands each event to the telemetry
monitor *before* the SLO monitor records it, so the cursor deltas
captured at a close belong exactly to the closed window.  Zero-traffic
windows are still emitted (all-zero counts), because "no traffic
arrived" is itself a signal the alert layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import LifecycleSubscriber
from repro.sim.stats import nearest_rank

#: Fields of a window sample that :meth:`TelemetryStream.series` /
#: :meth:`TelemetryStream.sliding` can read (the flat numeric ones).
SAMPLE_METRICS = (
    "submitted", "completed", "good", "shed", "fault_shed", "resolved",
    "bad", "bad_fraction", "goodput_krps", "shed_rate", "p99_us",
    "queue_depth", "queue_slope_per_us", "busy_fraction",
)


@dataclass
class TelemetryStream:
    """A picklable sequence of window samples with a deterministic merge.

    ``samples`` is a list of plain dicts (JSON-shaped by contract — they
    travel inside node report dicts).  Each
    sample carries ``(epoch, node_id, seq, t_ps, window_ps)`` identity
    fields plus the :data:`SAMPLE_METRICS` readings and a ``tenants``
    sub-dict of per-tenant counts.
    """

    window_ps: int = 0
    samples: List[Dict[str, Any]] = field(default_factory=list)

    def merge(self, other: "TelemetryStream") -> None:
        if self.window_ps == 0:
            self.window_ps = other.window_ps
        elif other.window_ps not in (0, self.window_ps):
            raise ValueError(
                f"cannot merge streams with different windows: "
                f"{self.window_ps} vs {other.window_ps}")
        self.samples.extend(other.samples)

    @classmethod
    def merged(cls, streams: Iterable["TelemetryStream"]) -> "TelemetryStream":
        """Deterministic fold: concatenate then sort by the total key
        ``(epoch, t_ps, node_id, seq)``.  Because the key is total over
        samples from distinct (node, epoch) cells, the result is
        bit-identical whatever order the pieces arrive in."""
        result = cls()
        for stream in streams:
            result.merge(stream)
        result.samples.sort(
            key=lambda s: (s["epoch"], s["t_ps"], s["node_id"], s["seq"]))
        return result

    # ------------------------------------------------------------------ #
    # Window reads
    # ------------------------------------------------------------------ #
    def series(self, metric: str,
               node_id: Optional[int] = None) -> List[Tuple[int, float]]:
        """Tumbling read: ``(t_ps, value)`` per window for one metric."""
        if metric not in SAMPLE_METRICS:
            raise KeyError(f"unknown telemetry metric {metric!r}; "
                           f"one of {SAMPLE_METRICS}")
        return [(s["t_ps"], s[metric]) for s in self.samples
                if node_id is None or s["node_id"] == node_id]

    def sliding(self, metric: str, width: int,
                node_id: Optional[int] = None) -> List[Tuple[int, float]]:
        """Sliding read: rolling mean of the last ``width`` windows,
        advanced one window at a time (timestamp = right edge)."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        points = self.series(metric, node_id=node_id)
        out: List[Tuple[int, float]] = []
        for index in range(len(points)):
            lo = max(0, index - width + 1)
            chunk = [value for _, value in points[lo:index + 1]]
            out.append((points[index][0], sum(chunk) / len(chunk)))
        return out

    def node_ids(self) -> List[int]:
        return sorted({s["node_id"] for s in self.samples})

    # ------------------------------------------------------------------ #
    # Serialization (node reports are plain JSON data by contract)
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        return {"window_ps": self.window_ps,
                "samples": [dict(s) for s in self.samples]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryStream":
        return cls(window_ps=int(data.get("window_ps", 0)),
                   samples=[dict(s) for s in data.get("samples", [])])


class TelemetryMonitor(LifecycleSubscriber):
    """Tumbling-window emitter over one scheduler's SLO monitor.

    Pure observation: it never yields, schedules, or creates sim events.
    It subscribes to the scheduler's lifecycle events *ahead of* the SLO
    monitor and ticks on the seven that the monitor records (submit,
    shed, dequeue, complete, fault, fault_shed, replay); :meth:`finalize`
    flushes the trailing (possibly empty) windows when the run ends.
    """

    def __init__(self, monitor, window_ns: float, node_id: int = 0,
                 epoch: int = 0, t0_ps: int = 0) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.monitor = monitor
        #: Set by the :class:`~repro.serve.scheduler.FabricScheduler` built
        #: with this monitor; its fabrics' service time gives ``busy``.
        self.scheduler = None
        self.window_ns = float(window_ns)
        self.window_ps = int(round(window_ns * 1000.0))
        self.node_id = node_id
        self.epoch = epoch
        #: Global (fleet-timeline) ps offset of this run's t=0 — epoch
        #: number × epoch length for fleet nodes, 0 for standalone serves.
        self.t0_ps = t0_ps
        self.stream = TelemetryStream(window_ps=self.window_ps)
        self._seq = 0
        self._window_end_ns = self.window_ns
        # Cursors into the monitor's accumulating structures.
        self._counts: Dict[str, Tuple[int, int, int, int, int]] = {}
        self._hist_cursor: Dict[str, int] = {}
        self._queue_cursor = 0
        self._queue_last = 0.0
        self._busy_ns_last = 0.0

    # ------------------------------------------------------------------ #
    # Hook-facing API
    # ------------------------------------------------------------------ #
    def tick(self, now_ns: float) -> None:
        """Close every window whose end is <= ``now_ns``.  Called by the
        recording hooks *before* they record, so an event exactly at a
        boundary lands in the window it opens, not the one it closes."""
        while now_ns >= self._window_end_ns:
            self._close_window()

    def _tick_now(self, *_event) -> None:
        self.tick(self.monitor.sim.now)

    on_submit = on_shed = on_dequeue = on_complete = _tick_now
    on_fault_shed = on_replay = _tick_now

    def on_fault(self, time_ns: float) -> None:
        self.tick(time_ns)

    def finalize(self, end_ns: float) -> None:
        """Flush through ``end_ns`` at run end.  The final window is
        closed even when partial (its nominal boundaries are kept, so
        windows stay aligned across fleet nodes)."""
        while self._window_end_ns - self.window_ns < end_ns:
            self._close_window()

    # ------------------------------------------------------------------ #
    # Window close: cursor-delta reads over the registry structures
    # ------------------------------------------------------------------ #
    def _close_window(self) -> None:
        window_end_ns = self._window_end_ns
        sample: Dict[str, Any] = {
            "epoch": self.epoch,
            "node_id": self.node_id,
            "seq": self._seq,
            "t_ps": self.t0_ps + int(round(window_end_ns * 1000.0)),
            "window_ps": self.window_ps,
        }
        submitted = completed = good = shed = fault_shed = 0
        tenants: Dict[str, Dict[str, Any]] = {}
        window_latencies: List[float] = []
        for name in sorted(self.monitor.accounts):
            account = self.monitor.accounts[name]
            prev = self._counts.get(name, (0, 0, 0, 0, 0))
            cur = (account.submitted, account.completed, account.good,
                   account.shed, account.fault_shed)
            self._counts[name] = cur
            d_sub, d_comp, d_good, d_shed, d_fault = (
                c - p for c, p in zip(cur, prev))
            # .histograms().get(), not .histogram(): reading must not
            # create an empty histogram for a tenant with no completions.
            histogram = self.monitor.stats.histograms().get(f"latency_ns.{name}")
            cursor = self._hist_cursor.get(name, 0)
            latencies = histogram.samples[cursor:] if histogram is not None else []
            self._hist_cursor[name] = cursor + len(latencies)
            window_latencies.extend(latencies)
            submitted += d_sub
            completed += d_comp
            good += d_good
            shed += d_shed
            fault_shed += d_fault
            if d_sub or d_comp or d_shed:
                tenants[name] = {
                    "submitted": d_sub, "completed": d_comp, "good": d_good,
                    "shed": d_shed,
                    "p99_us": nearest_rank(latencies, 0.99) / 1000.0,
                }
        # Queue depth: level (last point wins, carried across empty
        # windows) and slope in depth-per-us across the window's points.
        series = self.monitor.queue_depth
        times = series.times[self._queue_cursor:]
        values = series.values[self._queue_cursor:]
        self._queue_cursor = len(series.times)
        slope = 0.0
        if values:
            self._queue_last = values[-1]
            span_ns = times[-1] - times[0]
            if span_ns > 0:
                slope = (values[-1] - values[0]) / (span_ns / 1000.0)
        busy_fraction = 0.0
        if self.scheduler is not None:
            busy_ns = sum(f.service_ns_total for f in self.scheduler.fabrics)
            busy_fraction = ((busy_ns - self._busy_ns_last)
                             / (self.window_ns * len(self.scheduler.fabrics)))
            self._busy_ns_last = busy_ns
        # "Resolved" = requests that reached an outcome in this window
        # (completed or shed); the burn-rate denominator.  Defined so a
        # zero-traffic window yields bad_fraction 0.0, not a divide error.
        resolved = completed + shed
        bad = resolved - good
        sample.update({
            "submitted": submitted,
            "completed": completed,
            "good": good,
            "shed": shed,
            "fault_shed": fault_shed,
            "resolved": resolved,
            "bad": bad,
            "bad_fraction": bad / resolved if resolved else 0.0,
            "goodput_krps": good / self.window_ns * 1e6,
            "shed_rate": shed / submitted if submitted else 0.0,
            "p99_us": nearest_rank(window_latencies, 0.99) / 1000.0,
            "queue_depth": self._queue_last,
            "queue_slope_per_us": slope,
            "busy_fraction": busy_fraction,
            "tenants": tenants,
        })
        self.stream.samples.append(sample)
        self._seq += 1
        self._window_end_ns = window_end_ns + self.window_ns
