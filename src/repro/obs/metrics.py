"""A unified metrics registry over :mod:`repro.sim.stats`.

Before this module, each layer grew its own counter plumbing: the
scheduler kept a raw ``fault_stats`` dict, the SLO monitor its own
``StatSet``, the fleet merged ad-hoc report fields.  A
:class:`MetricsRegistry` wraps one :class:`~repro.sim.stats.StatSet`
(counters / histograms / time series) plus plain :class:`Gauge` values,
and adds the two things the fleet layer needs:

* :meth:`MetricsRegistry.snapshot` — a :class:`MetricsSnapshot` of plain
  dicts and lists, which node report dicts carry (reports are
  golden-hashed, and the Runner pickles the rows built from them);
* :meth:`MetricsSnapshot.merged` — a deterministic fold: counters add,
  histogram samples and series points concatenate in merge order, and
  gauges fold by their declared merge mode (``max`` by default; ``min``
  for low-water marks like ``free_capacity``).  Folding snapshots
  in the fleet's sorted ``(epoch, node_id)`` report order therefore
  gives the same bytes on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.sim.stats import StatSet

#: Legal per-gauge merge modes (see :meth:`MetricsSnapshot.merge`).
GAUGE_MERGE_MODES = ("max", "min")


class Gauge:
    """A last-written scalar (queue depth, busy fraction, ...).

    ``mode`` declares how the value folds when snapshots merge across
    fleet node reports: ``max`` (the historical default — correct for high-water
    marks) or ``min`` (low-water marks such as free capacity).
    """

    __slots__ = ("name", "value", "mode")

    def __init__(self, name: str, value: float = 0.0, mode: str = "max") -> None:
        if mode not in GAUGE_MERGE_MODES:
            raise ValueError(
                f"gauge merge mode must be one of {GAUGE_MERGE_MODES}, got {mode!r}")
        self.name = name
        self.value = value
        self.mode = mode

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class MetricsSnapshot:
    """A picklable, mergeable point-in-time copy of a registry.

    Only plain containers — safe to carry inside a node report dict, to
    pickle and to serialize as JSON.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, List[float]] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Per-gauge merge mode overrides.  Only non-default (non-``max``)
    #: modes are recorded, so snapshots from before this field existed
    #: round-trip unchanged and merge exactly as they always did.
    gauge_modes: Dict[str, str] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold ``other`` into this snapshot (see module docstring for the
        per-kind semantics).  Merge order is the caller's contract: fold in
        sorted ``(epoch, node_id)`` order for bit-identical results."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, mode in other.gauge_modes.items():
            mine = self.gauge_modes.get(name)
            if mine is not None and mine != mode:
                raise ValueError(
                    f"gauge {name!r} declares merge mode {mode!r} but was "
                    f"previously merged as {mine!r}")
            self.gauge_modes[name] = mode
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            if current is None:
                self.gauges[name] = value
                continue
            if self.gauge_modes.get(name) == "min":
                self.gauges[name] = min(current, value)
            else:
                self.gauges[name] = max(current, value)
        for name, samples in other.histograms.items():
            self.histograms.setdefault(name, []).extend(samples)
        for name, points in other.series.items():
            self.series.setdefault(name, []).extend(points)

    @classmethod
    def merged(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        result = cls()
        for snapshot in snapshots:
            result.merge(snapshot)
        return result

    def as_dict(self) -> Dict[str, Any]:
        """JSON-shaped plain dict (sorted keys for stable serialization)."""
        data = {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: list(samples) for name, samples
                           in sorted(self.histograms.items())},
            "series": {name: [list(point) for point in points]
                       for name, points in sorted(self.series.items())},
        }
        if self.gauge_modes:
            # Key omitted when empty so pre-mode snapshot dicts (and the
            # node reports built from them) keep their exact shape.
            data["gauge_modes"] = dict(sorted(self.gauge_modes.items()))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        """Inverse of :meth:`as_dict` — node reports carry snapshots in
        dict form (reports are plain JSON data by contract) and the fleet
        merge reconstructs them here."""
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={name: list(samples) for name, samples
                        in data.get("histograms", {}).items()},
            series={name: [tuple(point) for point in points]
                    for name, points in data.get("series", {}).items()},
            gauge_modes=dict(data.get("gauge_modes", {})),
        )


class MetricsRegistry:
    """Counters/gauges/histograms/series with a picklable snapshot."""

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        #: The backing :class:`StatSet`.
        self.stats = StatSet(name)
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str):
        return self.stats.counter(name)

    def gauge(self, name: str, mode: str = "max") -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, mode=mode)
        elif gauge.mode != mode:
            raise ValueError(
                f"gauge {name!r} already registered with merge mode "
                f"{gauge.mode!r}, re-requested as {mode!r}")
        return gauge

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self.stats.counters()),
            gauges={name: gauge.value for name, gauge in self._gauges.items()},
            histograms={name: list(histogram.samples) for name, histogram
                        in self.stats.histograms().items()},
            series={name: list(zip(series.times, series.values))
                    for name, series in self.stats.serieses().items()},
            gauge_modes={name: gauge.mode
                         for name, gauge in self._gauges.items()
                         if gauge.mode != "max"},
        )
