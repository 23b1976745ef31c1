"""Lightweight statistics collection and the one set of order statistics.

Components accumulate counters and latency samples into a :class:`StatSet`;
the analysis layer reads them back to build the latency breakdowns and
bandwidth numbers reported in the paper's figures.  Every percentile in the
repository — histograms, ``ResultSet`` columns, SLO and decomposition rows,
telemetry windows — is :func:`nearest_rank`, every empirical CDF is
:func:`cdf_points`, and every derived RNG stream seed is :func:`mix_seed`.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple


def nearest_rank(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction`` (0..1) percentile of ``samples`` by nearest rank.

    Reads rank ``ceil(n * fraction)`` (1-based) of the sorted samples —
    the smallest sample at ``fraction`` 0 — and 0.0 for no samples.  A
    fraction outside ``[0, 1]`` raises :class:`ValueError`, never clamps.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def cdf_points(values: Sequence[Any]) -> List[Tuple[float, float]]:
    """Sorted ``(value, cumulative_fraction)`` pairs — an empirical CDF.

    Non-numeric entries (and booleans) are skipped, mirroring
    ``ResultSet.percentile``'s ragged-column handling; an empty or fully
    ragged input yields ``[]``.  Duplicate values collapse to one point
    carrying the highest cumulative fraction, so the result is strictly
    increasing in value and ends at fraction 1.0.
    """
    usable = sorted(
        float(value) for value in values
        if isinstance(value, (int, float)) and not isinstance(value, bool))
    if not usable:
        return []
    total = len(usable)
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(usable):
        fraction = (index + 1) / total
        if points and points[-1][0] == value:
            points[-1] = (value, fraction)
        else:
            points.append((value, fraction))
    return points


def fraction_at(points: Sequence[Tuple[float, float]], value: float) -> float:
    """Empirical ``P(X <= value)`` from :func:`cdf_points` output."""
    if not points:
        return 0.0
    index = bisect_right([point[0] for point in points], value)
    return points[index - 1][1] if index else 0.0


def mix_seed(seed: int, label: bytes = b"", node: int = 0, epoch: int = 0,
             stream: int = 0) -> int:
    """A 31-bit RNG stream seed derived from a run ``seed``.

    Mixes a CRC-32 of ``label`` (a tenant name, a fault spec's identity)
    and the node/epoch ids with distinct odd constants, so neighbouring
    streams share no structure.  No ``hash()``: streams are identical
    across processes and ``PYTHONHASHSEED`` values.
    """
    return (seed * 1_000_003 + zlib.crc32(label) + node * 7_919
            + epoch * 104_729 + stream) & 0x7FFFFFFF


@dataclass
class Counter:
    """A monotonically increasing event counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Accumulates scalar samples and reports summary statistics."""

    name: str
    samples: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, fraction: float) -> float:
        """Return the ``fraction`` percentile (0..1); see :func:`nearest_rank`."""
        return nearest_rank(self.samples, fraction)


@dataclass
class TimeSeries:
    """A sequence of ``(time_ns, value)`` samples in non-decreasing time order.

    The power layer records one sample per governor/accounting epoch
    (average power, eFPGA frequency, per-epoch energy); experiments read the
    trace back to plot policies against each other.  Samples must be
    appended in non-decreasing time order — the recorder is a simulation
    process, so that comes for free.
    """

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time_ns: float, value: float) -> None:
        if self.times and time_ns < self.times[-1]:
            raise ValueError(
                f"{self.name}: sample at {time_ns}ns is earlier than the "
                f"last recorded sample at {self.times[-1]}ns"
            )
        self.times.append(time_ns)
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean of the samples weighted by the interval each one covers.

        Sample ``i`` is taken to hold from the previous sample's time (or
        the first sample's time for ``i == 0``) until its own timestamp —
        the convention the power traces use, where each epoch records its
        *average* value at the epoch's end.  With fewer than two samples
        (no interval information) this degrades to the plain mean.
        """
        if len(self.values) < 2:
            return self.mean
        total = 0.0
        span = 0.0
        for index in range(1, len(self.values)):
            dt = self.times[index] - self.times[index - 1]
            total += self.values[index] * dt
            span += dt
        return total / span if span > 0 else self.mean

    def as_pairs(self) -> List[tuple]:
        return list(zip(self.times, self.values))


class StatSet:
    """A named collection of counters, histograms and time series.

    Components create their stats lazily with :meth:`counter`,
    :meth:`histogram` and :meth:`series`, so tests and experiments can
    introspect whatever was actually exercised.
    """

    def __init__(self, name: str = "stats") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            if name in self._series:
                raise ValueError(
                    f"{self.name}: {name!r} is already a time series; "
                    "one name is either a histogram or a series"
                )
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            if name in self._histograms:
                raise ValueError(
                    f"{self.name}: {name!r} is already a histogram; "
                    "one name is either a histogram or a series"
                )
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self) -> Dict[str, int]:
        return {name: counter.value for name, counter in self._counters.items()}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def serieses(self) -> Dict[str, TimeSeries]:
        return dict(self._series)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (0 for an empty input)."""
    values = list(values)
    if not values:
        return 0.0
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))
