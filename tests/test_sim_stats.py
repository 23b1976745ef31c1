"""Unit tests for the statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import ClockDomain, Counter, Histogram, Simulator, StatSet, TimeSeries
from repro.sim.stats import geometric_mean


def test_counter_increments():
    counter = Counter("hits")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5


def test_histogram_summary_statistics():
    histogram = Histogram("latency")
    for value in [1.0, 2.0, 3.0, 4.0]:
        histogram.record(value)
    assert histogram.count == 4
    assert histogram.mean == pytest.approx(2.5)
    assert histogram.maximum == 4.0
    assert histogram.total == pytest.approx(10.0)


def test_histogram_percentile_nearest_rank():
    histogram = Histogram("latency")
    for value in range(1, 101):
        histogram.record(float(value))
    assert histogram.percentile(0.5) == 50.0
    assert histogram.percentile(0.99) == 99.0
    assert histogram.percentile(1.0) == 100.0


def test_empty_histogram_is_safe():
    histogram = Histogram("empty")
    assert histogram.mean == 0.0
    assert histogram.percentile(0.5) == 0.0
    assert histogram.count == 0
    assert histogram.total == 0.0
    assert histogram.maximum == 0.0


def test_single_sample_percentiles_are_that_sample():
    histogram = Histogram("one")
    histogram.record(42.0)
    for fraction in (0.0, 0.01, 0.5, 0.99, 1.0):
        assert histogram.percentile(fraction) == 42.0
    assert histogram.maximum == histogram.mean == 42.0


def test_stat_reset_after_clock_retune_starts_clean():
    """The governor pattern: retune a ClockDomain mid-run and record the new
    regime into a fresh StatSet — old samples must not bleed into it."""
    sim = Simulator()
    domain = ClockDomain(sim, 100.0, "dvfs")
    before = StatSet("before")
    before.histogram("period_ns").record(domain.period_ns)
    assert before.histogram("period_ns").mean == pytest.approx(10.0)
    domain.freq_mhz = 400.0  # the retune path (also invalidates edge cache)
    after = StatSet("after")
    after.histogram("period_ns").record(domain.period_ns)
    histogram = after.histogram("period_ns")
    assert histogram.count == 1
    assert histogram.mean == pytest.approx(2.5)
    assert before.histogram("period_ns").samples == [10.0]
    # The retuned domain produces edges on the new period.
    first = domain.next_edge(0.1)
    assert domain.next_edge(first + 0.1) - first == pytest.approx(2.5)


# --------------------------------------------------------------------------- #
# TimeSeries (the power traces)
# --------------------------------------------------------------------------- #
def test_time_series_records_in_order_and_summarizes():
    series = TimeSeries("power_mw")
    assert series.count == 0 and series.values == [] and series.mean == 0.0
    series.record(10.0, 2.0)
    series.record(20.0, 4.0)
    series.record(40.0, 1.0)
    assert series.count == 3
    assert series.values[-1] == 1.0
    assert series.mean == pytest.approx(7.0 / 3.0)
    assert series.as_pairs() == [(10.0, 2.0), (20.0, 4.0), (40.0, 1.0)]


def test_time_series_time_weighted_mean_weights_by_interval():
    series = TimeSeries("power_mw")
    series.record(0.0, 0.0)
    series.record(10.0, 4.0)   # covers 10 ns
    series.record(40.0, 1.0)   # covers 30 ns
    assert series.time_weighted_mean() == pytest.approx((4.0 * 10 + 1.0 * 30) / 40)
    # Degrades to the plain mean without interval information.
    single = TimeSeries("one")
    single.record(5.0, 3.0)
    assert single.time_weighted_mean() == 3.0
    assert TimeSeries("none").time_weighted_mean() == 0.0


def test_time_series_rejects_out_of_order_samples():
    series = TimeSeries("t")
    series.record(10.0, 1.0)
    with pytest.raises(ValueError, match="earlier than"):
        series.record(5.0, 2.0)
    # Equal timestamps are fine (two epochs may close at one instant).
    series.record(10.0, 3.0)


def test_statset_series_lazily_created_reset_and_merged():
    """A series is created empty on first use, keeps its identity after, and
    each StatSet holds its own series under a shared name."""
    stats = StatSet("s")
    stats.series("trace").record(1.0, 5.0)
    other = StatSet("o")
    other.series("trace").record(2.0, 7.0)
    fresh = other.series("fresh")
    assert fresh.count == 0 and fresh is other.series("fresh")
    assert set(other.serieses()) == {"trace", "fresh"}
    assert stats.series("trace").as_pairs() == [(1.0, 5.0)]
    assert other.series("trace").as_pairs() == [(2.0, 7.0)]
    assert "fresh" not in stats.serieses()


def test_statset_rejects_histogram_series_name_collisions():
    """One name is either a histogram or a time series, never both."""
    stats = StatSet("collide")
    stats.histogram("power_mw")
    with pytest.raises(ValueError, match="already a histogram"):
        stats.series("power_mw")
    stats.series("trace")
    with pytest.raises(ValueError, match="already a time series"):
        stats.histogram("trace")


def test_statset_lazily_creates_and_flattens():
    stats = StatSet("cache")
    assert stats.counters() == {} and stats.histograms() == {}
    assert stats.serieses() == {}
    stats.counter("hits").increment(3)
    stats.histogram("latency").record(7.0)
    stats.series("trace").record(1.0, 5.0)
    assert stats.counter("hits") is stats.counter("hits")
    assert stats.counters() == {"hits": 3}
    assert stats.histograms()["latency"].samples == [7.0]
    assert stats.serieses()["trace"].as_pairs() == [(1.0, 5.0)]


def test_geometric_mean_known_values():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([]) == 0.0


def test_geometric_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20))
def test_geometric_mean_between_min_and_max(values):
    mean = geometric_mean(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9
