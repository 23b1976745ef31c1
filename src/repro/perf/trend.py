"""Performance trend folding: many ``BENCH_*.json`` reports, one table.

The repo commits one perf baseline, ``BENCH_kernel.json``; every fresh
``repro perf`` report has the same shape, and each is recorded with the
machine calibration of the box that produced it.  This module folds any
number of them into a single trend view:

* every benchmark value is divided by its report's
  ``calibration_sends_per_sec`` first (the same normalization
  :func:`repro.perf.harness.compare_reports` gates on), so reports
  recorded on different machines line up;
* each benchmark's ratio is computed against its *anchor* — its first
  appearance across the reports in the order given (oldest first), or a
  specific report selected with ``baseline_path``;
* the result is a JSON document (``duet-repro/bench-trend/v1``) plus a
  text table — what ``python -m repro trend`` prints and what CI
  uploads as the ``BENCH_trend.json`` artifact.

Reports without a calibration (PyPy — see
:data:`repro.perf.harness.IS_PYPY`) fall back to raw values; their points
are marked ``"calibrated": false`` so a cross-interpreter trend is never
silently presented as a clean one.
"""

from __future__ import annotations

import os.path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perf.harness import load_report

#: Bump only when the trend layout changes incompatibly.
TREND_SCHEMA = "duet-repro/bench-trend/v1"


def load_reports(paths: Sequence[str]) -> List[Tuple[str, Dict[str, Any]]]:
    """Load perf reports, keeping the given (oldest-first) order."""
    return [(path, load_report(path)) for path in paths]


def _normalized(bench: Dict[str, Any],
                report: Dict[str, Any]) -> Tuple[float, bool]:
    """Calibration-normalized value (plus whether it *was* calibrated)."""
    value = float(bench.get("value") or 0.0)
    calibration = report.get("calibration_sends_per_sec")
    if calibration:
        return value / calibration, True
    return value, False


def trend_report(reports: Sequence[Tuple[str, Dict[str, Any]]],
                 baseline_path: Optional[str] = None) -> Dict[str, Any]:
    """Fold loaded reports into one trend document.

    ``baseline_path`` anchors every ratio to the named report (matched on
    path or basename); by default each benchmark anchors to its first
    appearance, so a benchmark added later still gets a 1.00x start.
    """
    if not reports:
        raise ValueError("need at least one report to build a trend")
    labels = [os.path.basename(path) for path, _ in reports]
    baseline_index: Optional[int] = None
    if baseline_path is not None:
        base = os.path.basename(baseline_path)
        for index, (path, _) in enumerate(reports):
            if path == baseline_path or labels[index] == base:
                baseline_index = index
                break
        if baseline_index is None:
            known = ", ".join(labels)
            raise ValueError(
                f"baseline report {baseline_path!r} not among the inputs "
                f"({known})")

    benchmarks: Dict[str, Dict[str, Any]] = {}
    for index, (path, report) in enumerate(reports):
        for bench in report.get("benchmarks", ()):
            entry = benchmarks.setdefault(bench["name"], {
                "unit": bench.get("unit", ""),
                "direction": bench.get("direction", "higher"),
                "points": [],
            })
            normalized, calibrated = _normalized(bench, report)
            entry["points"].append({
                "report": labels[index],
                "value": bench.get("value"),
                "normalized": normalized,
                "calibrated": calibrated,
                "mode": report.get("mode"),
            })

    for entry in benchmarks.values():
        points = entry["points"]
        anchor = None
        if baseline_index is not None:
            for point in points:
                if point["report"] == labels[baseline_index]:
                    anchor = point
                    break
        if anchor is None:
            anchor = points[0]
        anchor_value = anchor["normalized"]
        for point in points:
            if anchor_value:
                ratio = point["normalized"] / anchor_value
                if entry["direction"] == "lower" and ratio:
                    ratio = 1.0 / ratio
            else:
                ratio = 0.0
            point["ratio"] = ratio
        entry["anchor"] = anchor["report"]

    return {
        "schema": TREND_SCHEMA,
        "reports": [{
            "path": labels[index],
            "created_at": report.get("created_at"),
            "mode": report.get("mode"),
            "interpreter": report.get("interpreter"),
            "calibration_sends_per_sec":
                report.get("calibration_sends_per_sec"),
        } for index, (_, report) in enumerate(reports)],
        "benchmarks": {name: benchmarks[name]
                       for name in sorted(benchmarks)},
    }


def format_trend(trend: Dict[str, Any]) -> str:
    """The trend as a fixed-width table: one row per benchmark x report.

    ``ratio`` is normalized so > 1 is always an improvement over the
    benchmark's anchor report (direction-aware, like the perf gate).
    """
    header = (f"{'benchmark':<38} {'report':<22} {'value':>14} "
              f"{'ratio':>7}  note")
    lines = [header]
    for name, entry in trend["benchmarks"].items():
        for point in entry["points"]:
            notes = []
            if point["report"] == entry["anchor"]:
                notes.append("anchor")
            if not point["calibrated"]:
                notes.append("uncalibrated")
            if point.get("mode") == "quick":
                notes.append("quick")
            value = point["value"]
            lines.append(
                f"{name:<38} {point['report']:<22} "
                f"{format(value, ',.6g') if value is not None else '-':>14} "
                f"{point['ratio']:>6.2f}x  {' '.join(notes)}".rstrip())
    return "\n".join(lines)
