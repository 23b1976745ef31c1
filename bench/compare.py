"""Compare two sets of benchmark results.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py parent_runs/ change_runs/

A (the parent) and B (the change) are files written by ``run.py --out``,
or directories of them whose samples are pooled.  One row per (workload,
metric) shows each side's median, quartiles and sample count, and a label:

``worse``       B's median is worse than A's by more than the metric's bound;
``better``      B's median beats A's by more than A's quartile spread, and B
                wins at least nine tenths of at least ten index-paired samples;
``unresolved``  A's spread is wider than the bound and not every B sample
                beats every A sample, or B looks better without meeting the
                rule for ``better``;
``unchanged``   otherwise.

Simulated outputs and digests compare exactly, seed by seed: ``unchanged``
or ``differs``.  Per-layer metrics of traced runs are shown as ``info``
except their modelled ``sim_`` counters, which compare exactly.  The exit
code is 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import common


def load(path: str) -> List[Dict[str, Any]]:
    """The run records in a file, or in every ``*.json`` of a directory."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    records = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def pool(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload: pooled host samples and traced layer values, and the
    simulated outputs and digest of each seed."""
    pooled: Dict[str, Dict[str, Any]] = {}
    for record in records:
        for workload, report in record["workloads"].items():
            entry = pooled.setdefault(workload, {"samples": {}, "layers": {},
                                                 "exact": {}})
            for name, values in report["samples"].items():
                entry["samples"].setdefault(name, []).extend(values)
            for name, value in report.get("layers", {}).items():
                entry["layers"].setdefault(name, []).append(value)
            exact = dict(report["sim"], digest=report["digest"])
            for name, value in report.get("layers", {}).items():
                if name.rsplit(".", 1)[-1].startswith("sim_"):
                    exact[name] = value
            entry["exact"].setdefault(record["seed"], {}).update(exact)
    return pooled


def classify(a: Sequence[float], b: Sequence[float], better: str,
             bound: float) -> str:
    """Label B against A by the rules in this module's docstring."""
    median_a = statistics.median(a)
    q1, _, q3 = common.quartiles(a)
    spread = q3 - q1
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (statistics.median(b) - median_a)
    if -gain > bound * abs(median_a):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if gain > spread and len(pairs) >= 10 and wins >= 0.9 * len(pairs):
        return "better"
    every_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound * abs(median_a) and not every_better:
        return "unresolved"
    if gain > spread:
        return "unresolved"
    return "unchanged"


def _side(values: Sequence[float]) -> str:
    q1, median, q3 = common.quartiles(values)
    return f"{median:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(a: Dict[str, Dict[str, Any]],
            b: Dict[str, Dict[str, Any]]) -> List[Tuple[str, ...]]:
    """Rows of ``(workload, metric, A, B, change, label)``."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        side_a, side_b = a[workload], b[workload]
        for metric in common.END_TO_END:
            values_a = side_a["samples"].get(metric.name)
            values_b = side_b["samples"].get(metric.name)
            if not values_a or not values_b:
                continue
            median_a = statistics.median(values_a)
            change = statistics.median(values_b) / median_a - 1.0 if median_a else 0.0
            rows.append((workload, metric.name, _side(values_a), _side(values_b),
                         f"{change:+.1%}",
                         classify(values_a, values_b, metric.better, metric.bound)))
        for seed in sorted(set(side_a["exact"]) & set(side_b["exact"])):
            exact_a, exact_b = side_a["exact"][seed], side_b["exact"][seed]
            for name in sorted(set(exact_a) & set(exact_b)):
                rows.append((workload, f"{name} (seed {seed})", repr(exact_a[name]),
                             repr(exact_b[name]), "",
                             "unchanged" if exact_a[name] == exact_b[name] else "differs"))
        for metric in common.PER_LAYER:
            values_a = side_a["layers"].get(metric.name)
            values_b = side_b["layers"].get(metric.name)
            if values_a and values_b and not metric.name.rsplit(".", 1)[-1].startswith("sim_"):
                rows.append((workload, metric.name, _side(values_a), _side(values_b),
                             "", "info"))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(pool(load(argv[0])), pool(load(argv[1])))
    header = ("workload", "metric", "A", "B", "change", "label")
    widths = [max(len(row[index]) for row in rows + [header])
              for index in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] in ("worse", "differs") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
