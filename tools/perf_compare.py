"""Compare two sets of ``repro perf`` reports, gating the micro-benches.

    python3 tools/perf_compare.py parent_reports/ change_reports/

A (the parent) and B (the change) are report files written by
``python -m repro perf --out``, or directories of them.  Each benchmark's
``samples`` are divided by their report's ``calibration_sends_per_sec``,
the host's speed when the run started, and pooled per side.  A row per
benchmark shows each side's median, quartiles and sample count in those
units.  The gated benchmarks (``repro.perf.DEFAULT_GATES``) are labelled
by ``bench/compare.py``'s ``classify`` at :data:`BOUND`; the others print
as ``info``.

The exit code is 1 when a gated row is ``worse``, or when a gated
benchmark is missing on one side or was run with different ``params``
on the two sides (a gate must not pass vacuously).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from compare import _side, classify  # noqa: E402
from repro.perf.harness import DEFAULT_GATES  # noqa: E402

#: Share of the parent's median a gated benchmark may lose.
BOUND = 0.2


def pool(path: str) -> Dict[str, Dict[str, Any]]:
    """Per benchmark: its direction, every ``params`` it was run with and
    its calibrated samples, pooled over the report file or a directory of
    them."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    pooled: Dict[str, Dict[str, Any]] = {}
    for file in files:
        report = json.loads(file.read_text(encoding="utf-8"))
        # A shared host changes speed by up to 2x from one run to the
        # next; raw samples of identical code then differ by more than
        # the bound.  PyPy reports carry no calibration and stay raw.
        speed = report["calibration_sends_per_sec"] or 1.0
        for bench in report["benchmarks"]:
            entry = pooled.setdefault(bench["name"], {
                "better": bench["direction"], "params": [], "samples": []})
            if bench["params"] not in entry["params"]:
                entry["params"].append(bench["params"])
            entry["samples"].extend(value / speed for value in bench["samples"])
    return pooled


def compare(a: Dict[str, Dict[str, Any]],
            b: Dict[str, Dict[str, Any]]) -> List[Tuple[str, ...]]:
    """Rows of ``(benchmark, A, B, change, label)``."""
    rows = []
    for name in sorted(set(a) | set(b)):
        gated = name in DEFAULT_GATES
        if name not in a or name not in b:
            side = "change" if name in a else "parent"
            rows.append((name, "", "", "", f"missing on the {side} side"
                         if gated else "info"))
            continue
        side_a, side_b = a[name], b[name]
        if len(side_a["params"]) > 1 or side_a["params"] != side_b["params"]:
            rows.append((name, json.dumps(side_a["params"]),
                         json.dumps(side_b["params"]), "",
                         "params differ" if gated else "info"))
            continue
        values_a, values_b = side_a["samples"], side_b["samples"]
        change = statistics.median(values_b) / statistics.median(values_a) - 1.0
        label = (classify(values_a, values_b, side_a["better"], BOUND)
                 if gated else "info")
        rows.append((name, _side(values_a), _side(values_b), f"{change:+.1%}",
                     label))
    for name in DEFAULT_GATES:
        if name not in a and name not in b:
            rows.append((name, "", "", "", "missing on both sides"))
    return rows


def failed(rows: List[Tuple[str, ...]]) -> bool:
    """Whether a gated row is ``worse`` or could not be compared."""
    return any(row[-1] not in ("better", "unchanged", "unresolved", "info")
               for row in rows)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(pool(argv[0]), pool(argv[1]))
    header = ("benchmark", "A", "B", "change", "label")
    widths = [max(len(row[index]) for row in rows + [header])
              for index in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
