"""The performance harness: timed benchmark runs, a stable JSON schema and
baseline comparison.

Every benchmark is a :class:`BenchSpec` — a name, a callable returning a
scalar, a unit, and a direction (``higher`` for throughputs, ``lower`` for
wall times).  :func:`run_suite` executes a list of specs with repeats and
returns a report dict in the ``duet-repro/bench-kernel/v1`` schema, which
:func:`write_report` serializes to ``BENCH_kernel.json``.
:func:`compare_reports` diffs a fresh report against a committed baseline
and flags regressions beyond a tolerance — that comparison is what the CI
perf smoke job gates on.  See ``docs/performance.md`` for the schema and
workflow.
"""

from __future__ import annotations

import datetime
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Bump only when the report layout changes incompatibly.
SCHEMA = "duet-repro/bench-kernel/v1"

#: Whether this interpreter is PyPy.  The perf suite runs fine under PyPy,
#: but the machine calibration (raw generator-send throughput) is a
#: CPython-specific proxy: under a tracing JIT the send loop gets compiled
#: to a few machine instructions and stops tracking how fast the *suite*
#: runs, so on PyPy the calibration is skipped and reports carry
#: ``calibration_sends_per_sec: null`` (comparisons then fall back to raw,
#: uncalibrated ratios — only meaningful against a same-interpreter
#: baseline).
IS_PYPY = "__pypy__" in sys.builtin_module_names


def interpreter_info() -> Dict[str, str]:
    """Implementation + version of the running interpreter.

    Recorded in every ``BENCH_*.json`` so a baseline from one interpreter
    is never silently compared against a run from another.
    """
    return {
        "implementation": platform.python_implementation().lower(),
        "version": platform.python_version(),
    }

#: Default regression tolerance (fraction of the baseline value).
DEFAULT_TOLERANCE = 0.2

#: Benchmarks that fail a gated comparison when they regress: the kernel
#: headline number, the batched-NoC 8x8 mesh microbenchmark, and the same
#: NoC workload with the energy-accounting hooks live — gating that one is
#: what keeps the power layer's hot-path cost near zero.  The serving,
#: fleet and chaos paths are gated end to end by ``bench/compare.py``.
DEFAULT_GATES = ("kernel_events_per_sec", "noc_messages_per_sec",
                 "noc_messages_per_sec_hooks_on")


@dataclass
class BenchSpec:
    """One benchmark: a callable measured ``repeats`` times."""

    name: str
    fn: Callable[..., float]
    unit: str
    #: ``higher`` = throughput-style (bigger is better), ``lower`` = latency.
    direction: str = "higher"
    #: Keyword arguments forwarded to ``fn`` (recorded in the report).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Parameter overrides applied in ``--quick`` mode.
    quick_params: Dict[str, Any] = field(default_factory=dict)
    repeats: int = 3
    quick_repeats: int = 2

    def run(self, quick: bool = False) -> Dict[str, Any]:
        params = dict(self.params)
        if quick:
            params.update(self.quick_params)
        repeats = self.quick_repeats if quick else self.repeats
        samples = [float(self.fn(**params)) for _ in range(repeats)]
        best = max(samples) if self.direction == "higher" else min(samples)
        return {
            "name": self.name,
            "unit": self.unit,
            "direction": self.direction,
            "value": best,
            "samples": samples,
            "repeats": repeats,
            "params": params,
        }


def machine_calibration(sends: int = 200_000, repeats: int = 3) -> Optional[float]:
    """Raw generator-resume throughput of this interpreter/machine.

    The kernel's hot path is dominated by pure-Python bytecode and
    generator sends, so this number tracks how fast the host can run the
    suite at all.  Reports carry it, and :func:`compare_reports` divides
    each benchmark by it before comparing — which is what makes a baseline
    recorded on one machine meaningful on another (e.g. a CI runner).

    Returns ``None`` on PyPy (see :data:`IS_PYPY`): the JIT compiles the
    calibration loop away, so the number would wildly overstate how much
    faster PyPy runs the real suite.
    """
    if IS_PYPY:
        return None

    def spin():
        while True:
            yield None

    best = 0.0
    for _ in range(repeats):
        generator = spin()
        send = generator.send
        send(None)  # prime
        start = time.perf_counter()
        for _ in range(sends):
            send(None)
        elapsed = time.perf_counter() - start
        best = max(best, sends / elapsed)
    return best


def run_suite(specs: Sequence[BenchSpec], quick: bool = False,
              progress: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Run every spec and assemble a schema-stable report."""
    if progress is not None:
        progress("calibrating machine speed ..." if not IS_PYPY
                 else "PyPy detected: skipping CPython calibration ...")
    calibration = machine_calibration()
    benchmarks = []
    for spec in specs:
        if progress is not None:
            progress(f"running {spec.name} ...")
        benchmarks.append(spec.run(quick=quick))
    return {
        "schema": SCHEMA,
        "created_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "interpreter": interpreter_info(),
        "mode": "quick" if quick else "full",
        "calibration_sends_per_sec": calibration,
        "benchmarks": benchmarks,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown benchmark schema {report.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    return report


@dataclass
class Comparison:
    """Outcome of comparing one benchmark against the baseline."""

    name: str
    baseline: float
    current: float
    ratio: float          # current / baseline (in the "goodness" sense)
    regressed: bool
    gated: bool


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE,
                    gates: Sequence[str] = DEFAULT_GATES) -> List[Comparison]:
    """Compare two reports benchmark-by-benchmark.

    ``ratio`` is normalized so that > 1 is always an improvement.  When
    both reports carry a machine calibration, each value is divided by its
    report's calibration first, so a baseline recorded on a fast dev box
    gates correctly on a slower CI runner (only the *relative* kernel
    overhead matters).  PyPy reports carry no calibration (see
    :data:`IS_PYPY`), so comparisons involving one degrade to raw ratios —
    only meaningful against a baseline from the same interpreter.  A
    benchmark *regresses* when its goodness falls below ``1 - tolerance``;
    only benchmarks named in ``gates`` make :func:`has_gated_regression`
    fail.
    """
    current_cal = current.get("calibration_sends_per_sec")
    baseline_cal = baseline.get("calibration_sends_per_sec")
    scale = (baseline_cal / current_cal
             if current_cal and baseline_cal else 1.0)
    by_name = {bench["name"]: bench for bench in baseline.get("benchmarks", ())}
    comparisons: List[Comparison] = []
    for bench in current.get("benchmarks", ()):
        base = by_name.get(bench["name"])
        if base is None or not base.get("value"):
            continue
        if bench.get("params") != base.get("params"):
            # Different problem sizes (e.g. a --quick run with
            # ``quick_params`` vs a full-mode baseline) — a ratio would be
            # meaningless and could mask a real regression behind a
            # smaller workload.
            continue
        value, base_value = bench["value"], base["value"]
        if bench.get("direction", "higher") == "higher":
            ratio = value * scale / base_value
        else:
            ratio = base_value * scale / value if value else 0.0
        comparisons.append(Comparison(
            name=bench["name"],
            baseline=base_value,
            current=value,
            ratio=ratio,
            regressed=ratio < (1.0 - tolerance),
            gated=bench["name"] in gates,
        ))
    return comparisons


def has_gated_regression(comparisons: Sequence[Comparison]) -> bool:
    return any(c.regressed and c.gated for c in comparisons)


def format_comparisons(comparisons: Sequence[Comparison]) -> str:
    lines = [f"{'benchmark':<34} {'baseline':>14} {'current':>14} {'ratio':>7}  status"]
    for c in comparisons:
        status = "OK"
        if c.regressed:
            status = "REGRESSED" if c.gated else "regressed (not gated)"
        elif c.ratio > 1.05:
            status = "improved"
        lines.append(
            f"{c.name:<34} {format(c.baseline, ',.6g'):>14} "
            f"{format(c.current, ',.6g'):>14} {c.ratio:>6.2f}x  {status}"
        )
    return "\n".join(lines)
