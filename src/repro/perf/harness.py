"""The performance harness: timed benchmark runs and a stable JSON schema.

Every benchmark is a :class:`BenchSpec` — a name, a callable returning a
throughput-style scalar (bigger is better) and a unit.  :func:`run_suite`
executes a list of specs with repeats and returns a report dict in the
``duet-repro/bench-kernel/v1`` schema, which :func:`write_report`
serializes (``repro perf --out``) and :func:`load_report` reads back.
Regressions are judged by ``tools/perf_compare.py``, which pools the
samples of reports run on the parent and the change on one host.  See
``docs/performance.md`` for the schema and workflow.
"""

from __future__ import annotations

import datetime
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

#: Bump only when the report layout changes incompatibly.
SCHEMA = "duet-repro/bench-kernel/v1"

#: Whether this interpreter is PyPy.  The perf suite runs fine under PyPy,
#: but the machine calibration (raw generator-send throughput) is a
#: CPython-specific proxy: under a tracing JIT the send loop gets compiled
#: to a few machine instructions and stops tracking how fast the *suite*
#: runs, so on PyPy the calibration is skipped and reports carry
#: ``calibration_sends_per_sec: null`` (``tools/perf_compare.py`` then
#: pools their raw samples — only meaningful against same-interpreter
#: reports).
IS_PYPY = "__pypy__" in sys.builtin_module_names


def interpreter_info() -> Dict[str, str]:
    """Implementation + version of the running interpreter.

    Recorded in every perf report so reports from different
    interpreters can be told apart.
    """
    return {
        "implementation": platform.python_implementation().lower(),
        "version": platform.python_version(),
    }

#: Benchmarks that fail ``tools/perf_compare.py`` when they regress: the
#: kernel headline number, the batched-NoC 8x8 mesh microbenchmark, and the
#: same NoC workload with the energy-accounting hooks live — gating that
#: one is what keeps the power layer's hot-path cost near zero.  The
#: serving, fleet and chaos paths are gated end to end by
#: ``bench/compare.py``.
DEFAULT_GATES = ("kernel_events_per_sec", "noc_messages_per_sec",
                 "noc_messages_per_sec_hooks_on")


@dataclass
class BenchSpec:
    """One benchmark: a callable measured ``repeats`` times."""

    name: str
    fn: Callable[..., float]
    unit: str
    #: Keyword arguments forwarded to ``fn`` (recorded in the report).
    params: Dict[str, Any] = field(default_factory=dict)
    repeats: int = 3
    quick_repeats: int = 2

    def run(self, quick: bool = False) -> Dict[str, Any]:
        params = dict(self.params)
        repeats = self.quick_repeats if quick else self.repeats
        samples = [float(self.fn(**params)) for _ in range(repeats)]
        return {
            "name": self.name,
            "unit": self.unit,
            # Every bench is a throughput; the field keeps the v1 layout.
            "direction": "higher",
            "value": max(samples),
            "samples": samples,
            "repeats": repeats,
            "params": params,
        }


def machine_calibration(sends: int = 200_000, repeats: int = 3) -> Optional[float]:
    """Raw generator-resume throughput of this interpreter/machine.

    The kernel's hot path is dominated by pure-Python bytecode and
    generator sends, so this number tracks how fast the host can run the
    suite at all.  Reports carry it, and ``tools/perf_compare.py`` divides
    each sample by it, so a shared host's speed swings between the
    parent's and the change's runs do not read as a regression.

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
