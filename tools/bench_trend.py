#!/usr/bin/env python3
"""Fold ``BENCH_*.json`` perf reports into one performance trend.

Thin wrapper over ``python -m repro trend`` (the logic lives in
:mod:`repro.perf.trend`) so CI and scripts can call it without spelling
the package path::

    python tools/bench_trend.py BENCH_kernel.json bench-current.json \
        --out BENCH_trend.json

Each benchmark value is divided by its report's machine calibration
before ratios are taken, so reports recorded on different machines line
up; ratios anchor to each benchmark's first appearance (oldest report
first).  CI runs this over the committed baseline and the run's fresh
report and uploads the ``BENCH_trend.json`` artifact.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["trend", *sys.argv[1:]]))
