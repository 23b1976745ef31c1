"""Experiment runners and reporting for every table and figure of the paper.

The measurement logic lives in the experiment registry
(:mod:`repro.api.registry`): each table/figure is a named
:class:`~repro.api.spec.ExperimentSpec` with a declarative parameter grid,
run by :class:`repro.api.runner.Runner` (serial or process-pool, with
optional on-disk JSON caching under ``<cache_dir>/<experiment>/<key>.json``)
and returned as a typed :class:`~repro.api.results.ResultSet`.  Discover and
run everything from the command line with ``python -m repro list`` /
``python -m repro run fig9``.
"""

from repro.analysis.experiments import APPLICATION_CONFIGS
from repro.analysis.reporting import format_table

__all__ = [
    "APPLICATION_CONFIGS",
    "format_table",
]
