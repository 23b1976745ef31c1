"""Unified experiment API: registry, runner, typed results and the CLI.

This package turns every table/figure of the paper's evaluation — and each
sweep beyond it — into a named, discoverable experiment:

* :mod:`repro.api.spec` — :class:`ExperimentSpec`, a declarative description
  of one experiment: a cell function plus a parameter grid (mechanisms ×
  frequencies × processor counts × system kinds);
* :mod:`repro.api.registry` — ``@register_experiment`` and the global
  registry that the six paper experiments (``table1``, ``table2``, ``fig9``
  .. ``fig12``) and the serving/fleet/power/NoC sweeps register into;
* :mod:`repro.api.runner` — :class:`Runner` with serial and process-pool
  executors and on-disk JSON result caching keyed by (experiment, params),
  plus ``trace_experiment``, which runs one registered cell with a tracer;
* :mod:`repro.api.results` — the typed :class:`ResultSet`/:class:`Row` model
  with ``filter``/``pivot``/``to_json``/``to_csv``/``to_table``
  and paper-vs-measured deviation reporting;
* :mod:`repro.api.cli` — the ``python -m repro`` command line
  (``list`` / ``run`` / ``report`` / ``sweep`` / ``trace`` / ``alerts``).

Quick tour::

    from repro.api import Runner, list_experiments

    print([spec.name for spec in list_experiments()])
    results = Runner().run("fig9", fpga_mhz=(100.0, 500.0))
    print(results.to_table())
"""

from repro.api.registry import (
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.api.results import ResultSet, Row, RunStats
from repro.api.runner import Runner
from repro.api.spec import ExperimentSpec

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "Runner",
    "ResultSet",
    "Row",
    "RunStats",
]
