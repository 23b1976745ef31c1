"""Experiment execution: serial / process-pool executors plus result caching.

The :class:`Runner` turns an :class:`~repro.api.spec.ExperimentSpec` into a
:class:`~repro.api.results.ResultSet`:

* ``executor="serial"`` runs every cell in-process, in grid order;
* ``executor="process"`` fans independent cells out over a
  ``concurrent.futures.ProcessPoolExecutor`` — rows come back in the same
  deterministic grid order as the serial path.  The pool is created lazily
  on the first run that needs it and *reused* for every later cell and
  every later ``run()`` call on the same :class:`Runner` (worker startup
  costs an interpreter fork + module imports, which used to be paid per
  ``run()``); call :meth:`Runner.close` — or use the runner as a context
  manager — to tear the workers down;
* passing ``cache_dir`` enables on-disk JSON caching keyed by
  (experiment name, cell parameters, :func:`source_digest`): a cell whose
  exact parameters were measured before by the same ``repro`` sources is
  served from ``<cache_dir>/<experiment>/<sha256[:16]>.json`` without
  re-simulation; any edit to the package's sources misses every entry.

:func:`trace_experiment` (``python -m repro trace``) runs one cell of a
registered experiment whose cell takes a ``tracer`` with a fresh
:class:`~repro.obs.trace.Tracer` attached, and returns the tracer.

Cache layout::

    <cache_dir>/
        fig9/
            1f0c2a....json   # {"experiment", "params", "rows"}
        fig12/
            ...
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.api.registry import get_experiment, list_experiments
from repro.api.results import ResultSet, RunStats
from repro.api.spec import ExperimentSpec, Rows
from repro.obs.trace import Tracer

EXECUTORS = ("serial", "process")


def _call_cell(cell, params: Dict[str, Any]) -> Rows:
    """Module-level trampoline so the process pool only pickles (fn, params)."""
    return cell(**params)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity support
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """SHA-256 over the path and bytes of every ``.py`` file of the
    ``repro`` package, so cached rows never outlive the model that
    measured them.  Computed once per process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).replace(os.sep, "/").encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _cell_key(experiment: str, params: Mapping[str, Any]) -> str:
    payload = json.dumps(
        {"experiment": experiment, "source": source_digest(),
         "params": dict(params)},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Runner:
    """Executes experiments from the registry (or ad-hoc specs).

    Example::

        runner = Runner(executor="process", workers=4, cache_dir=".repro-cache")
        results = runner.run("fig12")            # full grid, fanned out + cached
        subset = runner.run("fig9", fpga_mhz=(100.0,))   # axis override
    """

    def __init__(self, executor: str = "serial", workers: Optional[int] = None,
                 cache_dir: Optional[str] = None, seed: Optional[int] = None) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.executor = executor
        self.workers = workers
        self.cache_dir = cache_dir
        self.seed = seed
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _get_pool(self, pending: int) -> ProcessPoolExecutor:
        """The shared process pool, created on first use and reused after.

        Sized by ``workers`` when given, else by the smaller of the pending
        cell count and the CPU budget; a later run with more cells than the
        pool has workers still completes (extra cells queue).
        """
        if self._pool is None:
            workers = self.workers or min(max(pending, 1), _available_cpus())
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_workers = workers
        return self._pool

    def close(self) -> None:
        """Shut down the shared process pool (no-op for serial runners)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def run(self, experiment: Union[str, ExperimentSpec],
            use_cache: bool = True, **overrides: Any) -> ResultSet:
        """Run one experiment; ``overrides`` replace grid axes or fixed params."""
        spec = (experiment if isinstance(experiment, ExperimentSpec)
                else get_experiment(experiment))
        if self.seed is not None and "seed" in spec.parameters:
            overrides.setdefault("seed", self.seed)
        cells = spec.cells(overrides)
        started = time.perf_counter()
        results: List[Optional[Rows]] = [None] * len(cells)
        pending: List[int] = []
        hits = 0
        for index, cell in enumerate(cells):
            cached = self._cache_get(spec.name, cell) if use_cache else None
            if cached is not None:
                results[index] = cached
                hits += 1
            else:
                pending.append(index)

        workers_used = 1
        if self.executor == "process" and pending:
            pool = self._get_pool(len(pending))
            workers_used = self._pool_workers
            futures = {index: pool.submit(_call_cell, spec.cell, cells[index])
                       for index in pending}
            for index, future in futures.items():
                results[index] = future.result()
        else:
            for index in pending:
                results[index] = _call_cell(spec.cell, cells[index])

        for index in pending:
            self._cache_put(spec.name, cells[index], results[index])

        rows = [row for cell_rows in results for row in (cell_rows or [])]
        summary = spec.summarize(rows) if spec.summarize is not None else {}
        stats = RunStats(
            cells=len(cells),
            cache_hits=hits,
            cache_misses=len(pending),
            executor=self.executor,
            workers=workers_used,
            elapsed_s=time.perf_counter() - started,
        )
        return ResultSet(spec.name, rows, params=dict(overrides),
                         summary=summary, stats=stats)

    # ------------------------------------------------------------------ #
    # Cache
    # ------------------------------------------------------------------ #
    def _cache_path(self, experiment: str, params: Mapping[str, Any]) -> Optional[str]:
        if self.cache_dir is None:
            return None
        safe_name = experiment.replace(os.sep, "_").replace("/", "_")
        return os.path.join(self.cache_dir, safe_name,
                            _cell_key(experiment, params) + ".json")

    def _cache_get(self, experiment: str, params: Mapping[str, Any]) -> Optional[Rows]:
        path = self._cache_path(experiment, params)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return list(payload["rows"])
        except (OSError, ValueError, KeyError):
            return None  # unreadable entries count as misses and get rewritten

    def _cache_put(self, experiment: str, params: Mapping[str, Any],
                   rows: Optional[Rows]) -> None:
        path = self._cache_path(experiment, params)
        if path is None or rows is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"experiment": experiment, "params": dict(params), "rows": rows}
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=str)
        os.replace(tmp_path, path)


def _traceable(spec: ExperimentSpec) -> bool:
    return "tracer" in inspect.signature(spec.cell).parameters


def trace_experiment(experiment: str, seed: Optional[int] = None,
                     overrides: Optional[Mapping[str, Any]] = None) -> Tracer:
    """Run one cell of ``experiment`` with a fresh tracer attached; return it.

    The traced cell is ``spec.cells(overrides)[0]``: the spec's first grid
    point unless ``overrides`` pin another, so a trace records exactly the
    run ``repro run`` measures there (the tracer never moves a row).  A
    trace is one run, so an override with several values is rejected.
    ``seed`` applies as in :meth:`Runner.run`.  The tracer's ``to_json``
    bytes depend only on the experiment, the seed and the overrides.
    """
    spec = get_experiment(experiment)
    if not _traceable(spec):
        known = ", ".join(sorted(s.name for s in list_experiments()
                                 if _traceable(s)))
        raise KeyError(f"experiment {spec.name!r} cannot be traced; "
                       f"traceable experiments: {known}")
    overrides = dict(overrides or {})
    swept = sorted(name for name, value in overrides.items()
                   if isinstance(value, (list, tuple, set, range))
                   and len(value) > 1)
    if swept:
        raise ValueError(f"a trace is one run; parameters {swept} "
                         f"take one value each")
    if seed is not None and "seed" in spec.parameters:
        overrides.setdefault("seed", seed)
    tracer = Tracer()
    spec.cell(tracer=tracer, **spec.cells(overrides)[0])
    return tracer
