"""Declarative experiment specifications.

An :class:`ExperimentSpec` separates *what* an experiment measures from *how*
it is executed (see :mod:`repro.api.runner`) and *how* its results are
reported (see :mod:`repro.api.results`):

* ``cell`` is a plain function ``cell(**params) -> list[dict]`` producing the
  rows for one point of the parameter space.  Cells must be module-level
  functions so the process-pool executor can pickle them.
* ``grid`` maps axis names to the swept values; the cartesian product of the
  axes defines the experiment's cells, in deterministic order (first axis
  slowest-varying).
* ``fixed`` holds non-swept parameters (problem sizes, seeds); callers can
  override both axes and fixed values per run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: A cell returns the measured rows for one parameter combination.
Rows = List[Dict[str, Any]]
CellFn = Callable[..., Rows]
SummarizeFn = Callable[[Rows], Dict[str, Any]]


def _as_axis(value: Any) -> Tuple[Any, ...]:
    """Normalize an axis override: scalars become single-value axes."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """One named, parameterized experiment.

    ``summarize`` optionally derives aggregate metrics (e.g. geometric means)
    from the full row list once every cell has run.
    """

    name: str
    cell: CellFn
    title: str = ""
    description: str = ""
    grid: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    summarize: Optional[SummarizeFn] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an experiment needs a non-empty name")
        if not callable(self.cell):
            raise TypeError(f"cell of experiment {self.name!r} is not callable")
        object.__setattr__(
            self, "grid", {axis: _as_axis(values) for axis, values in self.grid.items()}
        )
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "tags", tuple(self.tags))
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters {sorted(overlap)} are both axes and fixed")

    # ------------------------------------------------------------------ #
    # Parameter-space enumeration
    # ------------------------------------------------------------------ #
    @property
    def parameters(self) -> Tuple[str, ...]:
        """Every parameter the experiment accepts (axes first)."""
        return tuple(self.grid) + tuple(self.fixed)

    def cells(self, overrides: Optional[Mapping[str, Any]] = None) -> List[Dict[str, Any]]:
        """Enumerate the parameter combinations for one run.

        ``overrides`` may replace an axis with new values (any iterable, or a
        scalar for a single point) or change a fixed parameter; a fixed
        parameter overridden with multiple values is promoted to a swept
        axis.  Unknown names, and values whose type matches no default or
        grid value, raise ``ValueError`` so typos fail fast.
        """
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.parameters)
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} has no parameters {sorted(unknown)}; "
                f"valid parameters: {list(self.parameters)}"
            )
        axes = {
            axis: _as_axis(overrides[axis]) if axis in overrides else values
            for axis, values in self.grid.items()
        }
        fixed: Dict[str, Any] = {}
        for key, default in self.fixed.items():
            if key in overrides and isinstance(overrides[key], (list, tuple, set, range)):
                axes[key] = _as_axis(tuple(overrides[key]))
            else:
                fixed[key] = overrides.get(key, default)
        for name in overrides:
            self._check_types(name, axes[name] if name in axes else (fixed[name],))
        cells: List[Dict[str, Any]] = []
        for combo in itertools.product(*axes.values()):
            params = dict(zip(axes.keys(), combo))
            params.update(fixed)
            cells.append(params)
        return cells

    def _check_types(self, name: str, values: Tuple[Any, ...]) -> None:
        """Reject an override whose type no default or grid value has (an
        int is accepted where floats are expected)."""
        defaults = self.grid[name] if name in self.grid else (self.fixed[name],)
        expected = {type(value) for value in defaults}
        for value in values:
            kind = type(value)
            if kind not in expected and not (kind is int and float in expected):
                names = " or ".join(sorted(t.__name__ for t in expected))
                raise ValueError(
                    f"parameter {name!r} of experiment {self.name!r} expects "
                    f"{names}, got {value!r}"
                )

    def num_cells(self, overrides: Optional[Mapping[str, Any]] = None) -> int:
        return len(self.cells(overrides))

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly summary (used by ``python -m repro list --json``)."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "grid": {axis: list(values) for axis, values in self.grid.items()},
            "fixed": dict(self.fixed),
            "cells": self.num_cells(),
            "tags": list(self.tags),
        }
