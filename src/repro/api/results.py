"""Typed result model for experiment runs.

A :class:`ResultSet` replaces the bare lists-of-dicts the legacy runners
returned: it knows which experiment produced it, with which parameters, and
offers relational-style helpers (``filter`` / ``pivot``),
exports (``to_json`` / ``to_csv`` / ``to_table``) and built-in
paper-vs-measured deviation reporting.  :func:`format_table` is the one
plain-text table style: ``to_table`` and the CLI both render through it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.sim.stats import nearest_rank


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple aligned text table (monospace, benchmark-log friendly).

    Ragged input is tolerated: rows shorter than ``headers`` are padded with
    empty cells, and rows longer than ``headers`` extend the table with
    unnamed columns instead of raising.
    """
    headers = [str(header) for header in headers]
    rendered_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    num_columns = max([len(headers)] + [len(row) for row in rendered_rows], default=0)
    headers = headers + [""] * (num_columns - len(headers))
    rendered_rows = [row + [""] * (num_columns - len(row)) for row in rendered_rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(num_columns)))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


class Row(dict):
    """One measurement: a dict with attribute access (``row.fpga_mhz``)."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass
class RunStats:
    """Execution accounting attached to every :class:`ResultSet`."""

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executor: str = "serial"
    workers: int = 1
    elapsed_s: float = 0.0


class ResultSet:
    """An ordered collection of :class:`Row` plus experiment metadata."""

    def __init__(
        self,
        experiment: str,
        rows: Sequence[Mapping[str, Any]],
        params: Optional[Mapping[str, Any]] = None,
        summary: Optional[Mapping[str, Any]] = None,
        stats: Optional[RunStats] = None,
    ) -> None:
        self.experiment = experiment
        self.rows: List[Row] = [Row(row) for row in rows]
        self.params: Dict[str, Any] = dict(params or {})
        self.summary: Dict[str, Any] = dict(summary or {})
        self.stats = stats or RunStats(cells=len(self.rows))

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return (self.experiment == other.experiment
                and self.rows == other.rows
                and self.summary == other.summary)

    def __repr__(self) -> str:
        return (f"ResultSet(experiment={self.experiment!r}, rows={len(self.rows)}, "
                f"columns={self.columns})")

    @property
    def columns(self) -> List[str]:
        """Union of row keys, in first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Plain ``list[dict]`` copies (the legacy runner return shape)."""
        return [dict(row) for row in self.rows]

    # ------------------------------------------------------------------ #
    # Relational helpers
    # ------------------------------------------------------------------ #
    def filter(self, predicate: Optional[Callable[[Row], bool]] = None,
               **equals: Any) -> "ResultSet":
        """Rows matching ``predicate`` and/or column equality constraints."""
        def keep(row: Row) -> bool:
            if predicate is not None and not predicate(row):
                return False
            return all(row.get(key) == value for key, value in equals.items())

        return ResultSet(self.experiment, [row for row in self.rows if keep(row)],
                         params=self.params, summary=self.summary, stats=self.stats)

    def percentile(self, column: str, q: float) -> Optional[float]:
        """Nearest-rank percentile of ``column`` over the rows (``q`` in 0..1).

        Ragged data is tolerated: rows missing the column, and rows whose
        value is not a real number (strings, ``None``, booleans), are
        skipped.  Returns ``None`` when no usable value remains, so callers
        can tell "no data" apart from a measured 0.0.  Uses
        :func:`repro.sim.stats.nearest_rank`, the one percentile rule, so
        serve reports and in-sim SLO monitors agree on what "p99" means.
        """
        values = [
            float(value) for row in self.rows
            for value in (row.get(column),)
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        rank = nearest_rank(values, q)  # raises on q outside [0, 1]
        return rank if values else None

    def pivot(self, index: str, columns: str, values: str) -> Tuple[List[str], List[List[Any]]]:
        """A (headers, rows) wide table: one row per ``index`` value, one
        column per distinct ``columns`` value, cells from ``values``."""
        column_values: Dict[Any, None] = {}
        index_values: Dict[Any, None] = {}
        lookup: Dict[Tuple[Any, Any], Any] = {}
        for row in self.rows:
            index_values.setdefault(row.get(index), None)
            column_values.setdefault(row.get(columns), None)
            lookup[(row.get(index), row.get(columns))] = row.get(values)
        headers = [index] + [str(value) for value in column_values]
        table = [
            [idx] + [lookup.get((idx, col)) for col in column_values]
            for idx in index_values
        ]
        return headers, table

    # ------------------------------------------------------------------ #
    # Exports
    # ------------------------------------------------------------------ #
    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        payload = {
            "experiment": self.experiment,
            "params": self.params,
            "summary": self.summary,
            "rows": self.to_dicts(),
        }
        text = json.dumps(payload, indent=indent, default=str)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        payload = json.loads(text)
        return cls(payload.get("experiment", ""), payload.get("rows", []),
                   params=payload.get("params"), summary=payload.get("summary"))

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_csv(self, path: Optional[str] = None) -> str:
        columns = self.columns
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in self.rows:
            writer.writerow([row.get(column, "") for column in columns])
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def to_table(self, columns: Optional[Sequence[str]] = None,
                 headers: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
        columns = list(columns) if columns is not None else self.columns
        headers = list(headers) if headers is not None else columns
        return format_table(
            headers,
            [[row.get(column) for column in columns] for row in self.rows],
            title=self.experiment if title is None else title,
        )

    # ------------------------------------------------------------------ #
    # Paper-vs-measured deviation reporting
    # ------------------------------------------------------------------ #
    def deviations(self) -> List[Dict[str, Any]]:
        """Per-row comparison of every ``paper_<metric>`` column against its
        measured partner (``measured_<metric>`` or bare ``<metric>``).

        Rows whose paper value is missing/zero are skipped.  ``rel_err`` is
        (measured - paper) / paper.
        """
        columns = self.columns
        pairs: List[Tuple[str, str, str]] = []  # (metric, measured_col, paper_col)
        for column in columns:
            if not column.startswith("paper_"):
                continue
            metric = column[len("paper_"):]
            for candidate in (f"measured_{metric}", metric):
                if candidate in columns:
                    pairs.append((metric, candidate, column))
                    break
        metric_columns = {col for pair in pairs for col in pair[1:]}
        records: List[Dict[str, Any]] = []
        for row in self.rows:
            label = ", ".join(
                f"{key}={row[key]}" for key in row
                if key not in metric_columns and not key.startswith(("paper_", "measured_"))
            )
            for metric, measured_col, paper_col in pairs:
                paper = row.get(paper_col)
                measured = row.get(measured_col)
                if not isinstance(paper, (int, float)) or not paper:
                    continue
                if not isinstance(measured, (int, float)):
                    continue
                records.append({
                    "label": label,
                    "metric": metric,
                    "measured": float(measured),
                    "paper": float(paper),
                    "ratio": float(measured) / float(paper),
                    "rel_err": (float(measured) - float(paper)) / float(paper),
                })
        return records

    def deviation_table(self, title: Optional[str] = None) -> str:
        records = self.deviations()
        return format_table(
            ["Row", "Metric", "Measured", "Paper", "Measured/Paper", "Rel. error"],
            [[r["label"], r["metric"], r["measured"], r["paper"],
              r["ratio"], r["rel_err"]] for r in records],
            title=(f"{self.experiment} — paper vs measured"
                   if title is None else title),
        )
