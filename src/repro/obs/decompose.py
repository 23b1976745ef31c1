"""Per-request latency decomposition from a recorded trace.

The serving hooks (see ``docs/observability.md``) tag every
request-lifecycle event with ``args = {"t": tenant, "id": request_id}``.
This module folds those events back into *stage* attribution per
request:

* ``queue`` — time between becoming ready (admission or replay) and a
  worker dequeuing the request;
* ``program`` — bitstream/span transfer time paid on behalf of the
  request (the ``transfer_bitstream`` walk, whole image or region span);
* ``retune`` — clock retune time (zero in the current model: the
  generator settles instantaneously after programming — the stage is
  kept so the table survives a future retune-latency model);
* ``service`` — cycles on the fabric, including attempts later wasted
  by a mid-service fabric kill;
* ``blackout`` — the residual: fault detection/scrub delays, failed
  transfers, and dead time between a fabric dying and the replay
  re-entering the queue.  Defined as ``latency - sum(other stages)``,
  which is what makes the stage shares sum to exactly 1.

All arithmetic is on the tracer's integer picoseconds, so the
decomposition is as deterministic as the run that produced it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.trace import Tracer
from repro.sim.stats import cdf_points, fraction_at, nearest_rank

#: Stage order used everywhere (tables, shares, docs).
STAGES: Tuple[str, ...] = ("queue", "program", "retune", "service", "blackout")

_STAGE_INDEX = {"queue": 0, "program": 1, "retune": 2, "service": 3}

_STAGE_FIELDS = tuple((stage, f"{stage}_ps") for stage in STAGES)

#: Synthetic row aggregating every tenant (same convention as SloMonitor).
ALL_TENANTS = "__all__"


def request_stages(tracer: Tracer) -> Dict[Tuple[str, int], Dict[str, Any]]:
    """Fold a trace into per-request stage attributions.

    Returns ``{(tenant, request_id): {"tenant", "latency_ps", and one
    ``<stage>_ps`` int per :data:`STAGES` entry}}`` for every request
    with both an ``arrive`` and a ``complete`` instant (shed and
    still-lost requests have no completion and are excluded — their
    story is the SLO monitor's shed accounting, not a latency).
    """
    arrive: Dict[Tuple[str, int], int] = {}
    complete: Dict[Tuple[str, int], int] = {}
    sums: Dict[Tuple[str, int], List[int]] = {}
    for span in tracer.spans:
        stage = _STAGE_INDEX.get(span.name)
        args = span.args
        if stage is None or not args or "t" not in args or "id" not in args:
            continue
        key = (args["t"], args["id"])
        bucket = sums.get(key)
        if bucket is None:
            bucket = sums[key] = [0, 0, 0, 0]
        bucket[stage] += span.dur_ps
    for inst in tracer.instants:
        args = inst.args
        if not args or "t" not in args or "id" not in args:
            continue
        key = (args["t"], args["id"])
        if inst.name == "arrive":
            arrive.setdefault(key, inst.ts_ps)
        elif inst.name == "complete":
            complete[key] = inst.ts_ps
    stages: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for key in sorted(complete):
        if key not in arrive:
            continue
        latency = complete[key] - arrive[key]
        queue, program, retune, service = sums.get(key, (0, 0, 0, 0))
        stages[key] = {
            "tenant": key[0],
            "latency_ps": latency,
            "queue_ps": queue,
            "program_ps": program,
            "retune_ps": retune,
            "service_ps": service,
            "blackout_ps": latency - queue - program - retune - service,
        }
    return stages


def decompose_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """Aggregate :func:`request_stages` into per-tenant stage-share rows.

    One row per tenant plus an :data:`ALL_TENANTS` aggregate.  Each row
    carries ``requests``, per-stage totals in microseconds and shares of
    total latency (shares sum to 1.0 by construction), the full latency
    tail (p50/p95/p99/p99.9/max, :func:`~repro.sim.stats.nearest_rank`
    — the rule ``Histogram.percentile`` uses), ``jitter_us`` (max − p50) and
    ``share_under_2x_p50`` (the fraction of requests within 2× the
    median, read off the empirical CDF — the "jitter kill shot" number).
    """
    stages = request_stages(tracer)
    ordered = [stages[key] for key in sorted(stages)]
    by_tenant: Dict[str, List[Dict[str, Any]]] = {}
    for entry in ordered:
        by_tenant.setdefault(entry["tenant"], []).append(entry)
    rows: List[Dict[str, Any]] = []
    for tenant, entries in [(ALL_TENANTS, ordered)] + sorted(by_tenant.items()):
        if not entries:
            continue
        totals = {stage: sum(entry[field] for entry in entries)
                  for stage, field in _STAGE_FIELDS}
        latency_total = sum(entry["latency_ps"] for entry in entries)
        # Sorted once: nearest_rank and cdf_points re-sort an already
        # sorted list in linear time.
        latencies = sorted(entry["latency_ps"] for entry in entries)
        points = cdf_points(latencies)
        p50 = nearest_rank(latencies, 0.50)
        row: Dict[str, Any] = {"tenant": tenant, "requests": len(entries)}
        for stage in STAGES:
            row[f"{stage}_us"] = totals[stage] / 1e6
            row[f"{stage}_share"] = (totals[stage] / latency_total
                                     if latency_total else 0.0)
        row["latency_us_total"] = latency_total / 1e6
        row["p50_latency_us"] = p50 / 1e6
        row["p95_latency_us"] = nearest_rank(latencies, 0.95) / 1e6
        row["p99_latency_us"] = nearest_rank(latencies, 0.99) / 1e6
        row["p999_latency_us"] = nearest_rank(latencies, 0.999) / 1e6
        row["max_latency_us"] = latencies[-1] / 1e6
        row["jitter_us"] = (latencies[-1] - p50) / 1e6
        row["share_under_2x_p50"] = fraction_at(points, 2.0 * p50)
        rows.append(row)
    return rows
