"""Software workloads: baselines, accelerated drivers and microbenchmarks.

Each application module provides ``run(kind, params)`` returning a
:class:`~repro.workloads.common.BenchmarkResult`, where ``kind`` selects the
processor-only baseline, the FPSoC-like baseline or Duet — the three systems
compared in Fig. 12.  :mod:`repro.workloads.synthetic` implements the
latency / bandwidth / scalability microbenchmarks of Sec. V-C (Figs. 9-11).

:data:`APPLICATION_CONFIGS` is the one list of the thirteen Fig. 12
configurations, keyed by label; the ``fig12`` experiment of
:mod:`repro.api.registry` runs one cell per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.workloads import barnes_hut, bfs, dijkstra, pdes, popcount, sort, tangent
from repro.workloads.common import BenchmarkResult, WorkloadParams


@dataclass(frozen=True)
class ApplicationConfig:
    """One bar group of Fig. 12."""

    label: str
    runner: Callable[..., BenchmarkResult]
    processors: int
    memory_hubs: int
    kwargs: Dict[str, object]
    paper_duet_speedup: Optional[float]
    paper_fpsoc_speedup: Optional[float]

    def params(self, seed: int = 2023) -> WorkloadParams:
        return WorkloadParams(num_processors=self.processors,
                              num_memory_hubs=self.memory_hubs, seed=seed)


#: The thirteen configurations of Fig. 12 by label, with the paper's speedups
#: where the paper states them explicitly (call-outs in the text / figure labels).
APPLICATION_CONFIGS: Dict[str, ApplicationConfig] = {config.label: config for config in (
    ApplicationConfig("tangent", tangent.run, 1, 0, {}, 2.8, 1.6),
    ApplicationConfig("popcount", popcount.run, 1, 1, {}, 1.9, 0.9),
    ApplicationConfig("sort/32", sort.run, 1, 2, {"slice_size": 32}, 9.8, 3.0),
    ApplicationConfig("sort/64", sort.run, 1, 2, {"slice_size": 64}, 12.9, 3.5),
    ApplicationConfig("sort/128", sort.run, 1, 2, {"slice_size": 128}, 16.2, 4.0),
    ApplicationConfig("dijkstra", dijkstra.run, 1, 1, {}, 1.5, 1.2),
    ApplicationConfig("barnes-hut", barnes_hut.run, 4, 1, {}, 3.2, 2.0),
    ApplicationConfig("pdes/4", pdes.run, 4, 1, {}, 2.8, 1.8),
    ApplicationConfig("pdes/8", pdes.run, 8, 1, {}, 4.0, 2.2),
    ApplicationConfig("pdes/16", pdes.run, 16, 1, {}, 15.1, 5.0),
    ApplicationConfig("bfs/4", bfs.run, 4, 0, {}, 3.5, 2.0),
    ApplicationConfig("bfs/8", bfs.run, 8, 0, {}, 9.0, 4.0),
    ApplicationConfig("bfs/16", bfs.run, 16, 0, {}, 24.9, 7.8),
)}

__all__ = [
    "APPLICATION_CONFIGS",
    "ApplicationConfig",
    "BenchmarkResult",
    "WorkloadParams",
]
