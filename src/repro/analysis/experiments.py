"""The paper's reference numbers and the Fig. 12 application set.

The measurement logic lives in the experiment registry
(:mod:`repro.api.registry`), where every table/figure is a named,
discoverable :class:`~repro.api.spec.ExperimentSpec` — enumerate them with
``python -m repro list`` and run them with :class:`repro.api.runner.Runner`
(optionally in parallel and with on-disk JSON caching under
``<cache_dir>/<experiment>/<key>.json``).  This module holds the
paper-reported constants (``TABLE2_PAPER``, ``FIG9_PAPER``, ...) and the
thirteen Fig. 12 :class:`ApplicationConfig` entries the registry wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.platform.config import SystemKind  # noqa: F401  (re-exported for callers)
from repro.workloads import barnes_hut, bfs, dijkstra, pdes, popcount, sort, tangent
from repro.workloads.common import BenchmarkResult, WorkloadParams


# --------------------------------------------------------------------------- #
# Paper-reported reference numbers
# --------------------------------------------------------------------------- #
#: Paper-reported (max MHz, normalized area, CLB util, BRAM util) per accelerator.
TABLE2_PAPER = {
    "tangent": (282.0, 0.47, 0.84, 0.0),
    "popcount": (189.0, 2.77, 0.83, 0.56),
    "sort32": (228.0, 6.29, 0.30, 0.76),
    "sort64": (234.0, 8.10, 0.27, 0.92),
    "sort128": (228.0, 10.27, 0.27, 0.92),
    "dijkstra": (127.0, 1.94, 0.96, 0.31),
    "barnes-hut": (85.0, 14.22, 0.99, 0.05),
    "bfs": (208.0, 1.24, 0.61, 0.75),
    "pdes": (126.0, 2.77, 0.47, 0.56),
}

#: Paper round-trip latencies (ns) per mechanism at {100, 200, 500} MHz,
#: read off Fig. 9 (sum of the stacked components).
FIG9_PAPER = {
    "shadow_reg": {100: 42, 200: 42, 500: 42},
    "normal_reg": {100: 300, 200: 180, 500: 108},
    "cpu_pull_proxy": {100: 68, 200: 68, 500: 68},
    "cpu_pull_slow": {100: 229, 200: 133, 500: 72},
    "efpga_pull_proxy": {100: 172, 200: 112, 500: 78},
    "efpga_pull_slow": {100: 271, 200: 162, 500: 121},
}

#: Paper peak bandwidths (MB/s) quoted in Sec. V-C.
FIG10_PAPER_PEAKS = {
    "efpga_pull_proxy": 558.0,
    "cpu_pull_proxy": 201.0,
    "efpga_pull_slow": 287.0,
    "cpu_pull_slow": 144.0,
    "shadow_reg": 213.0,
    "normal_reg": 121.0,
}


# --------------------------------------------------------------------------- #
# Fig. 12 application configurations
# --------------------------------------------------------------------------- #
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


#: The thirteen configurations of Fig. 12 with the paper's speedups where the
#: paper states them explicitly (call-outs in the text / figure labels).
APPLICATION_CONFIGS: List[ApplicationConfig] = [
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
]

#: Geometric means quoted in the paper for Fig. 12.
FIG12_PAPER_GEOMEAN = {"duet": 4.53, "fpsoc": 2.14}
FIG12_PAPER_ADP_GEOMEAN = {"duet": 0.61, "fpsoc": 1.23}
