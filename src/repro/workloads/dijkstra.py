"""Dijkstra benchmark (Dolly-P1M1, fine-grained acceleration).

Single-source shortest paths on a random sparse graph stored in CSR form in
coherent memory.  The processor-only baseline runs the full algorithm in
software; the accelerated versions keep the priority-queue scan on the
processor and offload the per-vertex edge relaxation to the accelerator,
which runs behind a soft cache to exploit locality between consecutive
calls (Sec. V-D).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.accel.dijkstra import (
    DijkstraRelaxAccelerator,
    INFINITY,
    REG_COMMAND,
    REG_DIST_BASE,
    REG_EDGES_BASE,
    REG_ROWPTR_BASE,
    REG_UPDATED,
    STOP_COMMAND,
    pack_edge,
    register_layout,
)
from repro.core.soft_cache import SoftCacheConfig
from repro.platform.config import SystemKind
from repro.workloads.common import (BenchmarkResult, WorkloadParams, build_accelerated_system,
                                    build_benchmark_system, finalize_result)

DEFAULT_VERTICES = 48
DEFAULT_DEGREE = 8
WORD_BYTES = 8
#: Software costs (instructions) in the baseline inner loops.  Relaxation is
#: floating-point in the reference C kernel (distance accumulation), which is
#: what makes it worth offloading despite its small size.
RELAX_OPS = 16
SCAN_OPS = 3


def _make_graph(vertices: int, degree: int, seed: int) -> List[List[Tuple[int, int]]]:
    """Random connected digraph as adjacency lists of (dst, weight)."""
    rng = random.Random(seed)
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(vertices)]
    # A ring guarantees connectivity; extra random edges add shortcuts.
    for vertex in range(vertices):
        adjacency[vertex].append(((vertex + 1) % vertices, rng.randint(1, 9)))
        for _ in range(degree - 1):
            dst = rng.randrange(vertices)
            if dst != vertex:
                adjacency[vertex].append((dst, rng.randint(1, 20)))
    return adjacency


def _reference_distances(adjacency: List[List[Tuple[int, int]]], source: int = 0) -> List[int]:
    import heapq

    distances = [INFINITY] * len(adjacency)
    distances[source] = 0
    heap = [(0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if dist > distances[vertex]:
            continue
        for dst, weight in adjacency[vertex]:
            candidate = dist + weight
            if candidate < distances[dst]:
                distances[dst] = candidate
                heapq.heappush(heap, (candidate, dst))
    return distances


def _layout_csr(system, adjacency) -> Dict[str, int]:
    """Store the graph in CSR form in simulated memory; returns base addresses."""
    vertices = len(adjacency)
    edges = sum(len(edges) for edges in adjacency)
    dist_base = system.memory.allocate((vertices + 1) * WORD_BYTES, align=64)
    rowptr_base = system.memory.allocate((vertices + 2) * WORD_BYTES, align=64)
    edges_base = system.memory.allocate((edges + 1) * WORD_BYTES, align=64)
    offset = 0
    for vertex, edge_list in enumerate(adjacency):
        system.memory.write_word(rowptr_base + vertex * WORD_BYTES, offset)
        for dst, weight in edge_list:
            system.memory.write_word(edges_base + offset * WORD_BYTES, pack_edge(dst, weight))
            offset += 1
    system.memory.write_word(rowptr_base + vertices * WORD_BYTES, offset)
    for vertex in range(vertices):
        system.memory.write_word(dist_base + vertex * WORD_BYTES, INFINITY)
    system.memory.write_word(dist_base, 0)
    return {"dist": dist_base, "rowptr": rowptr_base, "edges": edges_base,
            "vertices": vertices, "edge_count": offset}


def run_cpu(params: WorkloadParams, vertices: int = DEFAULT_VERTICES,
            degree: int = DEFAULT_DEGREE) -> BenchmarkResult:
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    adjacency = _make_graph(vertices, degree, params.seed)
    layout = _layout_csr(system, adjacency)
    expected = _reference_distances(adjacency)
    system.warm_cache(0, layout["rowptr"], (vertices + 1) * WORD_BYTES)
    system.warm_cache(0, layout["edges"], layout["edge_count"] * WORD_BYTES)
    system.warm_cache(0, layout["dist"], vertices * WORD_BYTES, modified=True)

    def program(ctx):
        settled = [False] * vertices
        for _ in range(vertices):
            # Linear scan for the unsettled vertex with the smallest distance
            # (the array-based priority queue a bare-metal kernel would use).
            best, best_dist = -1, INFINITY + 1
            for vertex in range(vertices):
                yield from ctx.compute(SCAN_OPS)
                if settled[vertex]:
                    continue
                dist = yield from ctx.load(layout["dist"] + vertex * WORD_BYTES)
                if dist < best_dist:
                    best, best_dist = vertex, dist
            if best < 0 or best_dist >= INFINITY:
                break
            settled[best] = True
            start = yield from ctx.load(layout["rowptr"] + best * WORD_BYTES)
            end = yield from ctx.load(layout["rowptr"] + (best + 1) * WORD_BYTES)
            for edge_index in range(start, end):
                packed = yield from ctx.load(layout["edges"] + edge_index * WORD_BYTES)
                dst, weight = packed & 0xFFFF_FFFF, packed >> 32
                yield from ctx.compute(RELAX_OPS, fp=True)
                current = yield from ctx.load(layout["dist"] + dst * WORD_BYTES)
                if best_dist + weight < current:
                    yield from ctx.store(layout["dist"] + dst * WORD_BYTES, best_dist + weight)
        return True

    _, elapsed = system.run_single(program, max_events=150_000_000)
    measured = [system.memory.read_word(layout["dist"] + v * WORD_BYTES) for v in range(vertices)]
    return finalize_result(
        "dijkstra", SystemKind.CPU_ONLY, system, elapsed,
        correct=measured == expected, checksum=sum(measured),
    )


def run_accelerated(kind: SystemKind, params: WorkloadParams,
                    vertices: int = DEFAULT_VERTICES, degree: int = DEFAULT_DEGREE) -> BenchmarkResult:
    system, synthesis = build_accelerated_system(
        kind, params, DijkstraRelaxAccelerator(), register_layout(),
        soft_cache=SoftCacheConfig(size_bytes=8192, assoc=4) if kind is SystemKind.DUET else None,
    )
    adapter = system.adapter
    adjacency = _make_graph(vertices, degree, params.seed)
    layout = _layout_csr(system, adjacency)
    expected = _reference_distances(adjacency)

    def program(ctx):
        yield from ctx.mmio_write(adapter.register_addr(REG_DIST_BASE), layout["dist"])
        yield from ctx.mmio_write(adapter.register_addr(REG_ROWPTR_BASE), layout["rowptr"])
        yield from ctx.mmio_write(adapter.register_addr(REG_EDGES_BASE), layout["edges"])
        settled = [False] * vertices
        for _ in range(vertices):
            best, best_dist = -1, INFINITY + 1
            for vertex in range(vertices):
                yield from ctx.compute(SCAN_OPS)
                if settled[vertex]:
                    continue
                dist = yield from ctx.load(layout["dist"] + vertex * WORD_BYTES)
                if dist < best_dist:
                    best, best_dist = vertex, dist
            if best < 0 or best_dist >= INFINITY:
                break
            settled[best] = True
            yield from ctx.mmio_write(adapter.register_addr(REG_COMMAND), best)
            yield from ctx.mmio_read(adapter.register_addr(REG_UPDATED))
        yield from ctx.mmio_write(adapter.register_addr(REG_COMMAND), STOP_COMMAND)
        return True

    _, elapsed = system.run_single(program, max_events=150_000_000)
    measured = [system.memory.read_word(layout["dist"] + v * WORD_BYTES) for v in range(vertices)]
    return finalize_result(
        "dijkstra", kind, system, elapsed,
        correct=measured == expected, checksum=sum(measured),
        synthesis=synthesis,
    )


def run(kind: SystemKind, params: WorkloadParams,
        vertices: int = DEFAULT_VERTICES, degree: int = DEFAULT_DEGREE) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, vertices, degree)
    return run_accelerated(kind, params, vertices, degree)
