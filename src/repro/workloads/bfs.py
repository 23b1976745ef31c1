"""BFS benchmark (Dolly-P{4,8,16}M0, hardware augmentation).

Level-synchronous parallel breadth-first search over a random sparse graph.
The processor-only baseline keeps the current/next frontiers in shared
memory: appends to the next frontier are serialized by a spin lock and the
level change is a software barrier — both of which scale poorly (the paper
notes the baseline slows down from 4 to 8 cores).  The accelerated versions
replace the frontier arrays with the eFPGA-emulated lock-free queues: pushes
and pops are single MMIO accesses to shadow-register FIFOs.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.accel.lockfree_queue import (
    END_OF_FRONTIER,
    FrontierQueueAccelerator,
    REG_NUM_CORES,
    REG_POP,
    REG_PUSH,
    STOP_COMMAND,
    SWAP_COMMAND,
    register_layout,
)
from repro.core.shadow_registers import BOGUS_VALUE
from repro.cpu.sync import Barrier, SpinLock
from repro.platform.config import SystemKind
from repro.workloads.common import (BenchmarkResult, WorkloadParams, build_accelerated_system,
                                    build_benchmark_system, finalize_result)

DEFAULT_VERTICES = 96
DEFAULT_DEGREE = 3
WORD_BYTES = 8
#: Software cost of scanning one neighbour (index math, visited check).
NEIGHBOR_OPS = 5


def _make_graph(vertices: int, degree: int, seed: int) -> List[List[int]]:
    rng = random.Random(seed)
    adjacency: List[List[int]] = [[] for _ in range(vertices)]
    for vertex in range(vertices):
        neighbors = {(vertex + 1) % vertices}
        for _ in range(degree - 1):
            neighbors.add(rng.randrange(vertices))
        neighbors.discard(vertex)
        adjacency[vertex] = sorted(neighbors)
    return adjacency


def _reference_levels(adjacency: List[List[int]], source: int = 0) -> List[int]:
    from collections import deque

    levels = [-1] * len(adjacency)
    levels[source] = 0
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in adjacency[vertex]:
            if levels[neighbor] < 0:
                levels[neighbor] = levels[vertex] + 1
                queue.append(neighbor)
    return levels


def _layout_graph(system, adjacency) -> Dict[str, int]:
    vertices = len(adjacency)
    edges = sum(len(neighbors) for neighbors in adjacency)
    rowptr_base = system.memory.allocate((vertices + 2) * WORD_BYTES, align=64)
    edges_base = system.memory.allocate((edges + 1) * WORD_BYTES, align=64)
    levels_base = system.memory.allocate(vertices * WORD_BYTES, align=64)
    offset = 0
    for vertex, neighbors in enumerate(adjacency):
        system.memory.write_word(rowptr_base + vertex * WORD_BYTES, offset)
        for neighbor in neighbors:
            system.memory.write_word(edges_base + offset * WORD_BYTES, neighbor)
            offset += 1
    system.memory.write_word(rowptr_base + vertices * WORD_BYTES, offset)
    for vertex in range(vertices):
        system.memory.write_word(levels_base + vertex * WORD_BYTES, 0)
    return {"rowptr": rowptr_base, "edges": edges_base, "levels": levels_base,
            "edge_count": offset}


def _check_levels(system, layout, adjacency) -> bool:
    expected = _reference_levels(adjacency)
    measured = []
    for vertex in range(len(adjacency)):
        value = system.memory.read_word(layout["levels"] + vertex * WORD_BYTES)
        measured.append(value - 1 if value > 0 else (0 if vertex == 0 else -1))
    return measured == expected


def run_cpu(params: WorkloadParams, vertices: int = DEFAULT_VERTICES,
            degree: int = DEFAULT_DEGREE) -> BenchmarkResult:
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    adjacency = _make_graph(vertices, degree, params.seed)
    layout = _layout_graph(system, adjacency)
    num_cores = params.num_processors
    for core in range(num_cores):
        system.warm_cache(core, layout["rowptr"], (vertices + 1) * WORD_BYTES)
        system.warm_cache(core, layout["edges"], layout["edge_count"] * WORD_BYTES)

    # Shared frontier arrays in simulated memory, protected by a spin lock.
    frontier_base = system.memory.allocate((vertices + 4) * WORD_BYTES, align=64)
    next_base = system.memory.allocate((vertices + 4) * WORD_BYTES, align=64)
    counters_base = system.memory.allocate(4 * WORD_BYTES, align=64)  # [cur_size, next_size]
    lock = SpinLock(system.memory)
    barrier = Barrier(system.memory, num_cores)
    # Source vertex seeds the first frontier; levels stored as level+1 (0 = unvisited).
    system.memory.write_word(frontier_base, 0)
    system.memory.write_word(counters_base, 1)
    system.memory.write_word(layout["levels"], 1)

    def program(ctx, thread):
        current_base, other_base = frontier_base, next_base
        while True:
            frontier_size = yield from ctx.load(counters_base)
            if frontier_size == 0:
                return True
            # Each core takes a strided share of the current frontier.
            for slot in range(thread, frontier_size, num_cores):
                vertex = yield from ctx.load(current_base + slot * WORD_BYTES)
                level = yield from ctx.load(layout["levels"] + vertex * WORD_BYTES)
                start = yield from ctx.load(layout["rowptr"] + vertex * WORD_BYTES)
                end = yield from ctx.load(layout["rowptr"] + (vertex + 1) * WORD_BYTES)
                for edge in range(start, end):
                    neighbor = yield from ctx.load(layout["edges"] + edge * WORD_BYTES)
                    yield from ctx.compute(NEIGHBOR_OPS)
                    seen = yield from ctx.load(layout["levels"] + neighbor * WORD_BYTES)
                    if seen == 0:
                        # Claim the vertex and append it to the next frontier
                        # under the shared lock (the software bottleneck).
                        yield from lock.acquire(ctx)
                        seen_again = yield from ctx.load(layout["levels"] + neighbor * WORD_BYTES)
                        if seen_again == 0:
                            yield from ctx.store(layout["levels"] + neighbor * WORD_BYTES, level + 1)
                            next_size = yield from ctx.load(counters_base + WORD_BYTES)
                            yield from ctx.store(other_base + next_size * WORD_BYTES, neighbor)
                            yield from ctx.store(counters_base + WORD_BYTES, next_size + 1)
                        yield from lock.release(ctx)
            yield from barrier.wait(ctx, thread)
            if thread == 0:
                next_size = yield from ctx.load(counters_base + WORD_BYTES)
                yield from ctx.store(counters_base, next_size)
                yield from ctx.store(counters_base + WORD_BYTES, 0)
            yield from barrier.wait(ctx, thread)
            current_base, other_base = other_base, current_base

    assignments = [(core, program, (core,)) for core in range(num_cores)]
    _, elapsed = system.run_programs(assignments, max_events=400_000_000)
    return finalize_result(
        f"bfs/{num_cores}", SystemKind.CPU_ONLY, system, elapsed,
        correct=_check_levels(system, layout, adjacency),
        checksum=sum(system.memory.read_word(layout["levels"] + v * WORD_BYTES)
                     for v in range(vertices)),
    )


def run_accelerated(kind: SystemKind, params: WorkloadParams,
                    vertices: int = DEFAULT_VERTICES, degree: int = DEFAULT_DEGREE) -> BenchmarkResult:
    system, synthesis = build_accelerated_system(
        kind, params, FrontierQueueAccelerator(), register_layout()
    )
    adapter = system.adapter
    adjacency = _make_graph(vertices, degree, params.seed)
    layout = _layout_graph(system, adjacency)
    num_cores = params.num_processors
    barrier = Barrier(system.memory, num_cores)
    system.memory.write_word(layout["levels"], 1)
    #: Shared "this level did some work" flag used to detect termination.
    progress_flag = system.memory.allocate(system.memory.config.line_bytes)

    def program(ctx, thread):
        push_addr = adapter.register_addr(REG_PUSH)
        pop_addr = adapter.register_addr(REG_POP)
        if thread == 0:
            yield from ctx.mmio_write(adapter.register_addr(REG_NUM_CORES), num_cores)
            yield from ctx.mmio_write(push_addr, 0)           # seed the frontier
            yield from ctx.mmio_write(push_addr, SWAP_COMMAND)
        level = 1
        while True:
            # Pull vertices from the hardware queue until the level sentinel.
            processed_any = False
            while True:
                vertex = yield from ctx.mmio_read(pop_addr)
                if vertex == END_OF_FRONTIER or vertex == BOGUS_VALUE:
                    break
                processed_any = True
                start = yield from ctx.load(layout["rowptr"] + vertex * WORD_BYTES)
                end = yield from ctx.load(layout["rowptr"] + (vertex + 1) * WORD_BYTES)
                for edge in range(start, end):
                    neighbor = yield from ctx.load(layout["edges"] + edge * WORD_BYTES)
                    yield from ctx.compute(NEIGHBOR_OPS)
                    seen = yield from ctx.load(layout["levels"] + neighbor * WORD_BYTES)
                    if seen == 0:
                        claimed = yield from ctx.cas(layout["levels"] + neighbor * WORD_BYTES,
                                                     0, level + 1)
                        if claimed:
                            yield from ctx.mmio_write(push_addr, neighbor)
            if processed_any:
                yield from ctx.store(progress_flag, 1)
            yield from barrier.wait(ctx, thread)
            flag = yield from ctx.load(progress_flag)
            yield from barrier.wait(ctx, thread)
            if flag == 0:
                return True
            if thread == 0:
                yield from ctx.store(progress_flag, 0)
                yield from ctx.mmio_write(push_addr, SWAP_COMMAND)
            yield from barrier.wait(ctx, thread)
            level += 1

    assignments = [(core, program, (core,)) for core in range(num_cores)]
    _, elapsed = system.run_programs(assignments, max_events=400_000_000)
    system.sim.run_process(_stop(system, adapter), name="bfs-stop")
    return finalize_result(
        f"bfs/{num_cores}", kind, system, elapsed,
        correct=_check_levels(system, layout, adjacency),
        checksum=sum(system.memory.read_word(layout["levels"] + v * WORD_BYTES)
                     for v in range(vertices)),
        synthesis=synthesis,
    )


def _stop(system, adapter):
    ctx = system.context(0)
    yield from ctx.mmio_write(adapter.register_addr(REG_PUSH), STOP_COMMAND)


def run(kind: SystemKind, params: WorkloadParams,
        vertices: int = DEFAULT_VERTICES, degree: int = DEFAULT_DEGREE) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, vertices, degree)
    return run_accelerated(kind, params, vertices, degree)
