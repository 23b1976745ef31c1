"""Barnes-Hut benchmark (Dolly-P4M1, fine-grained acceleration).

One force-calculation step of a 2-D Barnes-Hut N-body simulation.  The tree
(a quadtree) is built in software and laid out in coherent memory; the
measured phase computes the net force on every particle, parallelized
across four processors.  The baseline evaluates the monopole approximation
(``ApproxForce``) and the exact pairwise kernel (``CalcForce``) in software;
the accelerated versions offload both kernels to the pipelined soft
accelerators, which the four threads time-multiplex (Fig. 7).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.accel.barnes_hut import (
    BarnesHutForceAccelerator,
    RECORD_BYTES,
    REG_APPROX_REQ,
    REG_CALC_REQ,
    REG_NODES_BASE,
    REG_PARTICLES_BASE,
    REG_RESULT_BASE,
    STOP_COMMAND,
    encode_request,
    from_fixed,
    gravitational_force,
    register_layout,
    to_fixed,
)
from repro.core.soft_cache import SoftCacheConfig
from repro.platform.config import SystemKind
from repro.workloads.common import (BenchmarkResult, WorkloadParams, build_accelerated_system,
                                    build_benchmark_system, finalize_result)

DEFAULT_PARTICLES = 32
THRESHOLD = 0.5
WORD_BYTES = 8
#: Software instruction costs of the two kernels (mostly FP: squares, a
#: square root, divisions — expensive on the in-order core) and tree logic.
APPROX_FP_OPS = 56
CALC_FP_OPS = 36
VISIT_OPS = 8


@dataclass
class _QuadNode:
    x_min: float
    y_min: float
    size: float
    center_x: float = 0.0
    center_y: float = 0.0
    mass: float = 0.0
    particle_index: Optional[int] = None
    children: List[Optional["_QuadNode"]] = field(default_factory=lambda: [None] * 4)
    index: int = -1

    @property
    def is_leaf(self) -> bool:
        return all(child is None for child in self.children)


def _make_particles(count: int, seed: int):
    rng = random.Random(seed)
    return [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0))
            for _ in range(count)]


def _build_tree(particles) -> List[_QuadNode]:
    root = _QuadNode(0.0, 0.0, 1.0)
    nodes = [root]

    def insert(node, particle_index):
        x, y, mass = particles[particle_index]
        if node.is_leaf and node.particle_index is None and node.mass == 0.0:
            node.particle_index = particle_index
            node.center_x, node.center_y, node.mass = x, y, mass
            return
        if node.is_leaf and node.particle_index is not None:
            existing = node.particle_index
            node.particle_index = None
            _push_down(node, existing)
        _push_down(node, particle_index)
        # Recompute the aggregate (center of mass) bottom-up lazily later.

    def _push_down(node, particle_index):
        x, y, _ = particles[particle_index]
        half = node.size / 2
        quadrant = (1 if x >= node.x_min + half else 0) + (2 if y >= node.y_min + half else 0)
        if node.children[quadrant] is None:
            child = _QuadNode(
                node.x_min + (half if quadrant & 1 else 0.0),
                node.y_min + (half if quadrant & 2 else 0.0),
                half,
            )
            node.children[quadrant] = child
            nodes.append(child)
        insert(node.children[quadrant], particle_index)

    for index in range(len(particles)):
        insert(root, index)

    def summarize(node):
        if node.is_leaf:
            return node.mass, node.center_x * node.mass, node.center_y * node.mass
        total, mx, my = 0.0, 0.0, 0.0
        if node.particle_index is not None:
            total += node.mass
            mx += node.center_x * node.mass
            my += node.center_y * node.mass
        for child in node.children:
            if child is not None:
                c_total, c_mx, c_my = summarize(child)
                total += c_total
                mx += c_mx
                my += c_my
        node.mass = total
        node.center_x = mx / total if total else 0.0
        node.center_y = my / total if total else 0.0
        return total, mx, my

    summarize(root)
    for index, node in enumerate(nodes):
        node.index = index
    return nodes


def _reference_forces(particles, nodes) -> List[float]:
    root = nodes[0]
    forces = []

    def traverse(node, px, py, pm):
        if node is None or node.mass == 0.0:
            return 0.0
        dx = node.center_x - px
        dy = node.center_y - py
        distance = math.sqrt(dx * dx + dy * dy) + 1e-9
        if node.is_leaf or node.size / distance < THRESHOLD:
            return gravitational_force(px, py, pm, node.center_x, node.center_y, node.mass)
        return sum(traverse(child, px, py, pm) for child in node.children if child is not None)

    for px, py, pm in particles:
        forces.append(traverse(root, px, py, pm))
    return forces


def _layout_records(system, nodes, particles):
    nodes_base = system.memory.allocate(len(nodes) * RECORD_BYTES, align=64)
    particles_base = system.memory.allocate(len(particles) * RECORD_BYTES, align=64)
    for index, node in enumerate(nodes):
        base = nodes_base + index * RECORD_BYTES
        system.memory.write_word(base, to_fixed(node.center_x))
        system.memory.write_word(base + 8, to_fixed(node.center_y))
        system.memory.write_word(base + 16, to_fixed(node.mass))
    for index, (x, y, mass) in enumerate(particles):
        base = particles_base + index * RECORD_BYTES
        system.memory.write_word(base, to_fixed(x))
        system.memory.write_word(base + 8, to_fixed(y))
        system.memory.write_word(base + 16, to_fixed(mass))
    return nodes_base, particles_base


def _partition(count: int, workers: int) -> List[range]:
    chunk = (count + workers - 1) // workers
    return [range(start, min(count, start + chunk)) for start in range(0, count, chunk)]


def _forces_close(measured: List[float], expected: List[float], tolerance: float = 0.05) -> bool:
    for got, want in zip(measured, expected):
        if want == 0.0:
            continue
        if abs(got - want) / abs(want) > tolerance:
            return False
    return True


def run_cpu(params: WorkloadParams,
            num_particles: int = DEFAULT_PARTICLES) -> BenchmarkResult:
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    particles = _make_particles(num_particles, params.seed)
    nodes = _build_tree(particles)
    nodes_base, particles_base = _layout_records(system, nodes, particles)
    expected = _reference_forces(particles, nodes)
    for core in range(params.num_processors):
        system.warm_cache(core, nodes_base, len(nodes) * RECORD_BYTES)
    forces = [0.0] * num_particles

    def program(ctx, particle_range):
        for particle_index in particle_range:
            px, py, pm = particles[particle_index]
            total = 0.0
            stack = [0]
            while stack:
                node_index = stack.pop()
                node = nodes[node_index]
                yield from ctx.load(nodes_base + node_index * RECORD_BYTES)
                yield from ctx.compute(VISIT_OPS)
                if node.mass == 0.0:
                    continue
                dx = node.center_x - px
                dy = node.center_y - py
                distance = math.sqrt(dx * dx + dy * dy) + 1e-9
                if node.is_leaf or node.size / distance < THRESHOLD:
                    fp_ops = CALC_FP_OPS if node.is_leaf else APPROX_FP_OPS
                    yield from ctx.compute(fp_ops, fp=True)
                    total += gravitational_force(px, py, pm, node.center_x, node.center_y, node.mass)
                else:
                    for child in node.children:
                        if child is not None:
                            stack.append(child.index)
            forces[particle_index] = total
        return len(particle_range)

    partitions = _partition(num_particles, params.num_processors)
    assignments = [(core, program, (particle_range,))
                   for core, particle_range in enumerate(partitions)]
    _, elapsed = system.run_programs(assignments, max_events=200_000_000)
    return finalize_result(
        "barnes-hut", SystemKind.CPU_ONLY, system, elapsed,
        correct=_forces_close(forces, expected), checksum=round(sum(forces), 3),
    )


def run_accelerated(kind: SystemKind, params: WorkloadParams,
                    num_particles: int = DEFAULT_PARTICLES) -> BenchmarkResult:
    system, synthesis = build_accelerated_system(
        kind, params, BarnesHutForceAccelerator(), register_layout(params.num_processors),
        soft_cache=(SoftCacheConfig(size_bytes=8192, assoc=4)
                    if kind is SystemKind.DUET else None),
    )
    adapter = system.adapter
    particles = _make_particles(num_particles, params.seed)
    nodes = _build_tree(particles)
    nodes_base, particles_base = _layout_records(system, nodes, particles)
    expected = _reference_forces(particles, nodes)
    forces = [0.0] * num_particles

    def program(ctx, thread, particle_range):
        if thread == 0:
            yield from ctx.mmio_write(adapter.register_addr(REG_NODES_BASE), nodes_base)
            yield from ctx.mmio_write(adapter.register_addr(REG_PARTICLES_BASE), particles_base)
        else:
            yield from ctx.compute(50)  # let thread 0 publish the bases first
        result_reg = adapter.register_addr(REG_RESULT_BASE + thread)
        for particle_index in particle_range:
            px, py, pm = particles[particle_index]
            outstanding = 0
            total = 0.0
            stack = [0]
            while stack:
                node_index = stack.pop()
                node = nodes[node_index]
                yield from ctx.load(nodes_base + node_index * RECORD_BYTES)
                yield from ctx.compute(VISIT_OPS)
                if node.mass == 0.0:
                    continue
                dx = node.center_x - px
                dy = node.center_y - py
                distance = math.sqrt(dx * dx + dy * dy) + 1e-9
                if node.is_leaf or node.size / distance < THRESHOLD:
                    register = REG_CALC_REQ if node.is_leaf else REG_APPROX_REQ
                    request = encode_request(thread, node_index, particle_index)
                    yield from ctx.mmio_write(adapter.register_addr(register), request)
                    outstanding += 1
                    # Software pipelining: keep a few requests in flight.
                    if outstanding >= 4:
                        raw = yield from ctx.mmio_read(result_reg)
                        total += from_fixed(raw)
                        outstanding -= 1
                else:
                    for child in node.children:
                        if child is not None:
                            stack.append(child.index)
            while outstanding:
                raw = yield from ctx.mmio_read(result_reg)
                total += from_fixed(raw)
                outstanding -= 1
            forces[particle_index] = total
        return len(particle_range)

    partitions = _partition(num_particles, params.num_processors)
    assignments = [(core, program, (core, particle_range))
                   for core, particle_range in enumerate(partitions)]
    _, elapsed = system.run_programs(assignments, max_events=200_000_000)
    # Stop both pipelines so the accelerator process terminates cleanly.
    system.sim.run_process(_stop_accelerator(system, adapter), name="bh-stop")
    return finalize_result(
        "barnes-hut", kind, system, elapsed,
        correct=_forces_close(forces, expected), checksum=round(sum(forces), 3),
        synthesis=synthesis,
    )


def _stop_accelerator(system, adapter):
    ctx = system.context(0)
    yield from ctx.mmio_write(adapter.register_addr(REG_APPROX_REQ), STOP_COMMAND)
    yield from ctx.mmio_write(adapter.register_addr(REG_CALC_REQ), STOP_COMMAND)


def run(kind: SystemKind, params: WorkloadParams,
        num_particles: int = DEFAULT_PARTICLES) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, num_particles)
    return run_accelerated(kind, params, num_particles)
