"""PDES benchmark (Dolly-P{4,8,16}M1, hardware augmentation).

Parallel discrete event simulation of a small digital circuit: gates with
propagation delays, events carrying (timestamp, gate) pairs.  The
processor-only baseline keeps a single shared event queue arbitrated with an
MCS lock (Sec. V-D), which becomes the bottleneck as cores are added.  The
accelerated versions replace the queue with the eFPGA-emulated task
scheduler: cores push new events into an FPGA-bound FIFO and pull ready
events from a CPU-bound FIFO, and the conservative window advance happens in
hardware.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.accel.pdes_scheduler import (
    COMMIT_COMMAND,
    EMPTY_HANDLE,
    FLUSH_COMMAND,
    PdesSchedulerAccelerator,
    REG_READY,
    REG_SCHEDULE,
    decode_event,
    encode_event,
    register_layout,
)
from repro.core.shadow_registers import BOGUS_VALUE
from repro.cpu.sync import McsLock
from repro.platform.config import SystemKind
from repro.workloads.common import (BenchmarkResult, WorkloadParams, build_accelerated_system,
                                    build_benchmark_system, finalize_result)

DEFAULT_GATES = 24
DEFAULT_INITIAL_EVENTS = 24
DEFAULT_MAX_EVENTS = 120
WORD_BYTES = 8
#: Instructions to evaluate one gate (load inputs, evaluate, schedule fanout).
GATE_EVAL_OPS = 40


def _make_circuit(gates: int, seed: int) -> List[List[int]]:
    """Random fanout lists: gate -> downstream gates."""
    rng = random.Random(seed)
    fanout = []
    for gate in range(gates):
        outputs = {(gate + 1) % gates}
        if rng.random() < 0.6:
            outputs.add(rng.randrange(gates))
        fanout.append(sorted(outputs))
    return fanout


def _delays(gates: int, seed: int) -> List[int]:
    rng = random.Random(seed + 1)
    return [rng.randint(1, 5) for _ in range(gates)]


def _reference_event_count(fanout, delays, initial_events, max_events) -> int:
    """Total number of events processed by a sequential reference simulator."""
    import heapq

    heap = list(initial_events)
    heapq.heapify(heap)
    processed = 0
    while heap and processed < max_events:
        timestamp, gate = heapq.heappop(heap)
        processed += 1
        if processed + len(heap) < max_events:
            for downstream in fanout[gate]:
                heapq.heappush(heap, (timestamp + delays[gate], downstream))
    return processed


def _initial_events(gates: int, count: int, seed: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed + 2)
    return [(rng.randint(0, 3), rng.randrange(gates)) for _ in range(count)]


def run_cpu(params: WorkloadParams, gates: int = DEFAULT_GATES,
            max_events: int = DEFAULT_MAX_EVENTS) -> BenchmarkResult:
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    fanout = _make_circuit(gates, params.seed)
    delays = _delays(gates, params.seed)
    initial = _initial_events(gates, DEFAULT_INITIAL_EVENTS, params.seed)
    expected = _reference_event_count(fanout, delays, initial, max_events)

    # Shared software event queue protected by an MCS lock.
    lock = McsLock(system.memory, max_threads=params.num_processors)
    queue: List[Tuple[int, int]] = sorted(initial)
    counters = {"processed": 0, "scheduled": len(initial)}
    queue_base = system.memory.allocate(4 * max_events * WORD_BYTES)

    def program(ctx, thread):
        import heapq

        local_processed = 0
        idle_spins = 0
        while True:
            yield from lock.acquire(ctx, thread)
            yield from ctx.load(queue_base)
            if counters["processed"] >= max_events or (not queue and idle_spins > 20):
                yield from lock.release(ctx, thread)
                return local_processed
            if not queue:
                yield from lock.release(ctx, thread)
                idle_spins += 1
                yield from ctx.compute(20)
                continue
            idle_spins = 0
            timestamp, gate = heapq.heappop(queue)
            counters["processed"] += 1
            yield from ctx.store(queue_base, counters["processed"])
            yield from lock.release(ctx, thread)
            # Evaluate the gate outside the critical section.
            yield from ctx.compute(GATE_EVAL_OPS)
            local_processed += 1
            new_events = []
            if counters["processed"] + len(queue) < max_events:
                for downstream in fanout[gate]:
                    new_events.append((timestamp + delays[gate], downstream))
            if new_events:
                yield from lock.acquire(ctx, thread)
                for event in new_events:
                    heapq.heappush(queue, event)
                    yield from ctx.store(queue_base + 8 * (counters["scheduled"] % max_events), 1)
                    counters["scheduled"] += 1
                yield from lock.release(ctx, thread)

    assignments = [(core, program, (core,)) for core in range(params.num_processors)]
    _, elapsed = system.run_programs(assignments, max_events=300_000_000)
    return finalize_result(
        f"pdes/{params.num_processors}", SystemKind.CPU_ONLY, system, elapsed,
        correct=counters["processed"] >= min(expected, max_events) - params.num_processors,
        checksum=counters["processed"],
    )


def run_accelerated(kind: SystemKind, params: WorkloadParams,
                    gates: int = DEFAULT_GATES, max_events: int = DEFAULT_MAX_EVENTS) -> BenchmarkResult:
    system, synthesis = build_accelerated_system(
        kind, params, PdesSchedulerAccelerator(), register_layout()
    )
    adapter = system.adapter
    fanout = _make_circuit(gates, params.seed)
    delays = _delays(gates, params.seed)
    initial = _initial_events(gates, DEFAULT_INITIAL_EVENTS, params.seed)
    expected = _reference_event_count(fanout, delays, initial, max_events)
    counters = {"processed": 0}

    def program(ctx, thread):
        local_processed = 0
        if thread == 0:
            for timestamp, gate in initial:
                yield from ctx.mmio_write(adapter.register_addr(REG_SCHEDULE),
                                          encode_event(timestamp, gate))
        while counters["processed"] < max_events:
            # Blocking pop of the ready-event FIFO: the processor stalls only
            # until the scheduler dispatches work (or the run is flushed).
            ready = yield from ctx.mmio_read(adapter.register_addr(REG_READY))
            if ready in (BOGUS_VALUE, EMPTY_HANDLE) or ready is None:
                continue
            timestamp, gate = decode_event(ready)
            yield from ctx.compute(GATE_EVAL_OPS)
            counters["processed"] += 1
            local_processed += 1
            finished_run = counters["processed"] >= max_events
            if not finished_run:
                for downstream in fanout[gate]:
                    yield from ctx.mmio_write(adapter.register_addr(REG_SCHEDULE),
                                              encode_event(timestamp + delays[gate], downstream))
            yield from ctx.mmio_write(adapter.register_addr(REG_SCHEDULE), COMMIT_COMMAND)
            if finished_run:
                # Wake every sibling blocked on the ready FIFO so the run ends.
                yield from ctx.mmio_write(adapter.register_addr(REG_SCHEDULE),
                                          FLUSH_COMMAND | params.num_processors)
        return local_processed

    assignments = [(core, program, (core,)) for core in range(params.num_processors)]
    _, elapsed = system.run_programs(assignments, max_events=300_000_000)
    return finalize_result(
        f"pdes/{params.num_processors}", kind, system, elapsed,
        correct=counters["processed"] >= min(expected, max_events) - params.num_processors,
        checksum=counters["processed"],
        synthesis=synthesis,
    )


def run(kind: SystemKind, params: WorkloadParams,
        gates: int = DEFAULT_GATES, max_events: int = DEFAULT_MAX_EVENTS) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, gates, max_events)
    return run_accelerated(kind, params, gates, max_events)
