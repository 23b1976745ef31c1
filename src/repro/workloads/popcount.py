"""Popcount benchmark (Dolly-P1M1, fine-grained acceleration).

Counts the set bits of a batch of 512-bit vectors resident in coherent
memory.  The processor-only baseline walks each vector byte by byte with a
lookup table (the Ariane core has no BitManip extension); the accelerated
versions pass the vector index through an FPGA-bound FIFO and let the
accelerator stream the four cache lines through its Memory Hub.
"""

from __future__ import annotations

import random
from typing import List

from repro.accel.popcount import (
    PopcountAccelerator,
    REG_BASE_ADDR,
    REG_COMMAND,
    REG_RESULT,
    REG_STRIDE,
    STOP_COMMAND,
    VECTOR_BYTES,
    register_layout,
)
from repro.platform.config import SystemKind
from repro.workloads.common import (BenchmarkResult, WorkloadParams, build_accelerated_system,
                                    build_benchmark_system, finalize_result)

DEFAULT_VECTORS = 24
WORD_BYTES = 8
#: Per-byte cost of the software byte-lookup loop (shift, mask, table load, add).
BYTE_LOOKUP_OPS = 4


def _make_vectors(count: int, seed: int) -> List[List[int]]:
    rng = random.Random(seed)
    return [
        [rng.getrandbits(64) for _ in range(VECTOR_BYTES // WORD_BYTES)]
        for _ in range(count)
    ]


def _expected_counts(vectors: List[List[int]]) -> List[int]:
    return [sum(bin(word).count("1") for word in vector) for vector in vectors]


def _store_vectors(system, base: int, vectors: List[List[int]]) -> None:
    for vector_index, vector in enumerate(vectors):
        for word_index, word in enumerate(vector):
            system.memory.write_word(base + vector_index * VECTOR_BYTES + word_index * WORD_BYTES, word)


def run_cpu(params: WorkloadParams, vectors: int = DEFAULT_VECTORS) -> BenchmarkResult:
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    data = _make_vectors(vectors, params.seed)
    base = system.memory.allocate(vectors * VECTOR_BYTES, align=64)
    _store_vectors(system, base, data)
    # The baseline starts with a warm cache (Sec. V-A).
    system.warm_cache(0, base, vectors * VECTOR_BYTES)
    expected = _expected_counts(data)
    counts: List[int] = []

    def program(ctx):
        table_penalty = BYTE_LOOKUP_OPS
        for vector_index in range(vectors):
            count = 0
            for word_index in range(VECTOR_BYTES // WORD_BYTES):
                word = yield from ctx.load(base + vector_index * VECTOR_BYTES + word_index * WORD_BYTES)
                # Byte lookup: 8 bytes per word, a few ops per byte.
                yield from ctx.compute(8 * table_penalty)
                count += bin(word).count("1")
            counts.append(count)
        return len(counts)

    _, elapsed = system.run_single(program)
    return finalize_result(
        "popcount", SystemKind.CPU_ONLY, system, elapsed,
        correct=counts == expected, checksum=sum(counts),
    )


def run_accelerated(kind: SystemKind, params: WorkloadParams,
                    vectors: int = DEFAULT_VECTORS) -> BenchmarkResult:
    system, synthesis = build_accelerated_system(
        kind, params, PopcountAccelerator(), register_layout()
    )
    adapter = system.adapter
    data = _make_vectors(vectors, params.seed)
    base = system.memory.allocate(vectors * VECTOR_BYTES, align=64)
    _store_vectors(system, base, data)
    expected = _expected_counts(data)
    counts: List[int] = []

    def program(ctx):
        yield from ctx.mmio_write(adapter.register_addr(REG_BASE_ADDR), base)
        yield from ctx.mmio_write(adapter.register_addr(REG_STRIDE), VECTOR_BYTES)
        for vector_index in range(vectors):
            yield from ctx.mmio_write(adapter.register_addr(REG_COMMAND), vector_index)
            count = yield from ctx.mmio_read(adapter.register_addr(REG_RESULT))
            counts.append(count)
        yield from ctx.mmio_write(adapter.register_addr(REG_COMMAND), STOP_COMMAND)
        return len(counts)

    _, elapsed = system.run_single(program)
    return finalize_result(
        "popcount", kind, system, elapsed,
        correct=counts == expected, checksum=sum(counts),
        synthesis=synthesis,
    )


def run(kind: SystemKind, params: WorkloadParams,
        vectors: int = DEFAULT_VECTORS) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, vectors)
    return run_accelerated(kind, params, vectors)
