"""Sort benchmark (Dolly-P1M2, fine-grained acceleration).

A larger array is sorted by slicing it into fixed-length chunks: the
accelerator's streaming sorting network sorts each chunk in place (reading
through one Memory Hub and writing through the other), and the processor
merge-sorts the sorted chunks.  The processor-only baseline runs quicksort
over the whole array.  ``slice_size`` selects the sort/32, sort/64 or
sort/128 variant of Table II / Fig. 12.
"""

from __future__ import annotations

import random
from typing import List

from repro.accel.sortnet import (
    ELEMENT_BYTES,
    REG_COMMAND,
    REG_DONE,
    REG_DST_BASE,
    REG_SRC_BASE,
    STOP_COMMAND,
    SortingNetworkAccelerator,
    pack_elements,
    register_layout,
    unpack_words,
)
from repro.platform.config import SystemKind
from repro.workloads.common import (BenchmarkResult, WorkloadParams, build_accelerated_system,
                                    build_benchmark_system, finalize_result)

DEFAULT_TOTAL_ELEMENTS = 256
WORD_BYTES = 8
#: Software costs per comparison / swap in the quicksort baseline.
COMPARE_OPS = 3
SWAP_OPS = 4
#: Software cost per element of the final k-way merge pass.
MERGE_OPS = 6


def _make_array(count: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(0, 1 << 31) for _ in range(count)]


def _store_packed(system, base: int, elements: List[int]) -> None:
    for index, word in enumerate(pack_elements(elements)):
        system.memory.write_word(base + index * WORD_BYTES, word)


def _load_packed(system, base: int, count: int) -> List[int]:
    words = [
        system.memory.read_word(base + index * WORD_BYTES)
        for index in range((count + 1) // 2)
    ]
    return unpack_words(words, count)


def run_cpu(params: WorkloadParams,
            total_elements: int = DEFAULT_TOTAL_ELEMENTS,
            slice_size: int = 32) -> BenchmarkResult:
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    data = _make_array(total_elements, params.seed)
    base = system.memory.allocate(total_elements * ELEMENT_BYTES, align=64)
    _store_packed(system, base, data)
    system.warm_cache(0, base, total_elements * ELEMENT_BYTES)
    expected = sorted(data)
    sorted_result: List[int] = []

    def program(ctx):
        # In-memory quicksort: every comparison touches the array through the
        # cache hierarchy; partition swaps write back.
        array = list(data)

        def quicksort(low, high):
            if low >= high:
                return
            pivot = array[(low + high) // 2]
            left, right = low, high
            while left <= right:
                while True:
                    yield from ctx.load(base + (left * ELEMENT_BYTES // WORD_BYTES) * WORD_BYTES)
                    yield from ctx.compute(COMPARE_OPS)
                    if array[left] >= pivot:
                        break
                    left += 1
                while True:
                    yield from ctx.load(base + (right * ELEMENT_BYTES // WORD_BYTES) * WORD_BYTES)
                    yield from ctx.compute(COMPARE_OPS)
                    if array[right] <= pivot:
                        break
                    right -= 1
                if left <= right:
                    array[left], array[right] = array[right], array[left]
                    yield from ctx.store(base + (left * ELEMENT_BYTES // WORD_BYTES) * WORD_BYTES, 0)
                    yield from ctx.compute(SWAP_OPS)
                    left += 1
                    right -= 1
            yield from quicksort(low, right)
            yield from quicksort(left, high)

        yield from quicksort(0, total_elements - 1)
        sorted_result.extend(array)
        return len(array)

    _, elapsed = system.run_single(program)
    return finalize_result(
        f"sort/{slice_size}", SystemKind.CPU_ONLY, system, elapsed,
        correct=sorted_result == expected, checksum=sum(sorted_result[:8]),
    )


def run_accelerated(kind: SystemKind, params: WorkloadParams,
                    total_elements: int = DEFAULT_TOTAL_ELEMENTS,
                    slice_size: int = 32) -> BenchmarkResult:
    system, synthesis = build_accelerated_system(
        kind, params, SortingNetworkAccelerator(slice_size), register_layout()
    )
    adapter = system.adapter
    data = _make_array(total_elements, params.seed)
    src_base = system.memory.allocate(total_elements * ELEMENT_BYTES, align=64)
    dst_base = system.memory.allocate(total_elements * ELEMENT_BYTES, align=64)
    _store_packed(system, src_base, data)
    expected = sorted(data)
    num_slices = total_elements // slice_size
    merged: List[int] = []

    def program(ctx):
        yield from ctx.mmio_write(adapter.register_addr(REG_SRC_BASE), src_base)
        yield from ctx.mmio_write(adapter.register_addr(REG_DST_BASE), dst_base)
        # Software-pipelined: keep a couple of slices in flight.
        issued = 0
        completed = 0
        in_flight = 0
        while completed < num_slices:
            while issued < num_slices and in_flight < 2:
                yield from ctx.mmio_write(adapter.register_addr(REG_COMMAND), issued)
                issued += 1
                in_flight += 1
            yield from ctx.mmio_read(adapter.register_addr(REG_DONE))
            completed += 1
            in_flight -= 1
        yield from ctx.mmio_write(adapter.register_addr(REG_COMMAND), STOP_COMMAND)
        # Merge the sorted slices on the processor.
        slices = [
            _load_packed(system, dst_base + i * slice_size * ELEMENT_BYTES, slice_size)
            for i in range(num_slices)
        ]
        cursors = [0] * num_slices
        for _ in range(total_elements):
            yield from ctx.compute(MERGE_OPS)
            yield from ctx.load(dst_base)
            best = None
            for index, cursor in enumerate(cursors):
                if cursor < slice_size:
                    value = slices[index][cursor]
                    if best is None or value < slices[best][cursors[best]]:
                        best = index
            merged.append(slices[best][cursors[best]])
            cursors[best] += 1
        return len(merged)

    _, elapsed = system.run_single(program, max_events=150_000_000)
    return finalize_result(
        f"sort/{slice_size}", kind, system, elapsed,
        correct=merged == expected, checksum=sum(merged[:8]),
        synthesis=synthesis, extra={"slices": num_slices},
    )


def run(kind: SystemKind, params: WorkloadParams,
        total_elements: int = DEFAULT_TOTAL_ELEMENTS, slice_size: int = 32) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, total_elements, slice_size)
    return run_accelerated(kind, params, total_elements, slice_size)
