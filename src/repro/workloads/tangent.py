"""Tangent benchmark (Dolly-P1M0, fine-grained acceleration).

The processor computes the tangent of a batch of angles.  The baseline uses
a libm-style argument-reduction + polynomial kernel in software; the
accelerated versions stream arguments to the tangent accelerator through an
FPGA-bound FIFO and read results back through a CPU-bound FIFO.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.accel.tangent import (
    REG_ARGUMENT,
    REG_RESULT,
    STOP_COMMAND,
    TangentAccelerator,
    from_fixed,
    register_layout,
    to_fixed,
)
from repro.platform.config import SystemKind
from repro.workloads.common import BenchmarkResult, WorkloadParams, build_benchmark_system, finalize_result

#: Number of tangent evaluations per run.
DEFAULT_CALLS = 48
#: Instruction cost of one libm-style software tangent on the in-order core
#: (argument reduction, a 13-term polynomial and a division), mostly FP ops.
SOFTWARE_TANGENT_FP_OPS = 60
#: Maximum relative error accepted against math.tan (the paper quotes 0.3%).
ERROR_BOUND = 0.01


def _angles(count: int, seed: int) -> List[float]:
    rng = random.Random(seed)
    return [rng.uniform(-1.4, 1.4) for _ in range(count)]


def _within_error(approximations: List[float], angles: List[float]) -> bool:
    for approx, angle in zip(approximations, angles):
        exact = math.tan(angle)
        if abs(exact) < 1e-3:
            continue
        if abs(approx - exact) / abs(exact) > ERROR_BOUND:
            return False
    return True


def run_cpu(params: Optional[WorkloadParams] = None, calls: int = DEFAULT_CALLS) -> BenchmarkResult:
    params = params or WorkloadParams(num_processors=1, num_memory_hubs=0)
    system = build_benchmark_system(SystemKind.CPU_ONLY, params)
    angles = _angles(calls, params.seed)
    results: List[float] = []

    def program(ctx):
        for angle in angles:
            # Argument reduction + polynomial evaluation + division in libm.
            yield from ctx.compute(SOFTWARE_TANGENT_FP_OPS, fp=True)
            yield from ctx.compute(20)
            results.append(math.tan(angle))
        return len(results)

    _, elapsed = system.run_single(program)
    return finalize_result(
        "tangent", SystemKind.CPU_ONLY, system, elapsed,
        correct=_within_error(results, angles), checksum=round(sum(results), 3),
    )


def run_accelerated(kind: SystemKind, params: Optional[WorkloadParams] = None,
                    calls: int = DEFAULT_CALLS) -> BenchmarkResult:
    params = params or WorkloadParams(num_processors=1, num_memory_hubs=0)
    params.num_memory_hubs = max(params.num_memory_hubs, 0)
    system = build_benchmark_system(kind, params)
    accelerator = TangentAccelerator()
    synthesis = system.install_accelerator(
        accelerator, registers=register_layout(), fpga_mhz=params.fpga_mhz
    )
    system.start_accelerator()
    adapter = system.adapter
    angles = _angles(calls, params.seed)
    results: List[float] = []

    def program(ctx):
        for angle in angles:
            yield from ctx.mmio_write(adapter.register_addr(REG_ARGUMENT), to_fixed(angle))
            raw = yield from ctx.mmio_read(adapter.register_addr(REG_RESULT))
            results.append(from_fixed(raw))
            # The surrounding application does a little work per call.
            yield from ctx.compute(10)
        yield from ctx.mmio_write(adapter.register_addr(REG_ARGUMENT), STOP_COMMAND)
        return len(results)

    _, elapsed = system.run_single(program)
    return finalize_result(
        "tangent", kind, system, elapsed,
        correct=_within_error(results, angles), checksum=round(sum(results), 3),
        efpga_area_mm2=synthesis.area_mm2,
        extra={"fmax_mhz": synthesis.fmax_mhz},
    )


def run(kind: SystemKind, params: Optional[WorkloadParams] = None,
        calls: int = DEFAULT_CALLS) -> BenchmarkResult:
    if kind is SystemKind.CPU_ONLY:
        return run_cpu(params, calls)
    return run_accelerated(kind, params, calls)
