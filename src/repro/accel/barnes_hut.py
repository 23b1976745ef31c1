"""Barnes-Hut force accelerators (Dolly-P4M1, fine-grained acceleration).

Sec. III-A2 and V-D: the two compute-intensive kernels of the Barnes-Hut
N-body algorithm — ``ApproxForce`` (monopole approximation against an
internal tree node) and ``CalcForce`` (exact pairwise force against a leaf
particle) — become pipelined soft accelerators, while the processors keep
the tree traversal, the dynamic control flow and the THRESHOLD test.  Both
kernels live on one eFPGA and are time-multiplexed by several CPU threads
(Fig. 7), so the register interface carries a requester tag with every
invocation and every result.

Fixed-point convention: positions and masses cross the interface scaled by
:data:`SCALE`; forces return scaled the same way.  Node and particle records
live in coherent memory, four 8-byte words each: (x, y, mass, unused).
"""

from __future__ import annotations

from typing import List

from repro.core.registers import RegisterKind, RegisterSpec
from repro.fpga.accelerator import SoftAccelerator
from repro.fpga.synthesis import AcceleratorDesign

SCALE = 1 << 16
STOP_COMMAND = (1 << 62)

#: Register map.  Requests encode (requester << 56) | (target_index << 28) | particle_index.
REG_APPROX_REQ = 0    # FPGA-bound FIFO: ApproxForce invocations
REG_CALC_REQ = 1      # FPGA-bound FIFO: CalcForce invocations
REG_RESULT_BASE = 2   # CPU-bound FIFOs: one per CPU thread (2 + thread id, up to 8)

REG_NODES_BASE = 10    # plain: base address of the tree-node record array
REG_PARTICLES_BASE = 11  # plain: base address of the particle record array

RECORD_WORDS = 4
RECORD_BYTES = RECORD_WORDS * 8


def register_layout(num_threads: int) -> List[RegisterSpec]:
    specs = [
        RegisterSpec(REG_APPROX_REQ, RegisterKind.FPGA_BOUND_FIFO, "approx_req", depth=32),
        RegisterSpec(REG_CALC_REQ, RegisterKind.FPGA_BOUND_FIFO, "calc_req", depth=32),
        RegisterSpec(REG_NODES_BASE, RegisterKind.PLAIN, "nodes_base"),
        RegisterSpec(REG_PARTICLES_BASE, RegisterKind.PLAIN, "particles_base"),
    ]
    for thread in range(num_threads):
        specs.append(
            RegisterSpec(REG_RESULT_BASE + thread, RegisterKind.CPU_BOUND_FIFO,
                         f"result_t{thread}", depth=16)
        )
    return specs


def encode_request(thread: int, target_index: int, particle_index: int) -> int:
    return (thread << 56) | (target_index << 28) | particle_index


def decode_request(word: int):
    return (word >> 56) & 0xFF, (word >> 28) & 0x0FFF_FFFF, word & 0x0FFF_FFFF


def to_fixed(value: float) -> int:
    return int(round(value * SCALE)) & 0xFFFF_FFFF_FFFF_FFFF


def from_fixed(word: int) -> float:
    if word >= 1 << 63:
        word -= 1 << 64
    return word / SCALE


def gravitational_force(xa, ya, ma, xb, yb, mb, softening=0.05):
    """Scalar magnitude of the pairwise force (2-D, softened)."""
    dx = xb - xa
    dy = yb - ya
    dist_sq = dx * dx + dy * dy + softening
    return (ma * mb) / dist_sq


class BarnesHutForceAccelerator(SoftAccelerator):
    """Hosts both the ApproxForce and CalcForce pipelines on one eFPGA."""

    DESIGN = AcceleratorDesign(
        name="barnes-hut",
        luts=9800,
        ffs=11200,
        bram_kbits=64,
        dsps=24,
        logic_depth=17,
        routing_pressure=0.55,
        mem_ports=1,
        description="ApproxForce + CalcForce HLS pipelines, time-multiplexed by 4 cores",
    )

    #: Initiation intervals (eFPGA cycles) of the two force pipelines.  Both
    #: kernels are fully pipelined HLS datapaths, so back-to-back requests are
    #: limited by the initiation interval, not the end-to-end latency.
    APPROX_CYCLES = 2
    CALC_CYCLES = 2

    def __init__(self, name: str = "barnes-hut") -> None:
        super().__init__(name)
        self.approx_invocations = 0
        self.calc_invocations = 0

    def behavior(self):
        # Two independent pipelines, one per request FIFO, sharing the hub.
        # Both kernels evaluate a force against a tree-node record: ApproxForce
        # against an internal node's monopole, CalcForce against a leaf.
        approx = self.env.sim.process(self._pipeline(REG_APPROX_REQ, REG_NODES_BASE,
                                                     self.APPROX_CYCLES, "approx"),
                                      name=f"{self.name}.approx")
        calc = self.env.sim.process(self._pipeline(REG_CALC_REQ, REG_NODES_BASE,
                                                   self.CALC_CYCLES, "calc"),
                                    name=f"{self.name}.calc")
        done_a = yield approx.done
        done_c = yield calc.done
        return done_a + done_c

    def _pipeline(self, request_register: int, base_register: int, latency: int, label: str):
        served = 0
        # Small register caches: the traversal sends many back-to-back
        # requests for the same particle, and base addresses are constants.
        nodes_base = None
        particles_base = None
        last_particle = None
        particle_words = particle_tail = None
        while True:
            request = yield from self.regs.pop_request(request_register)
            if request == STOP_COMMAND:
                return served
            thread, target_index, particle_index = decode_request(request)
            if nodes_base is None:
                nodes_base = yield from self.regs.read(base_register)
                particles_base = yield from self.regs.read(REG_PARTICLES_BASE)
            target_addr = nodes_base + target_index * RECORD_BYTES
            particle_addr = particles_base + particle_index * RECORD_BYTES
            target_words = yield from self.mem.load_line(target_addr)
            target_tail = yield from self.mem.load_line(target_addr + 16)
            if particle_index != last_particle:
                particle_words = yield from self.mem.load_line(particle_addr)
                particle_tail = yield from self.mem.load_line(particle_addr + 16)
                last_particle = particle_index
            yield self.cycles(latency)
            xa, ya = from_fixed(particle_words[0]), from_fixed(particle_words[1])
            ma = from_fixed(particle_tail[0])
            xb, yb = from_fixed(target_words[0]), from_fixed(target_words[1])
            mb = from_fixed(target_tail[0])
            force = gravitational_force(xa, ya, ma, xb, yb, mb)
            yield from self.regs.push_response(REG_RESULT_BASE + thread, to_fixed(force))
            served += 1
            if label == "approx":
                self.approx_invocations += 1
            else:
                self.calc_invocations += 1
            self.stats.counter(f"{label}_invocations").increment()
