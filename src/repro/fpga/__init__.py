"""Embedded FPGA substrate (the PRGA / VTR / Catapult-HLS substitute).

Dolly's eFPGA is generated with PRGA: an island-style fabric of configurable
logic blocks (LUT6 + flip-flops), Block RAMs and hard multipliers, mapped by
Yosys/VTR onto the ``k6_frac_N10_frac_chain_mem32K_40nm`` architecture.  This
package provides the pieces of that flow the evaluation actually consumes:

* a fabric resource model (:class:`FabricSpec`, :class:`FabricInstance`),
* an analytic synthesis model (:class:`SynthesisModel`) that turns an
  accelerator's resource descriptor into max frequency, tile counts and
  silicon area — the quantities Table II reports,
* bitstream generation with integrity checking (:class:`Bitstream`),
* the programmable clock generator of the Control Hub, and
* the :class:`SoftAccelerator` base class all behavioural accelerators in
  :mod:`repro.accel` derive from.
"""

from repro.fpga.fabric import FabricInstance, FabricSpec
from repro.fpga.synthesis import AcceleratorDesign, SynthesisModel, SynthesisResult
from repro.fpga.bitstream import Bitstream, BitstreamError
from repro.fpga.clocking import ProgrammableClockGenerator
from repro.fpga.accelerator import AcceleratorEnvironment, FpgaMemoryPort, SoftAccelerator

__all__ = [
    "FabricSpec",
    "FabricInstance",
    "AcceleratorDesign",
    "SynthesisModel",
    "SynthesisResult",
    "Bitstream",
    "BitstreamError",
    "ProgrammableClockGenerator",
    "SoftAccelerator",
    "AcceleratorEnvironment",
    "FpgaMemoryPort",
]
