"""The catalog of accelerators a serving fabric can host.

Serving multiplexes one physical eFPGA fabric across *bitstreams*: every
tenant names an accelerator from :mod:`repro.accel`, and switching between
two accelerators means reprogramming the fabric through the Control Hub's
programming engine — the cost the reconfiguration-affinity policy exists to
amortize.  Each catalog entry pre-computes what installation would compute:
the synthesis result (post-route Fmax, fabric instance, area) and the
deterministic :class:`~repro.fpga.bitstream.Bitstream`, whose
``config_bits`` drive the programming-transfer time of
:func:`repro.core.control_hub.transfer_bitstream`.

The request-service model is intentionally simple and deterministic: a
request of ``size`` work items occupies the fabric for
``base_cycles + size * cycles_per_item`` eFPGA cycles at the accelerator's
Fmax.  The constants are per-accelerator so SJF has real variance to
exploit and so the clock retune (each accelerator runs at its own Fmax)
actually shows up in latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.accel import (
    DijkstraRelaxAccelerator,
    PopcountAccelerator,
    SortingNetworkAccelerator,
    TangentAccelerator,
)
from repro.fpga.bitstream import Bitstream
from repro.fpga.synthesis import AcceleratorDesign, SynthesisModel, SynthesisResult


@dataclass(frozen=True)
class ServedAcceleratorSpec:
    """One catalog entry: a design plus its request-service cost model."""

    name: str
    design: AcceleratorDesign
    #: Fixed per-request pipeline ramp (eFPGA cycles).
    base_cycles: int
    #: Marginal cost of one work item (eFPGA cycles).
    cycles_per_item: int

    def service_cycles(self, size: int) -> int:
        """eFPGA cycles one request of ``size`` items occupies the fabric."""
        return self.base_cycles + max(0, size) * self.cycles_per_item


@dataclass(frozen=True)
class ServedAccelerator:
    """A catalog entry with its synthesis result and bitstream materialized."""

    spec: ServedAcceleratorSpec
    synthesis: SynthesisResult
    bitstream: Bitstream

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def fmax_mhz(self) -> float:
        return self.synthesis.fmax_mhz

    @property
    def tiles_needed(self) -> int:
        """Fabric tiles the design occupies (the region-packing footprint)."""
        return self.synthesis.tiles_needed

    def service_cycles(self, size: int) -> int:
        return self.spec.service_cycles(size)


#: The serving catalog.  Four designs with distinct bitstreams, Fmax values
#: and service slopes — enough variety that policy choices matter.
SERVE_ACCELERATORS: Dict[str, ServedAcceleratorSpec] = {
    spec.name: spec
    for spec in (
        ServedAcceleratorSpec("popcount", PopcountAccelerator.DESIGN,
                              base_cycles=24, cycles_per_item=6),
        ServedAcceleratorSpec("sort64", SortingNetworkAccelerator(64).design,
                              base_cycles=40, cycles_per_item=10),
        ServedAcceleratorSpec("tangent", TangentAccelerator.DESIGN,
                              base_cycles=16, cycles_per_item=4),
        ServedAcceleratorSpec("dijkstra", DijkstraRelaxAccelerator.DESIGN,
                              base_cycles=48, cycles_per_item=12),
    )
}

ACCELERATOR_NAMES: Tuple[str, ...] = tuple(SERVE_ACCELERATORS)


def resolve_accelerator(name: str) -> ServedAcceleratorSpec:
    try:
        return SERVE_ACCELERATORS[name]
    except KeyError:
        known = ", ".join(sorted(SERVE_ACCELERATORS))
        raise KeyError(
            f"unknown served accelerator {name!r}; catalog: {known}"
        ) from None


def materialize(name: str, model: SynthesisModel = None) -> ServedAccelerator:
    """Synthesize ``name`` and generate its bitstream (done once per run)."""
    spec = resolve_accelerator(name)
    synthesis = (model or SynthesisModel()).implement(spec.design)
    bitstream = Bitstream.generate(spec.design, synthesis.fabric)
    return ServedAccelerator(spec=spec, synthesis=synthesis, bitstream=bitstream)
