"""Network-on-chip substrate.

Dolly (Sec. IV of the paper) is built on the OpenPiton P-Mesh NoC: a 2D mesh
with XY routing, three physical planes (request / forward-response / data in
the original), and point-to-point ordered delivery — a property the Proxy
Cache's no-acknowledgement protocol explicitly relies on.  This package
provides a transaction-level model of that network: deterministic routes,
batched per-link reservation for contention, per-plane resources, and
in-order delivery between any (source, destination) pair.

The fabric is pluggable: :class:`NocNetwork` routes over any
:class:`~repro.noc.topology.Topology` (``mesh`` — the paper's P-Mesh —
``torus``, ``ring`` or ``crossbar``), selected per system via
``DollyConfig.noc_topology`` or built directly with :func:`make_topology`.
See ``docs/noc.md`` for the topology gallery and the model's invariants.
Routes are fixed: no link of this network fails.  The serving layer's
control links, which chaos can cut, are a chain of its own
(:meth:`repro.serve.scheduler.FabricScheduler.cut_link`), not a NoC.
"""

from repro.noc.message import NocMessage, MessagePlane
from repro.noc.topology import (
    TOPOLOGY_KINDS,
    Crossbar,
    Mesh2D,
    Ring,
    Topology,
    Torus2D,
    make_topology,
)
from repro.noc.network import NocNetwork
from repro.noc.port import NocPort, TileRouter

__all__ = [
    "NocMessage",
    "MessagePlane",
    "Topology",
    "TOPOLOGY_KINDS",
    "Mesh2D",
    "Torus2D",
    "Ring",
    "Crossbar",
    "make_topology",
    "NocNetwork",
    "NocPort",
    "TileRouter",
]
