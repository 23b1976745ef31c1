"""repro — a Python reproduction of *Duet: Creating Harmony between
Processors and Embedded FPGAs* (HPCA 2023).

The package is organised as a set of substrates (``sim``, ``noc``, ``mem``,
``cpu``, ``fpga``) on top of which the paper's contribution (``core`` — the
Duet Adapter with its Proxy Cache, Memory Hubs, Control Hub and Shadow
Registers) is built.  ``platform`` composes full systems (Dolly instances,
an FPSoC-like baseline and a processor-only baseline), ``accel`` and
``workloads`` provide the seven application benchmarks plus the synthetic
communication microbenchmarks, and ``api`` registers every table and figure
of the paper's evaluation as an experiment that ``python -m repro run``
regenerates and ``python -m repro report`` compares with the paper's numbers.
"""

from repro.sim import AsyncFifo, ClockDomain, Delay, Event, Simulator

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "ClockDomain",
    "Event",
    "Delay",
    "AsyncFifo",
    "__version__",
]
