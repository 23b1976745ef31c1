"""The microbenchmark suite: kernel, channel, NoC and energy layers.

``python -m repro perf`` runs this suite and prints its report
(``--out FILE`` also writes it).  The suite times those layers on their
own; end-to-end serving and paper-figure time is ``bench/run.py``'s.
There is no committed baseline: the CI ``bench-gate`` job runs both on
the parent commit and on the change, on one host, and fails on a gated
regression (``tools/perf_compare.py`` for this suite).  See
``docs/performance.md`` for the workflow and schema.
"""

from repro.perf.harness import (
    DEFAULT_GATES,
    SCHEMA,
    BenchSpec,
    load_report,
    run_suite,
    write_report,
)
from repro.perf import micro

#: The standard suite, in execution order.  ``kernel_events_per_sec`` is the
#: headline (and CI-gated) number.
SUITE = [
    # The microbenchmarks keep identical problem sizes in quick mode (only
    # the repeat count drops), so quick and full reports of one bench
    # share their params.
    BenchSpec(
        name="kernel_events_per_sec",
        fn=micro.kernel_throughput,
        unit="events/s",
        params={"iterations": 30_000},
        repeats=5,
        quick_repeats=3,
    ),
    BenchSpec(
        name="kernel_zero_delay_events_per_sec",
        fn=micro.kernel_zero_delay_throughput,
        unit="events/s",
        params={"iterations": 50_000},
        repeats=5,
        quick_repeats=3,
    ),
    BenchSpec(
        name="kernel_timed_events_per_sec",
        fn=micro.kernel_timed_throughput,
        unit="events/s",
        params={"iterations": 30_000, "processes": 4},
        repeats=5,
        quick_repeats=3,
    ),
    BenchSpec(
        name="channel_handoff_items_per_sec",
        fn=micro.channel_handoff,
        unit="items/s",
        params={"items": 20_000},
    ),
    # The gated NoC number: serialized messages across the 8x8 mesh
    # diagonal (14 hops), the configuration the batched link reservation
    # was sized against.  The per-topology variants below track the same
    # workload on the other fabrics (informational).
    BenchSpec(
        name="noc_messages_per_sec",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "mesh"},
    ),
    # The gated hooks-on twin of noc_messages_per_sec: identical workload
    # with a live PowerProbe attached, so the energy hooks' hot-path cost
    # is measured (and gated) directly.
    BenchSpec(
        name="noc_messages_per_sec_hooks_on",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "mesh",
                "power_hooks": True},
    ),
    BenchSpec(
        name="energy_samples_per_sec",
        fn=micro.energy_sample_rate,
        unit="samples/s",
        params={"samples": 20_000},
    ),
    # Spin-wait polls, eight cores on one barrier (informational): the
    # per-poll cost of CpuContext.spin_until, Fig. 12's CPU-only hot path.
    BenchSpec(
        name="spin_polls_per_sec",
        fn=micro.spin_poll_rate,
        unit="polls/s",
        params={"rounds": 10, "cores": 8, "late_cycles": 4_000},
    ),
    BenchSpec(
        name="noc_messages_per_sec_torus",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "torus"},
    ),
    BenchSpec(
        name="noc_messages_per_sec_ring",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "ring"},
    ),
    BenchSpec(
        name="noc_messages_per_sec_crossbar",
        fn=micro.noc_message_throughput,
        unit="messages/s",
        params={"messages": 2_000, "width": 8, "height": 8, "topology": "crossbar"},
    ),
]

__all__ = [
    "SUITE",
    "BenchSpec",
    "DEFAULT_GATES",
    "SCHEMA",
    "load_report",
    "run_suite",
    "write_report",
]
