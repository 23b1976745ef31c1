"""Deterministic fault schedules: seeded, picklable, replayable.

A :class:`FaultSchedule` turns a seed plus a tuple of :class:`FaultSpec`
descriptions into concrete :class:`FaultEvent` draws for each
``(node, epoch)`` — *before* any simulation runs.  The draws are a pure
function of ``(schedule seed, spec index, epoch, node_id)``:

* stream seeds mix the schedule seed, a CRC-32 of the spec's identity and
  the epoch/node ids through :func:`~repro.sim.stats.mix_seed`, the rule
  every derived seed uses — no ``hash()`` anywhere, so schedules are
  bit-identical across runs, machines and ``PYTHONHASHSEED`` values
  (pinned by a subprocess test in ``tests/test_chaos.py``);
* events are plain frozen dataclasses of ints/floats/strings, so the
  fleet's control plane computes them before a node simulates and hands
  them to :func:`~repro.fleet.node.simulate_node` as data: the faults a
  node sees never depend on what its simulation does.

Three fault kinds ship (:data:`FAULT_KINDS`):

* ``seu`` — a single-event upset flips bits in one accelerator's stored
  bitstream image (via :meth:`repro.fpga.bitstream.Bitstream.corrupted`);
  the corruption is latent until the next ``transfer_bitstream`` of that
  image trips the integrity check;
* ``fabric`` — an eFPGA fabric dies outright (its in-flight request is
  lost, its programmed design is gone); ``scope="node"`` kills every
  fabric on the node at once;
* ``link`` — one link of the chain of control links from the control tile
  (fabric 0) is cut: every fabric past it is unreachable until the link
  repairs after ``repair_ns``.

See ``docs/chaos.md`` for the fault model and the determinism contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sim.stats import mix_seed

#: The supported fault kinds.
FAULT_KINDS: Tuple[str, ...] = ("seu", "fabric", "link")

#: ``FaultSpec.scope`` values: hit one drawn fabric, or the whole node.
FAULT_SCOPES: Tuple[str, ...] = ("fabric", "node")


@dataclass(frozen=True)
class FaultSpec:
    """One fault *source*: a kind, a rate, and recovery economics.

    ``rate_per_epoch`` is the expected number of events this spec injects
    per (node, epoch); ``at_epoch``/``at_node`` pin exactly one event to a
    specific epoch (and optionally node) instead — the deterministic
    "kill node 0 in epoch 2" anchor the acceptance pins are built on.
    """

    kind: str
    #: Expected events per (node, epoch); Poisson-drawn per stream.
    rate_per_epoch: float = 0.0
    #: Fire exactly once in this epoch (rate ignored) when set.
    at_epoch: Optional[int] = None
    #: Restrict a pinned event to this node id (None = every node).
    at_node: Optional[int] = None
    #: ``fabric`` hits one drawn fabric; ``node`` hits all of them.
    scope: str = "fabric"
    #: Transient faults (links) heal this long after injection (ns);
    #: 0 means permanent for the rest of the run.
    repair_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {known}")
        if self.scope not in FAULT_SCOPES:
            known = ", ".join(FAULT_SCOPES)
            raise ValueError(
                f"unknown fault scope {self.scope!r}; known scopes: {known}")
        if self.rate_per_epoch < 0:
            raise ValueError(
                f"rate_per_epoch cannot be negative, got {self.rate_per_epoch}")
        if self.at_epoch is None and self.rate_per_epoch == 0:
            raise ValueError(
                f"a {self.kind!r} FaultSpec needs rate_per_epoch > 0 or a "
                "pinned at_epoch — otherwise it never fires")
        if self.repair_ns < 0:
            raise ValueError(
                f"repair_ns cannot be negative, got {self.repair_ns}")


def noise_specs(fault_rate: float) -> Dict[str, FaultSpec]:
    """The background-noise fault sources, keyed by kind: SEUs at
    ``fault_rate`` per (node, epoch), each scrubbed when a program trips
    it (:data:`~repro.serve.scheduler.SEU_DETECT_NS` later), and transient
    link faults at half that rate that self-repair after 60 us."""
    return {
        "seu": FaultSpec(kind="seu", rate_per_epoch=fault_rate),
        "link": FaultSpec(kind="link", rate_per_epoch=fault_rate * 0.5,
                          repair_ns=60_000.0),
    }


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault draw, fully resolved to plain data."""

    kind: str
    #: Injection instant, ns from the start of the epoch.
    time_ns: float
    #: Target fabric index on the node (anchor fabric for node-scope/link).
    fabric: int
    #: Index of the originating :class:`FaultSpec`.
    spec_index: int
    scope: str = "fabric"
    repair_ns: float = 0.0
    # -- seu payload ----------------------------------------------------- #
    #: Byte offset the upset lands at (modulo the bitstream size).
    seu_offset: int = 0
    #: XOR mask applied at the offset (may span multiple bytes).
    seu_mask: int = 0xFF


@dataclass(frozen=True)
class FaultSchedule:
    """A seed plus fault sources; resolves to per-(node, epoch) events.

    Frozen and built from frozen specs, so it is picklable, hashable and
    safe to embed in a :class:`~repro.fleet.cluster.FleetConfig`.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate a list literal at the call site; keep the field a tuple.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def stream_seed(self, spec_index: int, epoch: int, node_id: int = 0) -> int:
        """The per-(spec, epoch, node) RNG seed (:func:`mix_seed`).

        The spec's identity enters via CRC-32 of a stable label so adding
        a spec never perturbs the streams of the ones before it.
        """
        spec = self.specs[spec_index]
        label = f"chaos:{spec.kind}:{spec_index}".encode()
        return mix_seed(self.seed, label, node=node_id, epoch=epoch)

    def events(self, epoch: int, node_id: int, fabrics: int,
               epoch_ns: float) -> Tuple[FaultEvent, ...]:
        """Resolve every spec's draws for one (node, epoch).

        Events come back sorted by ``(time_ns, spec_index)`` so injection
        order is deterministic even when two draws collide in time.
        """
        if fabrics < 1:
            raise ValueError(f"need >= 1 fabric, got {fabrics}")
        if epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive, got {epoch_ns}")
        drawn = []
        for index, spec in enumerate(self.specs):
            rng = random.Random(self.stream_seed(index, epoch, node_id))
            if spec.at_epoch is not None:
                if spec.at_epoch != epoch:
                    continue
                if spec.at_node is not None and spec.at_node != node_id:
                    continue
                count = 1
            else:
                count = _poisson(rng, spec.rate_per_epoch)
            for _ in range(count):
                drawn.append(FaultEvent(
                    kind=spec.kind,
                    time_ns=rng.uniform(0.0, epoch_ns),
                    fabric=rng.randrange(fabrics),
                    spec_index=index,
                    scope=spec.scope,
                    repair_ns=spec.repair_ns,
                    seu_offset=rng.randrange(1 << 20),
                    seu_mask=1 << rng.randrange(8),
                ))
        drawn.sort(key=lambda event: (event.time_ns, event.spec_index))
        return tuple(drawn)

    def ground_truth(self, epochs: int, node_ids, fabrics: int,
                     epoch_ns: float):
        """The fault oracle: every draw over a whole run, as plain dicts
        on the global fleet timeline (integer-ps ``t_ps``).

        This is what makes detection *scorable*: the alerting layer sees
        only telemetry, while the experiment holds this list and can
        measure recall, false alarms and detection latency exactly
        (:func:`repro.obs.alerts.score_alerts`).  Resolution re-runs the
        same seeded draws as :meth:`events`, so the oracle is the
        injected schedule, not a parallel approximation.
        """
        truth = []
        for epoch in range(epochs):
            for node_id in sorted(node_ids):
                for event in self.events(epoch, node_id, fabrics, epoch_ns):
                    truth.append({
                        "kind": event.kind,
                        "scope": event.scope,
                        "node_id": node_id,
                        "epoch": epoch,
                        "fabric": event.fabric,
                        "t_ps": int(round(
                            (epoch * epoch_ns + event.time_ns) * 1000.0)),
                    })
        truth.sort(key=lambda t: (t["t_ps"], t["node_id"], t["kind"]))
        return truth


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's inverse-transform Poisson draw (exact, deterministic).

    Fine for the small per-epoch rates fault schedules use; the loop runs
    ``count + 1`` times on average.
    """
    if mean <= 0:
        return 0
    limit = 2.718281828459045 ** -mean
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count
