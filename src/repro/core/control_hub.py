"""Control Hub: FPGA Manager + Soft Register Interface.

The Control Hub presents the eFPGA as an on-chip device reachable via
memory-mapped I/O (Sec. II-E).  It has two submodules:

* the **FPGA Manager** — programming engine (bitstream load + integrity
  check), programmable clock generator, exception handler and feature
  switches (timeout limit, reset, error-code clear);
* the **Soft Register Interface** — the accelerator's software interface,
  augmented with the fast-clock-domain Shadow Registers of Sec. II-F.

MMIO accesses are serviced in arrival order (Fig. 6c: shadow accesses stay
ordered with respect to normal accesses), but a blocking CPU-bound-FIFO read
parks to the side so it cannot deadlock the hub.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.exceptions import DuetError, ErrorCode, ExceptionHandler
from repro.core.feature_switches import FeatureSwitches
from repro.core.registers import RegisterLayout, RegisterSpec
from repro.core.shadow_registers import BOGUS_VALUE, SoftRegisterInterface
from repro.cpu.mmio import MmioMap, MmioRegion
from repro.fpga.bitstream import Bitstream
from repro.fpga.clocking import ProgrammableClockGenerator
from repro.noc import NocMessage, TileRouter
from repro.sim import Channel, ClockDomain, Simulator, StatSet

#: MMIO offsets of the FPGA Manager's control registers.
REG_STATUS = 0x00        # read: 1 = programmed and active, 0 otherwise
REG_RESET = 0x08         # write: reset the soft accelerator
REG_CLK_MHZ = 0x10       # read/write: eFPGA clock frequency in MHz
REG_TIMEOUT = 0x18       # read/write: exception timeout in system cycles
REG_ERROR = 0x20         # read: latched error code; write: clear
REG_PROGRAM = 0x28       # write: no image can be staged here; latches PROTOCOL
REG_HUB_ACTIVE = 0x30    # write: bit i (de)activates memory hub i

#: Offset at which the soft register window starts inside the MMIO region.
SOFT_REGISTER_BASE = 0x1000
SOFT_REGISTER_STRIDE = 0x8
CONTROL_REGION_SIZE = 0x2000


def program_cycles(config_bits: int, bits_per_cycle: int) -> int:
    """System cycles the programming engine spends transferring an image.

    The single source of truth for configuration-transfer time: used by
    :meth:`ControlHub.program` and by fleet migration stalls
    (:func:`repro.fleet.node.migration_stall_ns`), so region-granular
    accounting cannot drift between serve and fleet.  A partial transfer
    still pays at least one cycle.
    """
    if config_bits < 0:
        raise ValueError(f"config_bits must be non-negative, got {config_bits}")
    if bits_per_cycle < 1:
        raise ValueError(
            f"bits_per_cycle must be positive, got {bits_per_cycle}")
    return max(1, -(-config_bits // bits_per_cycle))


@dataclass
class ControlHubConfig:
    """Static configuration of one Control Hub."""

    #: Downgrade every shadowed register to a normal soft register (the
    #: FPSoC baseline of Sec. V-D).
    downgrade_shadow: bool = False
    #: Configuration-bit transfer rate of the programming engine
    #: (bits per system-clock cycle).
    programming_bits_per_cycle: int = 64
    #: Service time of one MMIO access inside the hub (system cycles).
    mmio_service_cycles: int = 1


class ControlHub:
    """The Duet Adapter's software-facing control plane."""

    TARGET = "ctrl"

    def __init__(
        self,
        sim: Simulator,
        sys_domain: ClockDomain,
        tile_router: TileRouter,
        mmio_map: MmioMap,
        clock_generator: ProgrammableClockGenerator,
        config: Optional[ControlHubConfig] = None,
        exceptions: Optional[ExceptionHandler] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.sys_domain = sys_domain
        self.node = tile_router.node
        self.name = name or f"ctrlhub@{self.node}"
        self.config = config or ControlHubConfig()
        self.clock_generator = clock_generator
        self.switches = FeatureSwitches(f"{self.name}.switches")
        self.exceptions = exceptions or ExceptionHandler(sim, sys_domain, name=f"{self.name}.exc")
        self.registers = SoftRegisterInterface(
            sim,
            sys_domain,
            clock_generator.fpga_domain,
            self.exceptions,
            name=f"{self.name}.softreg",
            downgrade_shadow=self.config.downgrade_shadow,
        )
        self.port = tile_router.port(self.TARGET, self._handle_mmio)
        self.region: MmioRegion = mmio_map.register(
            CONTROL_REGION_SIZE, self.node, self.TARGET, name=self.name
        )
        self.stats = StatSet(f"{self.name}.stats")
        #: Observability hook (:mod:`repro.obs`): when a Tracer is attached
        #: the programming engine records one ``xfer`` span per transfer.
        #: Default off — ``None`` keeps this path allocation-free.
        self.tracer = None
        # Programming state.
        self.programmed_bitstream: Optional[Bitstream] = None
        self.programming_busy = False
        self._hub_activation_hook: Optional[Callable[[int], None]] = None
        # Serialized MMIO service queue (strict I/O ordering, Fig. 6c).
        self._mmio_queue = Channel(sim, name=f"{self.name}.mmio-queue")
        sim.process(self._mmio_server(), name=f"{self.name}.mmio-server")

    # ------------------------------------------------------------------ #
    # Hooks wired by the Duet Adapter
    # ------------------------------------------------------------------ #
    def set_hub_activation_hook(self, hook: Callable[[int], None]) -> None:
        """Called with the written bitmask when software toggles hub activity."""
        self._hub_activation_hook = hook

    # ------------------------------------------------------------------ #
    # Address helpers (used by software drivers)
    # ------------------------------------------------------------------ #
    def control_addr(self, offset: int) -> int:
        return self.region.base + offset

    def register_addr(self, index: int) -> int:
        return self.region.base + SOFT_REGISTER_BASE + index * SOFT_REGISTER_STRIDE

    def _decode(self, addr: int) -> int:
        return addr - self.region.base

    # ------------------------------------------------------------------ #
    # Register layout / programming (called by the Duet Adapter)
    # ------------------------------------------------------------------ #
    def configure_registers(self, layout: RegisterLayout) -> None:
        self.registers.configure(layout)

    def program(self, bitstream: Bitstream):
        """Programming engine: integrity check, then configuration transfer.

        A generator — the caller (the serving layer's reconfiguration
        path) pays the programming time.
        """
        self.programming_busy = True
        try:
            if not bitstream.verify():
                self.exceptions.raise_error(ErrorCode.BITSTREAM_CORRUPT)
                raise DuetError(f"bitstream {bitstream.design_name!r} failed its integrity check")
            transfer_cycles = program_cycles(
                bitstream.config_bits, self.config.programming_bits_per_cycle
            )
            start_ps = self.sim.now_ps if self.tracer is not None else 0
            yield self.sys_domain.wait_cycles(transfer_cycles)
            # Re-verify after the transfer window: an image mutated in
            # place while the configuration memory was being written must
            # not activate a corrupt design.  A chaos SEU never lands here:
            # FabricScheduler.corrupt_image swaps in a new stored image, so
            # the upset stays latent until the next program of that design.
            # An unchanged image answers from Bitstream.verify's memo.
            if not bitstream.verify():
                self.exceptions.raise_error(ErrorCode.BITSTREAM_CORRUPT)
                raise DuetError(
                    f"bitstream {bitstream.design_name!r} corrupted during "
                    "the configuration transfer"
                )
            self.programmed_bitstream = bitstream
            self.stats.counter("programmings").increment()
            if self.tracer is not None:
                self.tracer.complete(
                    "xfer", self.name, start_ps, self.sim.now_ps - start_ps,
                    cat="ctrl", args={"design": bitstream.design_name,
                                      "bits": bitstream.config_bits})
        finally:
            self.programming_busy = False
        return None

    def program_instantly(self, bitstream: Bitstream) -> None:
        """Zero-time variant used by experiment set-up code."""
        if not bitstream.verify():
            self.exceptions.raise_error(ErrorCode.BITSTREAM_CORRUPT)
            raise DuetError(f"bitstream {bitstream.design_name!r} failed its integrity check")
        self.programmed_bitstream = bitstream
        self.stats.counter("programmings").increment()

    # ------------------------------------------------------------------ #
    # MMIO handling
    # ------------------------------------------------------------------ #
    def _handle_mmio(self, message: NocMessage) -> None:
        if message.kind not in ("mmio_read", "mmio_write"):
            raise DuetError(f"{self.name}: unexpected NoC message {message.kind!r}")
        self.stats.counter("mmio_accesses").increment()
        self._mmio_queue.try_put(message)

    def _mmio_server(self):
        while True:
            message = yield from self._mmio_queue.get()
            yield self.sys_domain.wait_cycles(self.config.mmio_service_cycles)
            offset = self._decode(message.addr)
            if offset >= SOFT_REGISTER_BASE:
                index = (offset - SOFT_REGISTER_BASE) // SOFT_REGISTER_STRIDE
                spec = self.registers.spec_of(index)
                blocking = (
                    message.kind == "mmio_read"
                    and spec is not None
                    and spec.kind.value == "cpu_bound_fifo"
                )
                if blocking:
                    # Park blocking reads so they cannot stall the hub.
                    self.sim.process(
                        self._serve_register(message, index),
                        name=f"{self.name}.blocking-read",
                    )
                else:
                    yield from self._serve_register(message, index)
            else:
                yield from self._serve_control(message, offset)

    def _serve_register(self, message: NocMessage, index: int):
        if message.kind == "mmio_write":
            yield from self.registers.cpu_write(index, message.meta.get("value", 0))
            self.port.reply(message, "mmio_resp")
        else:
            value = yield from self.registers.cpu_read(index)
            self.port.reply(message, "mmio_resp", value=value)
        return None

    def _serve_control(self, message: NocMessage, offset: int):
        value = message.meta.get("value", 0)
        if message.kind == "mmio_write":
            yield from self._control_write(offset, value)
            self.port.reply(message, "mmio_resp")
        else:
            result = yield from self._control_read(offset)
            self.port.reply(message, "mmio_resp", value=result)
        return None

    def _control_write(self, offset: int, value: int):
        if offset == REG_RESET:
            pass  # the behavioural accelerators keep no state to reset
        elif offset == REG_CLK_MHZ:
            self.clock_generator.set_frequency(float(value))
        elif offset == REG_TIMEOUT:
            self.exceptions.set_timeout_cycles(int(value))
        elif offset == REG_ERROR:
            self.exceptions.clear()
        elif offset == REG_PROGRAM:
            # Software cannot hand the engine an image over MMIO; images
            # are programmed through program() / program_instantly().
            self.exceptions.raise_error(ErrorCode.PROTOCOL)
        elif offset == REG_HUB_ACTIVE:
            if self._hub_activation_hook is not None:
                self._hub_activation_hook(value)
        else:
            self.stats.counter("unknown_control_writes").increment()
        yield self.sys_domain.wait_cycles(1)
        return None

    def _control_read(self, offset: int):
        yield self.sys_domain.wait_cycles(1)
        if offset == REG_STATUS:
            return 1 if (self.programmed_bitstream is not None and not self.programming_busy) else 0
        if offset == REG_CLK_MHZ:
            return int(self.clock_generator.frequency_mhz)
        if offset == REG_TIMEOUT:
            return self.exceptions.timeout_cycles
        if offset == REG_ERROR:
            return int(self.exceptions.error_code)
        self.stats.counter("unknown_control_reads").increment()
        return BOGUS_VALUE

    # ------------------------------------------------------------------ #
    # FPGA-side view (handed to the accelerator environment)
    # ------------------------------------------------------------------ #
    @property
    def fpga_registers(self):
        return self.registers.fpga_view
