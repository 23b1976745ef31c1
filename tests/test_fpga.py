"""Unit tests for the eFPGA substrate: fabric, synthesis, bitstream, clocking."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.fpga import (
    AcceleratorDesign,
    AcceleratorEnvironment,
    Bitstream,
    BitstreamError,
    FabricInstance,
    FabricSpec,
    ProgrammableClockGenerator,
    SoftAccelerator,
    SynthesisModel,
)
from repro.sim import ClockDomain, Simulator


# --------------------------------------------------------------------------- #
# Fabric
# --------------------------------------------------------------------------- #
def test_fabric_capacities_scale_with_size():
    spec = FabricSpec()
    small = FabricInstance(spec, columns=8, rows=8)
    large = FabricInstance(spec, columns=16, rows=16)
    assert large.total_clbs > small.total_clbs
    assert large.total_bram_kbits >= small.total_bram_kbits
    assert large.area_mm2 > small.area_mm2
    assert large.config_bits > small.config_bits


def test_fabric_minimal_for_fits_requirements():
    spec = FabricSpec()
    fabric = FabricInstance.minimal_for(spec, clbs=200, bram_kbits=128, dsps=2)
    assert fabric.fits(200, 128, 2)


def test_fabric_rejects_degenerate_geometry():
    with pytest.raises(ValueError):
        FabricInstance(FabricSpec(), columns=0, rows=4)


@given(
    clbs=st.integers(min_value=1, max_value=3000),
    bram=st.integers(min_value=0, max_value=2048),
)
@settings(max_examples=30, deadline=None)
def test_fabric_minimal_for_always_fits(clbs, bram):
    fabric = FabricInstance.minimal_for(FabricSpec(), clbs=clbs, bram_kbits=bram, dsps=0)
    assert fabric.fits(clbs, bram, 0)


# --------------------------------------------------------------------------- #
# Synthesis model
# --------------------------------------------------------------------------- #
def test_synthesis_produces_plausible_frequency_range():
    model = SynthesisModel()
    small = AcceleratorDesign(name="small", luts=300, ffs=400, logic_depth=5)
    large = AcceleratorDesign(name="large", luts=8000, ffs=9000, logic_depth=20,
                              routing_pressure=0.8)
    small_result = model.implement(small)
    large_result = model.implement(large)
    # The paper's accelerators run at 85-282 MHz (Table II).
    assert 50.0 < small_result.fmax_mhz < 600.0
    assert large_result.fmax_mhz < small_result.fmax_mhz
    assert large_result.area_mm2 > small_result.area_mm2


def test_synthesis_utilization_bounded():
    model = SynthesisModel()
    design = AcceleratorDesign(name="x", luts=1000, ffs=500, bram_kbits=96, logic_depth=10)
    result = model.implement(design)
    assert 0.0 < result.clb_utilization <= 1.0
    assert 0.0 <= result.bram_utilization <= 1.0
    assert result.normalized_area(2.66) > 0.0


def test_synthesis_rejects_design_too_big_for_given_fabric():
    model = SynthesisModel()
    fabric = FabricInstance(FabricSpec(), columns=4, rows=4)
    design = AcceleratorDesign(name="big", luts=100000, ffs=100, logic_depth=10)
    with pytest.raises(ValueError):
        model.implement(design, fabric=fabric)


def test_design_validation():
    with pytest.raises(ValueError):
        AcceleratorDesign(name="bad", luts=0, ffs=0)
    with pytest.raises(ValueError):
        AcceleratorDesign(name="bad", luts=10, ffs=0, routing_pressure=2.0)
    with pytest.raises(ValueError):
        AcceleratorDesign(name="bad", luts=10, ffs=0, logic_depth=0)


@given(depth=st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_synthesis_fmax_monotone_in_logic_depth(depth):
    model = SynthesisModel()
    shallow = model.implement(AcceleratorDesign(name="a", luts=500, ffs=500, logic_depth=depth))
    deeper = model.implement(AcceleratorDesign(name="b", luts=500, ffs=500, logic_depth=depth + 1))
    assert deeper.fmax_mhz < shallow.fmax_mhz


# --------------------------------------------------------------------------- #
# Bitstream
# --------------------------------------------------------------------------- #
def test_bitstream_generation_and_verification():
    design = AcceleratorDesign(name="acc", luts=100, ffs=100)
    fabric = FabricInstance(FabricSpec(), columns=6, rows=6)
    bitstream = Bitstream.generate(design, fabric)
    assert bitstream.size_bytes == fabric.config_bits // 8
    assert bitstream.verify()


def test_bitstream_is_deterministic_per_design():
    design = AcceleratorDesign(name="acc", luts=100, ffs=100)
    fabric = FabricInstance(FabricSpec(), columns=6, rows=6)
    a = Bitstream.generate(design, fabric)
    b = Bitstream.generate(design, fabric)
    assert a.data == b.data
    # Equality and repr ignore whether an image has been verified.
    assert a.verify() and a == b and repr(a) == repr(b)
    other = Bitstream.generate(AcceleratorDesign(name="other", luts=100, ffs=100), fabric)
    assert other.data != a.data


def test_bitstream_corruption_detected():
    design = AcceleratorDesign(name="acc", luts=100, ffs=100)
    fabric = FabricInstance(FabricSpec(), columns=6, rows=6)
    bitstream = Bitstream.generate(design, fabric)
    assert bitstream.verify()
    corrupted = bitstream.corrupted(offset=17)
    assert not corrupted.verify()
    assert bitstream.verify()


def test_bitstream_corrupted_rejects_noop_mask():
    """A flip mask that cannot change the payload would silently return an
    *uncorrupted* copy — fault-injection tests relying on it would pass
    vacuously.  It must raise instead."""
    design = AcceleratorDesign(name="acc", luts=100, ffs=100)
    fabric = FabricInstance(FabricSpec(), columns=6, rows=6)
    bitstream = Bitstream.generate(design, fabric)
    for mask in (0, -1, -0xFF):
        with pytest.raises(BitstreamError, match="positive bit pattern"):
            bitstream.corrupted(flip_mask=mask)
    # Multi-byte masks corrupt the bytes their non-zero mask bytes cover.
    assert not bitstream.corrupted(flip_mask=0x101).verify()
    assert not bitstream.corrupted(flip_mask=0x100).verify()


def test_bitstream_corrupted_multi_byte_burst_and_wraparound():
    """A multi-byte burst lands little-endian from the offset, wrapping
    around the end of the payload (the chaos layer draws arbitrary
    offsets)."""
    design = AcceleratorDesign(name="acc", luts=100, ffs=100)
    fabric = FabricInstance(FabricSpec(), columns=6, rows=6)
    bitstream = Bitstream.generate(design, fabric)
    size = bitstream.size_bytes

    burst = bitstream.corrupted(offset=7, flip_mask=0x0201FF)
    assert not burst.verify()
    changed = [i for i in range(size) if burst.data[i] != bitstream.data[i]]
    assert changed == [7, 8, 9]
    assert burst.data[7] == bitstream.data[7] ^ 0xFF
    assert burst.data[8] == bitstream.data[8] ^ 0x01
    assert burst.data[9] == bitstream.data[9] ^ 0x02

    wrapped = bitstream.corrupted(offset=size - 1, flip_mask=0xFFFF)
    assert not wrapped.verify()
    changed = [i for i in range(size) if wrapped.data[i] != bitstream.data[i]]
    assert changed == [0, size - 1]
    # Offsets are taken modulo the payload size, so any drawn offset lands.
    assert (bitstream.corrupted(offset=size * 3 + 5).data
            == bitstream.corrupted(offset=5).data)


def test_bitstream_corrupted_rejects_empty_and_cancelling_masks():
    empty = Bitstream(design_name="none", data=b"", crc=0, config_bits=0)
    with pytest.raises(BitstreamError, match="empty"):
        empty.corrupted()
    # On a 1-byte payload a 2-byte mask folds both bytes onto index 0;
    # 0x0101 XORs it twice with 0x01 and cancels out.
    tiny = Bitstream(design_name="tiny", data=b"\x42",
                     crc=zlib.crc32(b"\x42"), config_bits=8)
    with pytest.raises(BitstreamError, match="cancels out"):
        tiny.corrupted(flip_mask=0x0101)
    assert not tiny.corrupted(flip_mask=0x01).verify()


def test_corruption_mid_transfer_trips_the_post_transfer_check():
    """An upset landing while the configuration memory is being written
    must not activate a corrupt design: ``transfer_bitstream`` re-verifies
    after the transfer window and raises (see repro.chaos)."""
    import dataclasses

    from repro.core.control_hub import transfer_bitstream
    from repro.core.exceptions import DuetError
    from repro.obs import Tracer
    from repro.serve.catalog import materialize

    sim = Simulator()
    sys_domain = ClockDomain(sim, 1000.0)
    tracer = Tracer()
    # A private copy: the upset below mutates it in place.
    bitstream = dataclasses.replace(materialize("popcount").bitstream)
    errors, upsets = [], []

    def programmer():
        try:
            yield from transfer_bitstream(sim, sys_domain, bitstream,
                                          "fabric0.ctrl", tracer)
        except DuetError as exc:
            errors.append((str(exc), sim.now))

    def upset():
        # Fire inside the transfer window: the pre-transfer verify already
        # passed, so only the post-transfer re-check can catch this.
        yield sim.timeout(1.0)
        upsets.append(sim.now)
        bitstream.data = bitstream.corrupted(offset=3).data

    sim.process(programmer())
    sim.process(upset())
    sim.run()
    assert len(errors) == 1
    message, tripped_ns = errors[0]
    assert "corrupted during the configuration transfer" in message
    # The check ran at the end of the window, after the upset.
    assert upsets == [1.0] and tripped_ns > 1.0
    # A tripped transfer records no ``xfer`` span.
    assert [span for span in tracer.spans if span.name == "xfer"] == []


class _CountingZlib:
    """Stands in for ``zlib`` inside ``repro.fpga.bitstream``; counts CRCs."""

    def __init__(self):
        self.crc_calls = 0

    def crc32(self, data, *args):
        self.crc_calls += 1
        return zlib.crc32(data, *args)


@pytest.fixture
def crc_counter(monkeypatch):
    import repro.fpga.bitstream as bitstream_module

    counter = _CountingZlib()
    monkeypatch.setattr(bitstream_module, "zlib", counter)
    return counter


def _image(regions=None):
    design = AcceleratorDesign(name="acc", luts=100, ffs=100)
    fabric = FabricInstance(FabricSpec(), columns=8, rows=6)
    return Bitstream.generate(design, fabric, regions=regions)


@pytest.mark.parametrize("regions, crc_passes", [(None, 1), (4, 4)])
def test_verify_checks_an_unchanged_image_once(crc_counter, regions, crc_passes):
    """One CRC pass for a monolithic image, one per region for a regioned one."""
    bitstream = _image(regions=regions)
    crc_counter.crc_calls = 0
    assert all(bitstream.verify() for _ in range(5))
    assert crc_counter.crc_calls == crc_passes


def test_verify_rechecks_after_any_reassignment_and_never_remembers_a_failure(
        crc_counter):
    bitstream = _image()
    assert bitstream.verify()
    crc_counter.crc_calls = 0
    # An equal payload in a new object is still a new payload: checked again.
    bitstream.data = bytes(bytearray(bitstream.data))
    assert bitstream.verify() and bitstream.verify()
    assert crc_counter.crc_calls == 1
    bitstream.data = bitstream.corrupted(offset=3).data
    assert not bitstream.verify()
    assert not bitstream.verify()
    assert crc_counter.crc_calls == 3
    # The memo is keyed on the checksum as well as the payload.
    pristine = _image()
    assert pristine.verify()
    pristine.crc ^= 1
    assert not pristine.verify()


# --------------------------------------------------------------------------- #
# Clock generator
# --------------------------------------------------------------------------- #
def test_clock_generator_divider_and_pll_modes():
    clkgen = ProgrammableClockGenerator(Simulator(), initial_mhz=100.0)
    assert clkgen.set_frequency(1000.0 / 4) == pytest.approx(250.0)  # sys clock / 4
    assert clkgen.frequency_mhz == pytest.approx(250.0)
    assert clkgen.set_frequency(333.0) == pytest.approx(333.0)
    assert clkgen.frequency_mhz == pytest.approx(333.0)


def test_clock_generator_respects_fmax():
    clkgen = ProgrammableClockGenerator(Simulator(), initial_mhz=400.0)
    clkgen.set_max_frequency(200.0)
    assert clkgen.frequency_mhz == pytest.approx(200.0)
    assert clkgen.set_frequency(500.0) == pytest.approx(200.0)
    assert clkgen.clamp(1000.0 / 2) == pytest.approx(200.0)


def test_clock_generator_rejects_bad_inputs():
    clkgen = ProgrammableClockGenerator(Simulator())
    with pytest.raises(ValueError):
        clkgen.set_frequency(0.0)
    with pytest.raises(ValueError):
        clkgen.set_frequency(-1000.0)


# --------------------------------------------------------------------------- #
# SoftAccelerator lifecycle
# --------------------------------------------------------------------------- #
class _CounterAccelerator(SoftAccelerator):
    DESIGN = AcceleratorDesign(name="counter", luts=50, ffs=60, mem_ports=0)

    def behavior(self):
        total = 0
        for _ in range(10):
            yield self.cycles(1)
            total += 1
        return total


def test_accelerator_requires_attach_before_start():
    accelerator = _CounterAccelerator()
    with pytest.raises(RuntimeError):
        accelerator.start()


def test_accelerator_runs_in_fpga_domain():
    sim = Simulator()
    domain = ClockDomain(sim, 100.0, "fpga")
    accelerator = _CounterAccelerator()
    accelerator.attach(AcceleratorEnvironment(sim=sim, domain=domain))
    process = accelerator.start()
    sim.run()
    assert process.done.value == 10
    assert sim.now >= 10 * domain.period_ns - 1e-6


def test_accelerator_mem_port_requirement_enforced():
    class NeedsPorts(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="needs", luts=10, ffs=10, mem_ports=2)

        def behavior(self):
            yield self.cycles(1)

    sim = Simulator()
    domain = ClockDomain(sim, 100.0, "fpga")
    accelerator = NeedsPorts()
    with pytest.raises(ValueError):
        accelerator.attach(AcceleratorEnvironment(sim=sim, domain=domain, mem_ports=[]))
