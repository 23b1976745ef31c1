"""Bitstream generation and integrity checking.

The Control Hub's programming engine "loads the bitstream into the
configuration memory, and performs integrity checks to detect data
corruption" (Sec. II-E).  The bitstream here is a deterministic pseudo-random
byte string derived from the design (so tests can corrupt and re-check it),
sized from the fabric's configuration bits, with a CRC-32 trailer.

A bitstream may additionally carry a *region grid* (PRGA-style partial
reconfiguration: the fabric as an array of regions, each with its own
configuration chain).  A regioned image records per-region configuration-bit
counts and per-region CRC-32 checksums of the pristine payload slices;
:meth:`Bitstream.for_regions` cuts a partial image covering a subset of
regions, whose ``config_bits`` is exactly what a region-granular reprogram
pays through :func:`repro.core.control_hub.transfer_bitstream`.  Monolithic
bitstreams (``region_bits is None``) behave exactly as before.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.fpga.fabric import FabricInstance
from repro.fpga.synthesis import AcceleratorDesign


class BitstreamError(RuntimeError):
    """Raised when a bitstream fails its integrity check."""


@dataclass
class Bitstream:
    """A configuration image for one fabric, carrying its own checksum."""

    design_name: str
    data: bytes
    crc: int
    config_bits: int
    meta: dict = field(default_factory=dict)
    #: Per-region configuration-bit counts (``None`` = monolithic image).
    region_bits: Optional[Tuple[int, ...]] = None
    #: CRC-32 of each *pristine* region payload slice, recorded at
    #: generation time so a partial image cut from a corrupted payload
    #: still fails :meth:`verify` (the SEU detection path).
    region_crcs: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        # (data object, (crc, region_bits, region_crcs)) of the last
        # successful check; see :meth:`verify`.  Not a field, so equality,
        # ``repr`` and the constructor never see it.
        self._verified: Optional[tuple] = None
        if (self.region_bits is None) != (self.region_crcs is None):
            raise BitstreamError(
                "region_bits and region_crcs must be provided together")
        if self.region_bits is not None:
            if len(self.region_bits) != len(self.region_crcs):
                raise BitstreamError(
                    f"{len(self.region_bits)} region sizes but "
                    f"{len(self.region_crcs)} region checksums")
            if sum(self.region_bits) != self.config_bits:
                raise BitstreamError(
                    f"region bits sum to {sum(self.region_bits)}, "
                    f"config_bits says {self.config_bits}")
            if any(bits <= 0 or bits % 8 for bits in self.region_bits):
                raise BitstreamError(
                    f"region bit counts must be positive multiples of 8, "
                    f"got {self.region_bits}")

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    @property
    def regions(self) -> int:
        """Number of regions in the grid (1 for a monolithic image)."""
        return len(self.region_bits) if self.region_bits is not None else 1

    def _region_bounds(self, index: int) -> Tuple[int, int]:
        offset = sum(self.region_bits[:index]) // 8
        return offset, offset + self.region_bits[index] // 8

    def region_slice(self, index: int) -> bytes:
        """The payload bytes of region ``index``."""
        if self.region_bits is None:
            raise BitstreamError(
                f"bitstream {self.design_name!r} carries no region grid")
        if not 0 <= index < len(self.region_bits):
            raise BitstreamError(
                f"region {index} out of range for a "
                f"{len(self.region_bits)}-region image")
        start, end = self._region_bounds(index)
        return self.data[start:end]

    def for_regions(self, indices: Sequence[int]) -> "Bitstream":
        """A partial image covering only the given regions.

        ``config_bits`` of the result is the sum of the selected regions'
        bits — exactly the transfer the programming engine charges for a
        region-granular hot swap.  Region checksums come from the pristine
        recording, so corruption inside a selected region still trips
        :meth:`verify`; corruption confined to unselected regions stays
        latent (it was not transferred).
        """
        if self.region_bits is None:
            raise BitstreamError(
                f"bitstream {self.design_name!r} carries no region grid")
        picked = tuple(indices)
        if not picked:
            raise BitstreamError("for_regions needs at least one region")
        if len(set(picked)) != len(picked):
            raise BitstreamError(f"duplicate region indices: {picked}")
        data = b"".join(self.region_slice(index) for index in picked)
        return Bitstream(
            design_name=self.design_name,
            data=data,
            crc=zlib.crc32(data),
            config_bits=sum(self.region_bits[index] for index in picked),
            meta=dict(self.meta, regions=picked),
            region_bits=tuple(self.region_bits[index] for index in picked),
            region_crcs=tuple(self.region_crcs[index] for index in picked),
        )

    def verify(self) -> bool:
        """Return True when the payload still matches its checksum.

        Regioned images verify every region slice against its pristine
        CRC-32 (the per-region configuration chains each check their own
        transfer); monolithic images check the whole-payload checksum.

        A passing check is remembered against the identity of the ``data``
        object (``bytes`` are immutable, so the same object holds the same
        bytes) together with ``crc``, ``region_bits`` and ``region_crcs``.
        While none of these changes, a repeated call answers from that memo
        instead of re-running the CRC over an unchanged image.  Assigning a
        new payload to ``data``, a :meth:`corrupted` copy or a
        :meth:`for_regions` partial is checked from scratch, and a failed
        check is never remembered.
        """
        key = (self.crc, self.region_bits, self.region_crcs)
        memo = self._verified
        if memo is not None and memo[0] is self.data and memo[1] == key:
            return True
        intact = self._payload_matches()
        self._verified = (self.data, key) if intact else None
        return intact

    def _payload_matches(self) -> bool:
        if self.region_crcs is not None:
            offset = 0
            for bits, crc in zip(self.region_bits, self.region_crcs):
                end = offset + bits // 8
                if zlib.crc32(self.data[offset:end]) != crc:
                    return False
                offset = end
            return True
        return zlib.crc32(self.data) == self.crc

    def corrupted(self, offset: int = 0, flip_mask: int = 0xFF) -> "Bitstream":
        """Return a copy with ``flip_mask`` XORed into the payload.

        ``flip_mask`` is interpreted little-endian starting at ``offset``:
        ``0xFF`` flips one byte (the classic single-event upset),
        ``0x0100`` flips bit 0 of ``offset + 1``, ``0xFFFF`` burns two
        consecutive bytes (a multi-bit burst).  Bytes wrap around the end
        of the payload.  Raises :class:`BitstreamError` for empty payloads,
        non-positive masks, and masks whose wrap-around XORs cancel out —
        every successful call returns a copy that fails :meth:`verify`.
        """
        if not self.data:
            raise BitstreamError("cannot corrupt an empty bitstream")
        if flip_mask <= 0:
            raise BitstreamError(
                f"flip_mask must be a positive bit pattern, got {flip_mask}")
        size = len(self.data)
        offset %= size
        mutated = bytearray(self.data)
        span = (flip_mask.bit_length() + 7) // 8
        for index, mask_byte in enumerate(flip_mask.to_bytes(span, "little")):
            mutated[(offset + index) % size] ^= mask_byte
        if bytes(mutated) == self.data:
            raise BitstreamError(
                f"flip_mask 0x{flip_mask:X} at offset {offset} cancels out "
                f"over a {size}-byte payload; corrupted() would return an "
                "uncorrupted copy"
            )
        return Bitstream(
            design_name=self.design_name,
            data=bytes(mutated),
            crc=self.crc,
            config_bits=self.config_bits,
            meta=dict(self.meta),
            region_bits=self.region_bits,
            region_crcs=self.region_crcs,
        )

    @classmethod
    def generate(
        cls, design: AcceleratorDesign, fabric: FabricInstance,
        meta: Optional[dict] = None, regions: Optional[int] = None,
    ) -> "Bitstream":
        """Produce a deterministic bitstream for ``design`` on ``fabric``.

        With ``regions``, the image carries the fabric's region grid
        (:meth:`FabricInstance.region_config_bits`) so
        :meth:`for_regions` can cut partial images; without it the image
        is monolithic, exactly as before.
        """
        config_bits = fabric.config_bits
        size_bytes = max(1, config_bits // 8)
        seed = f"{design.name}:{fabric.columns}x{fabric.rows}".encode()
        chunks, length = [], 0
        digest = hashlib.sha256(seed).digest()
        while length < size_bytes:
            chunks.append(digest)
            length += len(digest)
            digest = hashlib.sha256(digest).digest()
        data = b"".join(chunks)[:size_bytes]
        region_bits = region_crcs = None
        if regions is not None:
            region_bits = fabric.region_config_bits(regions)
            crcs, cursor = [], 0
            for bits in region_bits:
                end = cursor + bits // 8
                crcs.append(zlib.crc32(data[cursor:end]))
                cursor = end
            region_crcs = tuple(crcs)
        return cls(
            design_name=design.name,
            data=data,
            crc=zlib.crc32(data),
            config_bits=config_bits,
            meta=meta or {},
            region_bits=region_bits,
            region_crcs=region_crcs,
        )
