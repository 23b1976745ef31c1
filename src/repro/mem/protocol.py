"""Coherence protocol vocabulary.

The protocol is a blocking, directory-based MESI protocol in the spirit of
OpenPiton's P-Mesh: private caches issue ``GetS`` / ``GetM`` / ``PutM`` /
``PutS`` requests to the home directory; the directory issues ``Inv`` /
``FwdGetS`` / ``FwdGetM`` forwards to current owners and sharers; data and
acknowledgements travel on the response plane.  Requests, forwards and
responses use the three NoC planes so the blocking directory can never
deadlock.
"""

from __future__ import annotations

import enum


class CoherenceState(enum.Enum):
    """Stable MESI states held by a private cache (L2, Proxy Cache)."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def can_read(self) -> bool:
        return self is not CoherenceState.INVALID

    @property
    def can_write(self) -> bool:
        return self in (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE)


class DirectoryState(enum.Enum):
    """Per-line state tracked by the home directory slice."""

    UNOWNED = "U"
    SHARED = "S"
    EXCLUSIVE = "E"


class MsgKind:
    """String constants for coherence NoC message kinds.

    Kept as plain strings (not an enum) so the Duet Adapter and MMIO layers
    can extend the vocabulary without touching this module.
    """

    # Requests: private cache -> home directory (REQUEST plane)
    GET_S = "GetS"
    GET_M = "GetM"
    PUT_M = "PutM"
    PUT_S = "PutS"

    # Forwards: home directory -> private cache (FORWARD plane)
    INV = "Inv"
    FWD_GET_S = "FwdGetS"
    FWD_GET_M = "FwdGetM"

    # Responses (RESPONSE plane)
    DATA = "Data"              # directory or owner -> requester (carries state grant)
    INV_ACK = "InvAck"         # sharer -> directory
    WB_DATA = "WbData"         # owner -> directory (downgrade copy-back)
    TRANSFER_ACK = "TransferAck"  # old owner -> directory (ownership handoff)
    PUT_ACK = "PutAck"         # directory -> evictor

    REQUESTS = (GET_S, GET_M, PUT_M, PUT_S)
    FORWARDS = (INV, FWD_GET_S, FWD_GET_M)
    RESPONSES = (DATA, INV_ACK, WB_DATA, TRANSFER_ACK, PUT_ACK)
