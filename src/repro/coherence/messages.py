"""Coherence message vocabulary, byte-size rules and per-type effects.

All control messages are 8 bytes (the paper's base-protocol metadata size).
Data-carrying messages add 8 bytes per payload word on top of an 8-byte
header; the header is accounted as control ("message and data identifiers",
paper Section 4.1), the payload as data.

Message types follow the paper: the Protozoa additions over MESI are the
``WBACK_LAST`` (LAST PUTX) notification and the non-overlapping
acknowledgment ``ACK_S`` (Table 3).

Each type also carries, fixed when the enum is built, what sending it
does to the counters: ``at_l1`` (its header is L1-boundary control
traffic; false only for MemRead, MemData and MemWrite), ``writeback_data``
(its payload is classified as used/unused writeback data: WBACK and
WBACK-LAST) and ``stat_counter`` (the Table 1 ``RunStats`` counter it bumps:
``invalidations_sent`` for INV and Fwd-GETX, ``nacks``, ``ack_s``; else None).
"""

from __future__ import annotations

import enum

from repro.common.params import CONTROL_MESSAGE_BYTES
from repro.common.addresses import WORD_BYTES

# Per-type effects by label (outside the enum, where they would be members).
_OFF_L1 = frozenset({"MemRead", "MemData", "MemWrite"})
_WRITEBACKS = frozenset({"WBACK", "WBACK-LAST"})
_STAT_COUNTERS = {"INV": "invalidations_sent", "Fwd-GETX": "invalidations_sent",
                  "NACK": "nacks", "ACK-S": "ack_s"}


class MsgCategory(enum.Enum):
    """Control-traffic buckets of Figure 10 (+ data headers)."""

    REQ = "req"  # GETS / GETX / UPGRADE
    FWD = "fwd"  # forwarded requests / downgrades from the directory
    INV = "inv"  # invalidations
    ACK = "ack"  # ACK and ACK-S responses
    NACK = "nack"  # stale-sharer negative acknowledgments
    HDR = "hdr"  # headers of data-carrying messages (DATA / WBACK)


class MsgType(enum.Enum):
    """Every message the four protocols exchange."""

    GETS = ("GETS", MsgCategory.REQ, False)
    GETX = ("GETX", MsgCategory.REQ, False)
    UPGRADE = ("UPGRADE", MsgCategory.REQ, False)
    FWD_GETS = ("Fwd-GETS", MsgCategory.FWD, False)
    FWD_GETX = ("Fwd-GETX", MsgCategory.FWD, False)
    INV = ("INV", MsgCategory.INV, False)
    ACK = ("ACK", MsgCategory.ACK, False)
    ACK_S = ("ACK-S", MsgCategory.ACK, False)
    NACK = ("NACK", MsgCategory.NACK, False)
    DATA = ("DATA", MsgCategory.HDR, True)
    WBACK = ("WBACK", MsgCategory.HDR, True)
    WBACK_LAST = ("WBACK-LAST", MsgCategory.HDR, True)
    MEM_READ = ("MemRead", MsgCategory.REQ, False)  # home tile -> memory ctrl
    MEM_DATA = ("MemData", MsgCategory.HDR, True)  # memory ctrl -> home tile
    MEM_WRITE = ("MemWrite", MsgCategory.HDR, True)  # L2 eviction to memory

    def __init__(self, label: str, category: MsgCategory, carries_data: bool):
        self.label = label
        self.category = category
        self.carries_data = carries_data
        # The traffic-breakdown bucket this message's control bytes land
        # in, precomputed so the per-message path indexes it directly.
        self.control_key = category.value
        self.at_l1 = label not in _OFF_L1
        self.writeback_data = label in _WRITEBACKS
        self.stat_counter = _STAT_COUNTERS.get(label)

    def size_bytes(self, payload_words: int = 0) -> int:
        """Total on-wire bytes for this message."""
        if payload_words and not self.carries_data:
            raise ValueError(f"{self.label} cannot carry data")
        return CONTROL_MESSAGE_BYTES + payload_words * WORD_BYTES
