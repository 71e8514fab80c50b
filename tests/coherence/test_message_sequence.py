"""Pin the exact message stream every protocol emits.

The RunStats goldens pin totals, so they cannot catch a reordered
message, or an endpoint swapped for another node at the same hop
distance.  This test replays two workloads through each protocol under
configurations that reach every message path (3-hop forwarding, L2
recalls, L1 evictions with WBACK-LAST, the sector L1) and compares the
sha256 of each ``trace_hook`` sequence of ``(label, src, dst,
payload_words)`` with a committed digest.

A change that moves the stream on purpose regenerates the digests with::

    PYTHONPATH=src python tests/coherence/test_message_sequence.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.common.params import (CacheGeometry, L1Organization, L2Config,
                                 ProtocolKind, SystemConfig)
from repro.system._simulator import Simulator
from repro.system.machine import build_protocol
from repro.trace.workloads import build_streams

DIGESTS = Path(__file__).with_name("message_sequence_digests.json")
WORKLOADS = ("histogram", "apache")
CORES, PER_CORE = 8, 400

CONFIGS = {
    "default": {},
    "three-hop": {"three_hop": True},
    # 16 regions of L2: capacity recalls on every workload.
    "l2-1kib": {"l2": L2Config(tiles=1, tile_kib=1)},
    # Evictions, including WBACK-LAST, under every protocol.
    "l1-4set": {"l1": CacheGeometry(sets=4)},
    "sector": {"l1_organization": L1Organization.SECTOR},
}


def _cells():
    for workload in WORKLOADS:
        for kind in ProtocolKind:
            for name in CONFIGS:
                if name == "sector" and kind is ProtocolKind.MESI:
                    continue  # the sector L1 is a Protozoa organisation
                yield f"{workload}/{kind.short_name}/{name}"


def message_digest(cell: str) -> dict:
    """Replay one cell; sha256 and count of its message stream."""
    workload, short, name = cell.split("/")
    kind = next(k for k in ProtocolKind if k.short_name == short)
    protocol = build_protocol(
        SystemConfig(protocol=kind, cores=CORES, **CONFIGS[name]))
    sha = hashlib.sha256()
    count = [0]

    def hook(mtype, src, dst, payload_words):
        sha.update(f"{mtype.label},{src},{dst},{payload_words}\n".encode())
        count[0] += 1

    protocol.trace_hook = hook
    streams = build_streams(workload, cores=CORES, per_core=PER_CORE, seed=0)
    Simulator(protocol, streams, batch=False).run()
    return {"messages": count[0], "sha256": sha.hexdigest()}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_every_cell(goldens):
    assert sorted(goldens) == sorted(_cells())


@pytest.mark.parametrize("cell", list(_cells()))
def test_message_stream_unchanged(cell, goldens):
    assert message_digest(cell) == goldens[cell]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps({c: message_digest(c) for c in _cells()},
                                  indent=1, sort_keys=True) + "\n")
