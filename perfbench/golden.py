"""The correctness gate: every simulated cell against a golden digest.

A digest is the sha256 of a cell's ``RunStats.to_dict()`` as sorted
JSON.  ``goldens.json`` holds the committed digests, keyed by the full
cell recipe (workload, protocol, block size, cores, accesses/core,
RunSpec seed), for the benchmark's default seed and one held-out seed.
A cell with no committed golden — any other seed — is checked against a
reference digest computed in the same run by the plainest path the
program has: object streams (no packing, no derived columns) through the
scalar issue loop (``batch=False``), in-process, with no cache.  The
committed goldens were written by that same path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

GOLDENS = Path(__file__).with_name("goldens.json")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def digest(stats_dict: Dict) -> str:
    blob = json.dumps(stats_dict, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def cell_key(spec) -> str:
    block = spec.block_bytes if spec.block_bytes is not None else "-"
    return (f"{spec.workload}/{spec.protocol.value}/{block}/{spec.cores}c/"
            f"{spec.per_core}/s{spec.seed}")


def reference_digest(spec) -> str:
    """The cell simulated by the reference path (see module docstring)."""
    from repro.system.machine import simulate
    from repro.trace.workloads import build_streams

    streams = build_streams(spec.workload, cores=spec.cores,
                            per_core=spec.per_core, seed=spec.seed)
    result = simulate(streams, spec.config(), name=spec.workload,
                      batch=False)
    return digest(result.stats.to_dict())


def load(path: Path = GOLDENS) -> Dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


class Checker:
    """Counts operations and failures; a mismatch is counted, not raised.

    Results are digested as they arrive (cheap) and compared in
    :meth:`settle`, after the measured window, because a reference digest
    may have to be simulated first.
    """

    def __init__(self, goldens: Dict[str, str]):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.reference_checked = 0
        self.failures: List[str] = []
        self._pending: List[Tuple[object, str]] = []
        self._reference: Dict[str, str] = {}

    def expected(self, spec) -> str:
        key = cell_key(spec)
        found = self.goldens.get(key)
        if found is not None:
            return found
        if key not in self._reference:
            self._reference[key] = reference_digest(spec)
        return self._reference[key]

    def observe(self, spec, stats_dict: Dict) -> None:
        """One operation that returned this cell's result."""
        self.observe_digest(spec, digest(stats_dict))

    def observe_digest(self, spec, cell_digest: str) -> None:
        self._pending.append((spec, cell_digest))

    def fail(self, what: str, n: int = 1) -> None:
        """``n`` operations that raised, failed or timed out."""
        self.attempted += n
        self.failed += n
        self._note(what)

    def _note(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)

    def settle(self) -> None:
        """Compare every observed digest with its expected one."""
        pending, self._pending = self._pending, []
        for spec, got in pending:
            if cell_key(spec) in self.goldens:
                self.golden_checked += 1
            else:
                self.reference_checked += 1
            self.attempted += 1
            if got != self.expected(spec):
                self.failed += 1
                self._note(f"digest mismatch: {cell_key(spec)}")

    def summary(self) -> str:
        return (f"{self.attempted} operations, {self.failed} failed; digests "
                f"checked: {self.golden_checked} against committed goldens, "
                f"{self.reference_checked} against the in-run reference path")
