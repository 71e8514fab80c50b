"""Columnar packed traces: build a workload's access stream once, replay
it with zero per-event object allocation.

A :class:`PackedTrace` stores one set of parallel columns per core —
``is_write`` / ``addr`` / ``size`` / ``pc`` / ``think`` — as ``array``
instances, so the simulator's issue loop reads plain machine integers
instead of constructing a :class:`~repro.trace.events.MemAccess` per
event.  The columnar form is also what goes on disk: a small versioned
binary header followed by the raw column bytes, loadable with one
``array.frombytes`` per column over an ``mmap`` of the file (a bulk
memcpy — no parsing, no unpickling).

``MemAccess`` streams remain the form that the text trace format
(:mod:`repro.trace.io`) reads and writes and that hand-built scenarios
use; :meth:`PackedTrace.from_streams` packs them, and the simulator
calls it on any stream it is handed that is not packed yet.

Bump :data:`FORMAT_VERSION` whenever the binary layout changes; the
trace cache (:mod:`repro.trace._cache`) keys entries by it, so stale
files simply become unreachable.
"""

from __future__ import annotations

import mmap
import struct
import sys
from array import array
from typing import Iterable, List, Tuple

from repro.common.errors import SimulationError
from repro.trace.events import MemAccess

#: Binary-format version; part of every trace-cache digest.
FORMAT_VERSION = 1

_MAGIC = b"REPROPKT"
_HEADER = struct.Struct("<8sBBHI")  # magic, version, endian, reserved, cores
_LITTLE, _BIG = 0, 1
_NATIVE_ENDIAN = _LITTLE if sys.byteorder == "little" else _BIG

#: Column order and array typecodes of the on-disk layout.
_COLUMNS: Tuple[Tuple[str, str, int], ...] = (
    ("is_write", "b", 1),
    ("addr", "q", 8),
    ("size", "i", 4),
    ("pc", "q", 8),
    ("think", "i", 4),
)

for _name, _code, _want in _COLUMNS:
    if array(_code).itemsize != _want:
        raise RuntimeError(
            f"array typecode {_code!r} is {array(_code).itemsize} bytes on "
            f"this platform (packed traces need {_want})"
        )

_RECORD_BYTES = sum(itemsize for _, _, itemsize in _COLUMNS)

#: Guard against absurd headers in corrupt files (a real machine tops out
#: far below this; counts are additionally bounded by the file size check).
_MAX_CORES = 1 << 16

Columns = Tuple[array, array, array, array, array]


class PackedTrace:
    """Per-core columnar access streams (see module docstring)."""

    __slots__ = ("_cols", "_derived")

    def __init__(self, cols: List[Columns]):
        self._cols = cols
        # Derived-column memo (repro.trace.derived), keyed by
        # region_bytes; it does not participate in equality.
        self._derived: dict = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_streams(cls, streams: Iterable[Iterable[MemAccess]]
                     ) -> "PackedTrace":
        """Pack per-core ``MemAccess`` iterables into columns."""
        cols: List[Columns] = []
        for stream in streams:
            # One list per column, then one array each: no per-event
            # method call.
            events = list(stream)
            try:
                cols.append((
                    array("b", [1 if e.is_write else 0 for e in events]),
                    array("q", [e.addr for e in events]),
                    array("i", [e.size for e in events]),
                    array("q", [e.pc for e in events]),
                    array("i", [e.think for e in events])))
            except OverflowError:
                raise SimulationError(
                    "packed trace: addr and pc must be below 2**63, size "
                    "and think below 2**31") from None
        return cls(cols)

    # -- shape ---------------------------------------------------------------

    @property
    def cores(self) -> int:
        return len(self._cols)

    @property
    def counts(self) -> List[int]:
        return [len(c[0]) for c in self._cols]

    def __len__(self) -> int:
        return sum(len(c[0]) for c in self._cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self._cols == other._cols

    def __repr__(self) -> str:
        return f"PackedTrace(cores={self.cores}, records={len(self)})"

    # -- access --------------------------------------------------------------

    def core_columns(self, core: int) -> Columns:
        """The (is_write, addr, size, pc, think) arrays for one core."""
        return self._cols[core]

    # -- binary serialization ------------------------------------------------

    def dumps(self) -> bytes:
        buf = bytearray()
        buf += _HEADER.pack(_MAGIC, FORMAT_VERSION, _NATIVE_ENDIAN, 0,
                            self.cores)
        buf += struct.pack(f"<{self.cores}Q", *self.counts)
        for cols in self._cols:
            for arr in cols:
                buf += arr.tobytes()
        return bytes(buf)

    def dump(self, fh) -> int:
        """Write the binary form to a file opened in ``"wb"`` mode."""
        data = self.dumps()
        fh.write(data)
        return len(data)

    @classmethod
    def loads(cls, data: bytes) -> "PackedTrace":
        return cls._parse(data)

    @classmethod
    def load(cls, path) -> "PackedTrace":
        """Load a packed file: mmap it, then one ``frombytes`` per column."""
        with open(path, "rb") as fh:
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                raise SimulationError(f"truncated packed trace: {path}")
            try:
                return cls._parse(mm)
            finally:
                mm.close()

    @classmethod
    def _parse(cls, data) -> "PackedTrace":
        total = len(data)
        if total < _HEADER.size:
            raise SimulationError("truncated packed trace header")
        magic, version, endian, _, cores = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise SimulationError(f"not a packed trace (magic {magic!r})")
        if version != FORMAT_VERSION:
            raise SimulationError(
                f"packed trace version {version} (this build reads "
                f"{FORMAT_VERSION})")
        if endian not in (_LITTLE, _BIG):
            raise SimulationError(f"packed trace endian flag {endian}")
        if cores > _MAX_CORES:
            raise SimulationError(f"packed trace claims {cores} cores")
        off = _HEADER.size
        if total < off + 8 * cores:
            raise SimulationError("truncated packed trace count table")
        counts = struct.unpack_from(f"<{cores}Q", data, off)
        off += 8 * cores
        if total != off + sum(counts) * _RECORD_BYTES:
            raise SimulationError(
                f"packed trace size mismatch: {total} bytes for "
                f"{sum(counts)} records")
        swap = endian != _NATIVE_ENDIAN
        cols: List[Columns] = []
        for count in counts:
            arrs = []
            for _, typecode, itemsize in _COLUMNS:
                arr = array(typecode)
                nbytes = count * itemsize
                arr.frombytes(data[off:off + nbytes])
                if swap and itemsize > 1:
                    arr.byteswap()
                off += nbytes
                arrs.append(arr)
            cols.append(tuple(arrs))
        trace = cls(cols)
        trace._validate()
        return trace

    def _validate(self) -> None:
        """The ``MemAccess`` constructor invariants, columnar form."""
        for w, a, s, p, t in self._cols:
            if not w:
                continue
            if min(w) < 0 or max(w) > 1:
                raise SimulationError("packed trace: is_write not in {0, 1}")
            if min(a) < 0:
                raise SimulationError("packed trace: negative addr")
            if min(s) <= 0 or min(t) < 0:
                raise SimulationError("packed trace: invalid size/think")

