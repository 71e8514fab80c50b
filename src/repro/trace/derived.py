"""Derived per-event columns powering the batch execution core.

The packed format (:mod:`repro.trace.packed`) stores the raw access
columns; batch execution (:mod:`repro.system.batch`) additionally needs,
per core, the *region* each event touches, as a dense index into the
core's sorted region table, and the event's word-range access and write
*masks*, which its hit test compares with the core's cached coverage.
Those columns depend only on the trace and the region size, so they are
computed once per ``(trace, region_bytes)`` — with numpy when it is
importable, with ``array`` + pure-Python loops otherwise — and memoized
on the trace.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.common.addresses import WORD_BYTES
from repro.common.errors import SimulationError

#: Masks live in signed 64-bit columns; regions wider than this many
#: words cannot be batch-executed (the scalar engine handles them).
MAX_MASK_WORDS = 62

_np = None
_np_probed = False


def numpy_or_none():
    """The numpy module if importable, else ``None`` (probed once)."""
    global _np, _np_probed
    if not _np_probed:
        _np_probed = True
        try:
            import numpy  # noqa: F401 -- optional accelerator

            _np = numpy
        except ImportError:
            _np = None
    return _np


class CoreDerived:
    """One core's derived columns (see module docstring).

    ``region_idx`` holds *dense* indices into the core's sorted
    ``region_ids`` table so runtime state (coverage, pending masks) can
    live in flat arrays instead of dicts keyed by raw region ids.
    """

    __slots__ = ("region_idx", "amask", "wmask", "region_ids")

    def __init__(self, region_idx: array, amask: array, wmask: array,
                 region_ids: array):
        self.region_idx = region_idx
        self.amask = amask
        self.wmask = wmask
        self.region_ids = region_ids


class DerivedColumns:
    """Derived columns for every core of one packed trace."""

    __slots__ = ("region_bytes", "per_core")

    def __init__(self, region_bytes: int, per_core: List[CoreDerived]):
        self.region_bytes = region_bytes
        self.per_core = per_core


# -- derivation --------------------------------------------------------------


def derive(packed, region_bytes: int) -> DerivedColumns:
    """Compute derived columns for ``packed`` at ``region_bytes``."""
    if region_bytes % WORD_BYTES != 0 or region_bytes <= 0:
        raise SimulationError(
            f"region size {region_bytes} not a multiple of {WORD_BYTES}")
    if region_bytes // WORD_BYTES > MAX_MASK_WORDS:
        raise SimulationError(
            f"regions of {region_bytes} bytes exceed the {MAX_MASK_WORDS}-"
            "word mask columns")
    np = numpy_or_none()
    if np is not None:
        return _derive_numpy(packed, region_bytes, np)
    return _derive_python(packed, region_bytes)


def _derive_python(packed, region_bytes: int) -> DerivedColumns:
    words = region_bytes // WORD_BYTES
    per_core: List[CoreDerived] = []
    for core in range(packed.cores):
        w, a, s, _p, _t = packed.core_columns(core)
        region_ids = array("q", sorted({addr // region_bytes for addr in a}))
        idx_of = {region: i for i, region in enumerate(region_ids)}
        n = len(a)
        region_idx = array("i", bytes(4 * n))
        amask = array("q", bytes(8 * n))
        wmask = array("q", bytes(8 * n))
        for i in range(n):
            region, offset = divmod(a[i], region_bytes)
            first = offset // WORD_BYTES
            last_offset = offset + max(s[i], 1) - 1
            if last_offset >= region_bytes:
                last = words - 1
            else:
                last = last_offset // WORD_BYTES
            mask = ((1 << (last - first + 1)) - 1) << first
            region_idx[i] = idx_of[region]
            amask[i] = mask
            if w[i]:
                wmask[i] = mask
        per_core.append(CoreDerived(region_idx, amask, wmask, region_ids))
    return DerivedColumns(region_bytes, per_core)


def _derive_numpy(packed, region_bytes: int, np) -> DerivedColumns:
    words = region_bytes // WORD_BYTES
    per_core: List[CoreDerived] = []
    for core in range(packed.cores):
        w, a, s, _p, _t = packed.core_columns(core)
        wv = np.frombuffer(w, dtype=np.int8) if len(w) else np.zeros(0, np.int8)
        av = (np.frombuffer(a, dtype=np.int64) if len(a)
              else np.zeros(0, np.int64))
        sv = (np.frombuffer(s, dtype=np.int32) if len(s)
              else np.zeros(0, np.int32))
        region = av // region_bytes
        offset = av - region * region_bytes
        first = offset >> 3
        last_offset = offset + np.maximum(sv.astype(np.int64), 1) - 1
        last = np.where(last_offset >= region_bytes, words - 1,
                        last_offset >> 3)
        amask = ((np.int64(1) << (last - first + 1)) - np.int64(1)) << first
        wmask = np.where(wv != 0, amask, np.int64(0))
        region_ids = np.unique(region)
        per_core.append(CoreDerived(
            _as_array("i", np.searchsorted(region_ids, region), np),
            _as_array("q", amask, np),
            _as_array("q", wmask, np),
            _as_array("q", region_ids, np),
        ))
    return DerivedColumns(region_bytes, per_core)


def _as_array(typecode: str, np_values, np) -> array:
    """An ``array`` copy of a 1-D numpy integer array (native endian)."""
    dtype = {"i": np.int32, "q": np.int64}[typecode]
    out = array(typecode)
    out.frombytes(np.ascontiguousarray(np_values, dtype=dtype).tobytes())
    return out


# -- caching -----------------------------------------------------------------


def derived_for(packed, region_bytes: int) -> DerivedColumns:
    """Derived columns for ``packed``, memoized per trace and region size.

    ``PackedTrace`` carries the memo (``_derived``), so every run that
    replays one trace object derives its columns once.
    """
    memo = packed._derived
    derived = memo.get(region_bytes)
    if derived is None:
        derived = memo[region_bytes] = derive(packed, region_bytes)
    return derived
