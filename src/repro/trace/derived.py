"""Derived per-event columns powering the batch execution core.

The packed format (:mod:`repro.trace.packed`) stores the raw access
columns; batch execution (:mod:`repro.system.batch`) additionally needs,
per core, the *region* each event touches, its word-range *mask*, and
prefix sums of think time / write counts / written-word popcounts so a
whole span of events can be retired with O(1) arithmetic.  Those columns
depend only on the trace and the region size, so they are computed once
per ``(trace, region_bytes)`` — with numpy when it is importable, with
``array`` + pure-Python loops otherwise — and memoized on the trace.

Two global classifications ride along, both trace-level facts:

* a region is **private** when exactly one core ever touches it;
* a region is **read-only** when no core ever writes it.

Events on private or read-only regions commute with other cores'
transactions as long as they *hit*, which is what lets the batch runner
execute them ahead of the global clock order.  Every other event sits in
the per-core ``hard_pos`` index and is replayed in exact heap order.
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

    __slots__ = ("region_idx", "amask", "wmask", "think_cum", "writes_cum",
                 "wpop_cum", "hard_pos", "region_ids")

    def __init__(self, region_idx: array, amask: array, wmask: array,
                 think_cum: array, writes_cum: array, wpop_cum: array,
                 hard_pos: array, region_ids: array):
        self.region_idx = region_idx
        self.amask = amask
        self.wmask = wmask
        self.think_cum = think_cum
        self.writes_cum = writes_cum
        self.wpop_cum = wpop_cum
        self.hard_pos = hard_pos
        self.region_ids = region_ids


class DerivedColumns:
    """Derived columns for every core of one packed trace."""

    __slots__ = ("region_bytes", "total_regions", "per_core")

    def __init__(self, region_bytes: int, total_regions: int,
                 per_core: List[CoreDerived]):
        self.region_bytes = region_bytes
        self.total_regions = total_regions
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
    cores = packed.cores
    touched_by: dict = {}  # region -> core count (capped at 2)
    written: set = set()
    core_regions: List[set] = []
    for core in range(cores):
        w, a, _s, _p, _t = packed.core_columns(core)
        regs = set()
        for i in range(len(a)):
            region = a[i] // region_bytes
            regs.add(region)
            if w[i]:
                written.add(region)
        for region in regs:
            touched_by[region] = min(touched_by.get(region, 0) + 1, 2)
        core_regions.append(regs)
    hard = {region for region, count in touched_by.items()
            if count > 1 and region in written}
    per_core: List[CoreDerived] = []
    for core in range(cores):
        w, a, s, _p, t = packed.core_columns(core)
        region_ids = array("q", sorted(core_regions[core]))
        idx_of = {region: i for i, region in enumerate(region_ids)}
        n = len(a)
        region_idx = array("i", bytes(4 * n))
        amask = array("q", bytes(8 * n))
        wmask = array("q", bytes(8 * n))
        think_cum = array("q", bytes(8 * (n + 1)))
        writes_cum = array("q", bytes(8 * (n + 1)))
        wpop_cum = array("q", bytes(8 * (n + 1)))
        hard_pos = array("q")
        th = wr = wp = 0
        for i in range(n):
            addr = a[i]
            region, offset = divmod(addr, region_bytes)
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
                wr += 1
                wp += mask.bit_count()
            if region in hard:
                hard_pos.append(i)
            th += t[i]
            think_cum[i + 1] = th
            writes_cum[i + 1] = wr
            wpop_cum[i + 1] = wp
        per_core.append(CoreDerived(region_idx, amask, wmask, think_cum,
                                    writes_cum, wpop_cum, hard_pos,
                                    region_ids))
    return DerivedColumns(region_bytes, len(touched_by), per_core)


def _derive_numpy(packed, region_bytes: int, np) -> DerivedColumns:
    words = region_bytes // WORD_BYTES
    cores = packed.cores
    regions_per_core = []
    masks = []
    for core in range(cores):
        w, a, s, _p, t = packed.core_columns(core)
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
        regions_per_core.append((region, np.unique(region),
                                 np.unique(region[wv != 0])))
        masks.append((wv, amask, wmask, t))
    all_unique = (np.concatenate([u for _, u, _ in regions_per_core])
                  if cores else np.zeros(0, np.int64))
    vals, counts = np.unique(all_unique, return_counts=True)
    shared = vals[counts >= 2]
    written = np.unique(np.concatenate(
        [wu for _, _, wu in regions_per_core])) if cores else shared
    hard_regions = np.intersect1d(shared, written, assume_unique=True)
    per_core: List[CoreDerived] = []
    for core in range(cores):
        region, region_ids, _wu = regions_per_core[core]
        wv, amask, wmask, t = masks[core]
        n = len(region)
        region_idx = np.searchsorted(region_ids, region).astype(np.int32)
        tv = (np.frombuffer(t, dtype=np.int32) if len(t)
              else np.zeros(0, np.int32))
        think_cum = np.zeros(n + 1, np.int64)
        np.cumsum(tv, dtype=np.int64, out=think_cum[1:])
        writes_cum = np.zeros(n + 1, np.int64)
        np.cumsum(wv != 0, dtype=np.int64, out=writes_cum[1:])
        wpop_cum = np.zeros(n + 1, np.int64)
        np.cumsum(_popcount(np, wmask), dtype=np.int64, out=wpop_cum[1:])
        if len(hard_regions):
            hard_ev = np.isin(region, hard_regions)
            hard_pos = np.flatnonzero(hard_ev).astype(np.int64)
        else:
            hard_pos = np.zeros(0, np.int64)
        per_core.append(CoreDerived(
            _as_array("i", region_idx, np),
            _as_array("q", amask, np),
            _as_array("q", wmask, np),
            _as_array("q", think_cum, np),
            _as_array("q", writes_cum, np),
            _as_array("q", wpop_cum, np),
            _as_array("q", hard_pos, np),
            _as_array("q", region_ids, np),
        ))
    return DerivedColumns(region_bytes, int(len(vals)), per_core)


def _popcount(np, values):
    """Per-element popcount of a non-negative int64 array."""
    fn = getattr(np, "bitwise_count", None)
    if fn is not None:
        return fn(values).astype(np.int64)
    out = np.zeros(len(values), np.int64)
    for i, v in enumerate(values.tolist()):
        out[i] = v.bit_count()
    return out


def _as_array(typecode: str, np_values, np) -> array:
    """An ``array`` copy of a 1-D numpy integer array (native endian)."""
    dtype = {"b": np.int8, "i": np.int32, "q": np.int64}[typecode]
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
