"""The metrics registry: named, labeled counters and histograms.

The ad-hoc :class:`~repro.stats.counters.RunStats` fields remain the
simulation's source of truth (they are what the paper's figures read);
this module projects them into a *uniform, mergeable* namespace so sweeps
can aggregate across runs and across worker processes:

* **names** are Prometheus-style (``repro_accesses_total``), **labels**
  are sorted ``key=value`` pairs baked into the series key
  (``repro_accesses_total{op=read,protocol=mesi}``); label text containing
  the key's structural characters (``,`` ``=`` ``{`` ``}`` ``\\``) is
  backslash-escaped so every (name, labels) pair has exactly one key and
  :func:`parse_series_key` can invert it;
* **counters** are integers, **histograms** are power-of-two bucketed
  (count/total/min/max + bucket counts) — the same shape as
  :class:`~repro.stats.latency.LatencyHistogram` so miss-latency data
  projects losslessly;
* ``to_dict()``/``merge_dict()`` define the wire form: worker processes
  attach a registry dump to each serialized
  :class:`~repro.system.results.RunResult`, and the experiment engine
  merges the dumps back into its session registry (merge is associative
  and commutative, so fan-out order never matters).

The registry is passive.  Per-event counts never go through ``inc()`` /
``observe()`` (a dict lookup plus key formatting per call): the
components that produce them keep plain containers, which
``CoherenceProtocol.record_obs_metrics`` projects once per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


# Characters with structural meaning inside a series key.  Label text
# containing any of them is escaped; everything else takes the bare fast
# path (one containment scan, no allocation).
_ESCAPE_CHARS = ("\\", ",", "=", "{", "}")


def _escape(text: str) -> str:
    if ("\\" in text or "," in text or "=" in text
            or "{" in text or "}" in text):
        for ch in _ESCAPE_CHARS:
            text = text.replace(ch, "\\" + ch)
    return text


def _unescape(text: str) -> str:
    out: List[str] = []
    escaped = False
    for ch in text:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    return "".join(out)


def _split_unescaped(text: str, sep: str,
                     maxsplit: Optional[int] = None) -> List[str]:
    """Split on ``sep`` occurrences that are not backslash-escaped."""
    parts: List[str] = []
    buf: List[str] = []
    escaped = False
    for ch in text:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == sep and (maxsplit is None or len(parts) < maxsplit):
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels.

    Label keys and values are escaped (see module docstring), so distinct
    label maps never collide — ``{"a": "1,b=2"}`` and ``{"a": 1, "b": 2}``
    produce different keys — and :func:`parse_series_key` round-trips.
    """
    if not labels:
        return name
    inner = ",".join(f"{_escape(str(k))}={_escape(str(labels[k]))}"
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_key`; label values come back as strings.

    Metric *names* are code-controlled identifiers and never contain
    ``{`` — the first brace starts the label block.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed series key: {key!r}")
    name = key[:brace]
    inner = key[brace + 1:-1]
    labels: Dict[str, str] = {}
    if inner:
        for item in _split_unescaped(inner, ","):
            pair = _split_unescaped(item, "=", maxsplit=1)
            if len(pair) != 2:
                raise ValueError(f"malformed label {item!r} in {key!r}")
            k, v = pair
            labels[_unescape(k)] = _unescape(v)
    return name, labels


class HistogramData:
    """Power-of-two bucketed histogram (bucket i: 2^i <= v < 2^(i+1))."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        index = max(int(value).bit_length() - 1, 0)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def add_bucket(self, index: int, count: int, total: int = 0) -> None:
        """Bulk-load pre-bucketed samples (projection from RunStats)."""
        if count <= 0:
            return
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += count
        self.total += total

    def add_counts(self, counts: List[int]) -> None:
        """Bulk-load value-indexed counts: ``counts[v]`` samples of ``v``.

        Exactly equivalent to one :meth:`observe` per sample; the bucket
        index and min/max work is paid once per distinct value.
        """
        for value, n in enumerate(counts):
            if not n:
                continue
            self.add_bucket(max(value.bit_length() - 1, 0), n,
                            total=value * n)
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def merge_dict(self, data: Dict) -> None:
        self.count += data.get("count", 0)
        self.total += data.get("total", 0)
        for key, value in data.get("buckets", {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + value
        for attr, pick in (("min", min), ("max", max)):
            other = data.get(attr)
            if other is None:
                continue
            mine = getattr(self, attr)
            setattr(self, attr, other if mine is None else pick(mine, other))


class MetricsRegistry:
    """Labeled counters and histograms with an associative merge."""

    def __init__(self):
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, HistogramData] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, value: int = 1, **labels) -> None:
        key = series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def histogram(self, name: str, **labels) -> HistogramData:
        key = series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramData()
        return hist

    def observe(self, name: str, value: int, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reading -------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> int:
        return self._counters.get(series_key(name, labels), 0)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def histograms(self) -> Dict[str, HistogramData]:
        return dict(self._histograms)

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # -- wire form -----------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self._histograms.items())},
        }

    def merge_dict(self, data: Dict) -> None:
        """Fold one wire-form dump into this registry (unknown keys skip)."""
        for key, value in data.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, hist_data in data.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = HistogramData()
            hist.merge_dict(hist_data)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.to_dict())

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge_dict(data)
        return registry


_PROCESS_REGISTRY: Optional[MetricsRegistry] = None


def process_registry() -> MetricsRegistry:
    """The process-wide registry for machinery-level (non-simulation) series.

    Per-run simulation metrics stay on per-run registries (attached to
    each :class:`~repro.system.results.RunResult`); this singleton is
    where cross-cutting infrastructure — cache quarantines, resilience
    retries, rebuild warnings — accumulates counters that no single run
    owns.  ``repro chaos`` and ``repro doctor`` read it back, and the
    experiment engine folds it into its session registry.
    """
    global _PROCESS_REGISTRY
    if _PROCESS_REGISTRY is None:
        _PROCESS_REGISTRY = MetricsRegistry()
    return _PROCESS_REGISTRY


def reset_process_registry() -> None:
    """Fresh process-wide registry (test isolation; chaos phase splits)."""
    global _PROCESS_REGISTRY
    _PROCESS_REGISTRY = None


def record_run_metrics(registry: MetricsRegistry, stats, **labels) -> None:
    """Project one run's :class:`RunStats` into the unified namespace.

    ``labels`` (typically ``protocol=...`` and ``workload=...``) are
    attached to every series, so merged sweep registries stay separable,
    except ``repro_txn_total{op,outcome}``: it carries only its own two
    labels and is left out when zero, the wire form that result blobs
    already in caches hold.
    """
    inc = registry.inc
    for op, outcome, value in (
        ("read", "hit", stats.read_hits),
        ("write", "hit", stats.write_hits),
        ("read", "miss", stats.read_misses),
        ("write", "miss", stats.write_misses + stats.upgrade_misses),
    ):
        if value:
            inc("repro_txn_total", value, op=op, outcome=outcome)
    inc("repro_instructions_total", stats.instructions, **labels)
    inc("repro_accesses_total", stats.reads, op="read", **labels)
    inc("repro_accesses_total", stats.writes, op="write", **labels)
    inc("repro_hits_total", stats.read_hits, op="read", **labels)
    inc("repro_hits_total", stats.write_hits, op="write", **labels)
    inc("repro_misses_total", stats.read_misses, kind="read", **labels)
    inc("repro_misses_total", stats.write_misses, kind="write", **labels)
    inc("repro_misses_total", stats.upgrade_misses, kind="upgrade", **labels)
    inc("repro_traffic_bytes_total", stats.traffic.used_data,
        kind="used_data", **labels)
    inc("repro_traffic_bytes_total", stats.traffic.unused_data,
        kind="unused_data", **labels)
    for category, nbytes in stats.traffic.control.items():
        inc("repro_control_bytes_total", nbytes, category=category, **labels)
    for event, value in (
        ("invalidations", stats.invalidations_sent),
        ("nacks", stats.nacks),
        ("ack_s", stats.ack_s),
        ("writebacks", stats.writebacks),
        ("writebacks_last", stats.writebacks_last),
        ("evictions", stats.evictions),
        ("inval_block_kills", stats.inval_block_kills),
        ("fills", stats.fills),
    ):
        inc("repro_coherence_events_total", value, event=event, **labels)
    inc("repro_fill_words_total", stats.fill_words, **labels)

    install = registry.histogram("repro_install_width_words", **labels)
    for width, count in stats.block_size_hist.items():
        install.add_bucket(max(int(width).bit_length() - 1, 0), count,
                           total=width * count)
    latency = registry.histogram("repro_miss_latency_cycles", **labels)
    for index, count in enumerate(stats.miss_latency.buckets):
        latency.add_bucket(index, count)
    latency.total += stats.miss_latency.total
    if stats.miss_latency.min is not None:
        latency.merge_dict({"min": stats.miss_latency.min,
                            "max": stats.miss_latency.max})
