"""The structured per-transaction event trace.

Every memory access is one coherence transaction; with a ring attached
the protocol engine seals one record per transaction.  **Hits** send
no messages (the fast path touches only the local L1), so the engine seals
a complete hit record with a single :meth:`EventTrace.hit` call at
transaction end.  **Misses** open a record first (:meth:`begin`), append
directory actions and the full message sequence as they happen, and seal
it with the outcome (:meth:`end`).  The dict view (what ``records()``
returns and JSONL export writes) is:

``{"seq": 17, "core": 3, "op": "W", "addr": 32776, "size": 8, "pc": 4196,
  "hit": false, "latency": 46, "granted": "M",
  "actions": [["invalidate", 1]],
  "msgs": [["GETX", 3, 9, 0], ["INV", 9, 1, 0], ...]}``

**Sealed records are not dicts.**  Internally a record is a fixed 11-slot
list (see the ``F_*`` field indices); dict materialization is deferred to
read time, so sealing a hit builds one list instead of a 10-key dict and
two fresh lists.  Reads (``records()``, ``filtered()``, ``summary()``)
touch at most ``capacity`` retained records, so materialization cost is
bounded by the ring, not the trace length.

Retention is a bounded **ring buffer**: the newest ``capacity`` sealed
records survive, older ones are overwritten (counted in ``dropped``).
Every transaction seals one record: a run with a ring attached takes
the scalar issue loop (the batch runner in :mod:`repro.system.batch`
declines), so the global counters (``seen``/``hits``/``misses``) match
:class:`~repro.stats.counters.RunStats`.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional

# Field indices of a sealed record (a fixed 11-slot list).  Hit records
# share one immutable empty tuple for actions/msgs; the dict view
# converts it back to a list.
F_SEQ, F_CORE, F_OP, F_ADDR, F_SIZE, F_PC = 0, 1, 2, 3, 4, 5
F_HIT, F_LATENCY, F_GRANTED, F_ACTIONS, F_MSGS = 6, 7, 8, 9, 10
_NONE = ()


def _to_dict(rec: List) -> Dict:
    """Materialize the dict view of one sealed record."""
    out = {
        "seq": rec[F_SEQ],
        "core": rec[F_CORE],
        "op": rec[F_OP],
        "addr": rec[F_ADDR],
        "size": rec[F_SIZE],
        "pc": rec[F_PC],
        "hit": rec[F_HIT],
        "latency": rec[F_LATENCY],
        "actions": list(rec[F_ACTIONS]),
        "msgs": list(rec[F_MSGS]),
    }
    if rec[F_GRANTED] is not None:
        out["granted"] = rec[F_GRANTED]
    return out


class EventTrace:
    """Bounded ring of per-transaction records."""

    __slots__ = ("capacity", "dropped", "hits", "misses",
                 "_ring", "_next", "_open")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0      # sealed records overwritten by ring wrap
        self.hits = 0         # transaction-level
        self.misses = 0
        self._ring: List[List] = []
        self._next = 0        # overwrite cursor once the ring is full
        self._open: Optional[List] = None

    @property
    def seen(self) -> int:
        """Transactions observed.

        Derived, not maintained: every transaction is counted exactly
        once as a hit or a miss, so the total costs nothing on the hot
        path.
        """
        return self.hits + self.misses

    # -- recording hooks (called by the protocol engine) ---------------------

    def hit(self, core: int, is_write: bool, addr: int, size: int,
            pc: int, latency: int) -> None:
        """Seal a complete hit record in one call (hits send no messages)."""
        self._seal([self.hits + self.misses, core, "W" if is_write else "R",
                    addr, size, pc, True, latency, None, _NONE, _NONE])
        self.hits += 1

    def begin(self, core: int, is_write: bool, addr: int, size: int,
              pc: int) -> None:
        """Open a record for a transaction that will accumulate events."""
        self._open = [self.hits + self.misses, core,
                      "W" if is_write else "R", addr, size, pc,
                      None, 0, None, [], []]

    def message(self, mtype, src_node: int, dst_node: int,
                payload_words: int) -> None:
        """One network message of the open transaction (trace_hook shape)."""
        rec = self._open
        if rec is not None:
            rec[F_MSGS].append(
                [mtype.label, src_node, dst_node, payload_words])

    def action(self, kind: str, target: int) -> None:
        """A directory-side action (probe/downgrade/invalidate/revoke)."""
        rec = self._open
        if rec is not None:
            rec[F_ACTIONS].append([kind, target])

    def grant(self, state) -> None:
        """The L1 state granted to the requester (miss path only)."""
        rec = self._open
        if rec is not None:
            rec[F_GRANTED] = state.name

    def end(self, latency: int, hit: bool) -> None:
        """Seal the open record (if any) and count the transaction."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        rec = self._open
        if rec is None:
            return
        self._open = None
        rec[F_HIT] = hit
        rec[F_LATENCY] = latency
        self._seal(rec)

    def _seal(self, rec: List) -> None:
        """Retain ``rec``, overwriting the oldest record once full."""
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(rec)
        else:
            ring[self._next] = rec
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def _sealed(self) -> List[List]:
        """Retained internal records, oldest first."""
        ring = self._ring
        if len(ring) < self.capacity or self._next == 0:
            return list(ring)
        return ring[self._next:] + ring[:self._next]

    def records(self) -> List[Dict]:
        """Retained records as dicts, oldest first."""
        return [_to_dict(rec) for rec in self._sealed()]

    def filtered(self, core: Optional[int] = None, op: Optional[str] = None,
                 misses_only: bool = False,
                 limit: Optional[int] = None) -> Iterator[Dict]:
        """Records matching the ``repro events`` filter flags, oldest first."""
        emitted = 0
        for rec in self._sealed():
            if core is not None and rec[F_CORE] != core:
                continue
            if op is not None and rec[F_OP] != op:
                continue
            if misses_only and rec[F_HIT]:
                continue
            yield _to_dict(rec)
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def dump_jsonl(self, fh, records: Optional[Iterable[Dict]] = None) -> int:
        """Write records (default: all retained) as JSON Lines; returns count."""
        count = 0
        for rec in (self.records() if records is None else records):
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
            count += 1
        return count

    def summary(self) -> Dict:
        """Aggregate view over the run (global counters + retained records)."""
        msg_counts: Dict[str, int] = {}
        action_counts: Dict[str, int] = {}
        latency_total = 0
        for rec in self._ring:
            latency_total += rec[F_LATENCY]
            for msg in rec[F_MSGS]:
                msg_counts[msg[0]] = msg_counts.get(msg[0], 0) + 1
            for act in rec[F_ACTIONS]:
                action_counts[act[0]] = action_counts.get(act[0], 0) + 1
        retained = len(self._ring)
        return {
            "transactions": self.seen,
            "retained": retained,
            "dropped": self.dropped,
            "hits": self.hits,
            "misses": self.misses,
            "mean_latency_retained": (
                round(latency_total / retained, 2) if retained else 0.0),
            "messages_retained": dict(sorted(msg_counts.items())),
            "actions_retained": dict(sorted(action_counts.items())),
        }


def summarize_jsonl(lines: Iterable[str]) -> Dict:
    """Summary of an exported JSONL stream (``repro events --input``)."""
    trace = EventTrace(capacity=1 << 30)
    count = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        trace._ring.append([
            rec.get("seq"), rec.get("core"), rec.get("op"), rec.get("addr"),
            rec.get("size"), rec.get("pc"), rec.get("hit"),
            rec.get("latency", 0), rec.get("granted"),
            rec.get("actions", ()), rec.get("msgs", ()),
        ])
        if rec.get("hit"):
            trace.hits += 1
        else:
            trace.misses += 1
        count += 1
    summary = trace.summary()
    summary["retained"] = count
    return summary
