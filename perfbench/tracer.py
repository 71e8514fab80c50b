"""Outside-in layer tracing for the benchmark's traced run.

The program under test is not edited: for the traced run only, the
benchmark replaces each layer's public entry points with wrappers,
installed as class or module attributes where the callers look them up
(a function imported by name into other ``repro`` modules is re-pointed
there too), and restores the originals afterwards.  The engines look
these objects up on every call, so every call is seen.

Each wrapped call is one span: name, start, end, parent and run id,
kept in memory in flat arrays and written out when the benchmark ends.
A span's self time is its duration minus its children's durations.
Tracer bookkeeping done between a child's clock reads lands in the
parent's self time; the untraced/traced wall-time comparison reports the
total overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple


class MissingTarget(RuntimeError):
    """A layer entry point the benchmark wraps no longer exists."""


class Tracer:
    """Span recorder with a parent stack and per-name aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.col_name = array("H")
        self.col_parent = array("l")
        self.col_run = array("H")
        self.col_start = array("d")
        self.col_end = array("d")
        self.calls: List[int] = []
        self.total: List[float] = []
        self.own: List[float] = []
        self.nbytes: List[int] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        self.run = 0
        self.root_s = 0.0
        # Observations the wrappers make besides timing (see Layers).
        self.sims: List[Dict] = []
        self.notes: Dict[str, float] = {}

    def sid(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.own.append(0.0)
            self.nbytes.append(0)
        return found

    def note(self, key: str, value: float = 1) -> None:
        self.notes[key] = self.notes.get(key, 0) + value

    def open(self, sid: int) -> int:
        stack = self._stack
        idx = len(self.col_start)
        self.col_name.append(sid)
        self.col_parent.append(stack[-1] if stack else -1)
        self.col_run.append(self.run)
        self.col_end.append(0.0)
        stack.append(idx)
        self._child.append(0.0)
        self.col_start.append(self.clock())
        return idx

    def close(self, idx: int, sid: Optional[int] = None,
              nbytes: int = 0) -> None:
        end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("span closed out of order")
        duration = end - self.col_start[idx]
        self.col_end[idx] = end
        if sid is None:
            sid = self.col_name[idx]
        else:
            self.col_name[idx] = sid
        child = self._child.pop()
        if self._child:
            self._child[-1] += duration
        else:
            self.root_s += duration
        self.calls[sid] += 1
        self.total[sid] += duration
        self.own[sid] += duration - child
        self.nbytes[sid] += nbytes

    def get(self, name: str, field: str = "own") -> float:
        sid = self._ids.get(name)
        return 0 if sid is None else getattr(self, field)[sid]

    def dump(self, path) -> int:
        """Write every span: a JSON header line, then the raw columns."""
        columns = [("name", self.col_name), ("parent", self.col_parent),
                   ("run", self.col_run), ("start", self.col_start),
                   ("end", self.col_end)]
        header = {"names": self.names, "spans": len(self.col_start),
                  "columns": [[n, c.typecode] for n, c in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, column in columns:
                column.tofile(fh)
        return len(self.col_start)


def load_spans(path) -> Tuple[List[str], Dict[str, array]]:
    """Read back a :meth:`Tracer.dump` file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(fh, header["spans"])
            columns[name] = column
    return header["names"], columns


# -- wrappers ----------------------------------------------------------------

def _plain(tracer: Tracer, name: str, fn):
    sid = tracer.sid(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)
    return wrapper


def _access(tracer: Tracer, name: str, fn):
    """Protocol read/write: a hit or a miss by whether ``stats`` counted
    a miss during the call."""
    hit, miss = tracer.sid("coherence.hit"), tracer.sid("coherence.miss")
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        st = self.stats
        before = st.read_misses + st.write_misses + st.upgrade_misses
        idx = open_(hit)
        try:
            return fn(self, *args, **kwargs)
        finally:
            close(idx, hit if before == (st.read_misses + st.write_misses
                                         + st.upgrade_misses) else miss)
    return wrapper


def _simulate(tracer: Tracer, name: str, fn):
    """One cell: also records its counts and whether it ran batched."""
    sid = tracer.sid(name)

    @functools.wraps(fn)
    def wrapper(streams, config, *args, **kwargs):
        name = kwargs.get("name", args[0] if args else "")
        record = {"cell": f"{name}/{config.protocol.value}/"
                          f"{config.block_bytes}B/{config.cores}c",
                  "batched": False}
        tracer.sims.append(record)
        idx = tracer.open(sid)
        try:
            result = fn(streams, config, *args, **kwargs)
        finally:
            tracer.close(idx)
            record["seconds"] = tracer.col_end[idx] - tracer.col_start[idx]
        stats = result.stats
        record.update(accesses=stats.accesses, misses=stats.misses,
                      invalidations=stats.invalidations_sent,
                      flit_hops=result.flit_hops())
        return result
    return wrapper


def _batched(tracer: Tracer, name: str, fn):
    """``maybe_run_batched``: its return value says whether the batched
    loop ran for the enclosing ``simulate`` call."""
    inner = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ran = inner(*args, **kwargs)
        if ran and tracer.sims:
            tracer.sims[-1]["batched"] = True
        return ran
    return wrapper


def _trace_cache(tracer: Tracer, name: str, fn):
    sid = tracer.sid(name)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        built = self.built
        idx = tracer.open(sid)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.note("trace_cache_misses" if self.built != built
                        else "trace_cache_hits")
    return wrapper


def _store_get(tracer: Tracer, name: str, fn):
    sid = tracer.sid(name)

    @functools.wraps(fn)
    def wrapper(self, key, *args, **kwargs):
        idx = tracer.open(sid)
        data = None
        try:
            data = fn(self, key, *args, **kwargs)
            return data
        finally:
            tracer.close(idx, nbytes=len(data) if data else 0)
    return wrapper


def _store_put(tracer: Tracer, name: str, fn):
    sid = tracer.sid(name)

    @functools.wraps(fn)
    def wrapper(self, key, data, *args, **kwargs):
        idx = tracer.open(sid)
        try:
            return fn(self, key, data, *args, **kwargs)
        finally:
            size = len(data) if isinstance(data, (bytes, str)) else 0
            tracer.close(idx, nbytes=size)
    return wrapper


def _store_put_blob(tracer: Tracer, name: str, fn):
    inner = _plain(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(self, key, writer, *args, **kwargs):
        out = inner(self, key, writer, *args, **kwargs)
        path = self.local_path(key)
        if path is not None:
            tracer.nbytes[tracer.sid(name)] += path.stat().st_size
        return out
    return wrapper


def _rpc_call(tracer: Tracer, name: str, fn):
    """``ServiceClient.call``: one span per RPC, named by its method."""
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(self, method, **params):
        sid = tracer.sid(f"{name}.{method}")
        idx = open_(sid)
        try:
            result = fn(self, method, **params)
        finally:
            close(idx)
        if method == "job_result":
            tracer.nbytes[sid] += len(json.dumps(result).encode("utf-8"))
        elif method == "submit_sweep":
            tracer.note("submits")
            tracer.note("submits_cached", 1 if result.get("cached") else 0)
        return result
    return wrapper


# (span name, module, class or "" for a module function, attributes, kind)
# — the public entry points of every measured layer.
ENTRY_POINTS = (
    ("trace.build", "repro.trace.workloads", "", ("build_streams",), _plain),
    ("trace.pack", "repro.trace.packed", "PackedTrace", ("from_streams",),
     _plain),
    ("trace.derive", "repro.trace.derived", "", ("derived_for",), _plain),
    ("trace.cache_get", "repro.trace._cache", "TraceCache",
     ("get_or_build",), _trace_cache),
    ("system.simulate", "repro.system.machine", "", ("simulate",), _simulate),
    ("system.batch", "repro.system.batch", "", ("maybe_run_batched",),
     _batched),
    ("coherence.access", "repro.coherence.protocol_base", "CoherenceProtocol",
     ("read", "write"), _access),
    ("coherence.flush", "repro.coherence.protocol_base", "CoherenceProtocol",
     ("flush",), _plain),
    ("coherence.batch_hook", "repro.coherence.protocol_base",
     "CoherenceProtocol", ("coverage_masks", "apply_deferred_hits"), _plain),
    ("coherence.directory", "repro.coherence.directory", "Directory",
     ("lookup", "entry", "peek"), _plain),
    ("memory.predictor", "repro.memory.predictor", "SpatialPredictor+",
     ("predict", "train"), _plain),
    ("memory.l1_insert", "repro.memory.amoeba_cache", "AmoebaCache",
     ("insert",), _plain),
    ("memory.l1_insert", "repro.memory.fixed_cache", "FixedCache",
     ("insert",), _plain),
    ("memory.l1_insert", "repro.memory.sector_cache", "SectorCache",
     ("insert",), _plain),
    ("memory.l2", "repro.memory.backing", "L2Store",
     ("present", "ensure_present", "evict", "read", "patch", "is_dirty",
      "peek_words"), _plain),
    ("interconnect.transfer", "repro.interconnect.accounting",
     "NetworkAccountant", ("transfer",), _plain),
    ("store.get", "repro.store.fs", "FsStore", ("get",), _store_get),
    ("store.put", "repro.store.fs", "FsStore", ("put",), _store_put),
    ("store.put_blob", "repro.store.fs", "FsStore", ("put_blob",),
     _store_put_blob),
    ("store.get", "repro.store.http", "HttpStore", ("get",), _store_get),
    ("store.put", "repro.store.http", "HttpStore", ("put",), _store_put),
    ("store.put_blob", "repro.store.http", "HttpStore", ("put_blob",),
     _store_put_blob),
    ("experiments.serialize", "repro.system.results", "RunResult",
     ("to_dict",), _plain),
    ("experiments.parse", "repro.system.results", "RunResult",
     ("from_dict",), _plain),
    ("experiments.run_many", "repro.experiments._engine", "ExperimentEngine",
     ("run_many",), _plain),
    ("experiments.render", "repro.experiments.report", "", ("write_report",),
     _plain),
    ("service.call", "repro.service.client", "ServiceClient", ("call",),
     _rpc_call),
    # ServiceClient.wait: its self time is the poll sleeps.
    ("service.wait", "repro.service.client", "ServiceClient", ("wait",),
     _plain),
)


def _owners(module: ModuleType, owner: str, attr: str) -> List[object]:
    """The objects whose ``attr`` must be replaced for one entry point."""
    if not owner:
        return [module]
    cls = getattr(module, owner.rstrip("+"), None)
    if cls is None:
        raise MissingTarget(f"{module.__name__}.{owner} no longer exists")
    if not owner.endswith("+"):
        return [cls]
    # A class hierarchy: every class that defines the method itself.
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        todo.extend(klass.__subclasses__())
        if attr in vars(klass):
            found.append(klass)
    if not found:
        raise MissingTarget(f"{owner.rstrip('+')}.{attr} no longer exists")
    return found


class Installation:
    """Wrappers installed for one traced pass; ``remove()`` restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Installation":
        # Import every module first: a module imported while wrappers are
        # in place would bind a wrapper by name and keep it afterwards.
        modules = [importlib.import_module(entry[1]) for entry in ENTRY_POINTS]
        try:
            for module, (name, _, owner, attrs, kind) in zip(modules,
                                                             ENTRY_POINTS):
                for attr in attrs:
                    for target in _owners(module, owner, attr):
                        self._wrap(target, attr, name, kind)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, owner, attr: str, name: str, kind) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            label = getattr(owner, "__qualname__", getattr(owner, "__name__"))
            raise MissingTarget(f"{label}.{attr} no longer exists; the "
                                f"{name} layer would go unmeasured")
        if isinstance(raw, classmethod):
            new = classmethod(kind(self.tracer, name, raw.__func__))
        else:
            new = kind(self.tracer, name, raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))
        if isinstance(owner, ModuleType):
            # Callers that imported the function by name look it up in
            # their own module: re-point those aliases as well.
            for module in list(sys.modules.values()):
                if (module is not owner and isinstance(module, ModuleType)
                        and module.__name__.split(".")[0] in ("repro",
                                                              "perfbench")
                        and vars(module).get(attr) is raw):
                    setattr(module, attr, new)
                    self._undo.append((module, attr, raw))

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
