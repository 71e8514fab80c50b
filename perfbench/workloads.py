"""The three workloads, each as a timed (untraced) run and a traced run.

Every cell goes through the calls users make: ``ExperimentEngine`` +
``ResultMatrix`` + ``write_report`` (report-cold), ``repro.api.simulate``
(replay-hits), and ``ServiceClient`` + ``HttpStore`` against a
``repro serve`` subprocess (service-mixed).  Every pass starts from
empty modelled L1/L2 caches (every simulation does) and from fresh,
empty result, trace and service directories.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import hermetic
from perfbench.golden import Checker, cell_key, digest
from perfbench.spec import REPLAY_CELLS, Scale
from perfbench.tracer import Installation, Tracer

RUN_PY = Path(__file__).with_name("run.py")
#: ``repro submit --wait``'s poll interval (its ``--poll`` default).
POLL_S = 0.2
CHILD_TIMEOUT_S = 120.0
#: EXPERIMENTS.md's paper values for the nine headline geomeans vs MESI.
PAPER = {
    "traffic": {"SW": 0.74, "SW+MR": 0.66, "MW": 0.63},
    "mpki": {"SW": 0.81, "SW+MR": 0.64, "MW": 0.64},
    "flit_hops": {"SW": 0.67, "SW+MR": 0.62, "MW": 0.51},
}

now = time.perf_counter


@dataclass
class Outcome:
    """What one run measured."""

    setup_s: List[float] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    peak_rss_mb: List[float] = field(default_factory=list)
    accesses_per_pass: int = 0
    latencies_s: Dict[str, List[float]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    # traced run only
    tracer: Optional[Tracer] = None
    traced_wall_s: float = 0.0
    untraced_wall_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)


def counter_sum(counters: Dict[str, float], name: str, **labels) -> float:
    """Sum of one counter's series, optionally only those whose labels
    include ``labels``."""
    from repro.obs.metrics import parse_series_key

    total = 0
    for key, value in counters.items():
        series, found = parse_series_key(key)
        if series == name and all(found.get(k) == v
                                  for k, v in labels.items()):
            total += value
    return total


def _process_counter(name: str, **labels) -> float:
    from repro.obs.metrics import process_registry

    return counter_sum(process_registry().counters(), name, **labels)


# -- report-cold ---------------------------------------------------------------

def report_specs(scale: Scale, seed: int) -> list:
    """The 224 cells ``repro report`` consumes (4 protocols + Table 1's
    four MESI block sizes per workload)."""
    return _report_cells(_report_settings(scale, seed).workload_names(),
                         scale.report_cores, scale.report_per_core, seed)


def _report_cells(names, cores: int, per_core: int, seed: int) -> list:
    from repro.common.params import ProtocolKind
    from repro.experiments._engine import RunSpec
    from repro.experiments.runner import ALL_PROTOCOLS
    from repro.experiments.table1 import BLOCK_SIZES

    cells = [(p, None) for p in ALL_PROTOCOLS]
    cells += [(ProtocolKind.MESI, block) for block in BLOCK_SIZES]
    return [RunSpec(name, protocol, block, cores, per_core, seed)
            for name in names for protocol, block in cells]


def _report_settings(scale: Scale, seed: int):
    from repro.experiments.runner import ExperimentSettings

    return ExperimentSettings(cores=scale.report_cores,
                              per_core=scale.report_per_core, seed=seed,
                              workloads=scale.report_workloads)


def model_gap_pct(matrix) -> float:
    from repro.experiments import fig9_traffic, fig13_mpki, fig15_energy

    measured = {"traffic": fig9_traffic.summary(matrix),
                "mpki": fig13_mpki.reduction_summary(matrix),
                "flit_hops": fig15_energy.summary(matrix)}
    gaps = [abs(measured[kind][proto] - paper) / paper
            for kind, row in PAPER.items() for proto, paper in row.items()]
    return 100.0 * sum(gaps) / len(gaps)


def report_pass(seed: int, scale: Scale, root: Path) -> Dict:
    """One cold ``repro report`` in this fresh process (the child side of
    :func:`run_report_cold`); returns what the parent records."""
    import multiprocessing

    from repro.experiments._engine import ExperimentEngine
    from repro.experiments.report import write_report
    from repro.experiments.runner import ResultMatrix

    engine = ExperimentEngine()
    pool = engine.warm_pool()
    if pool is not None:
        # warm_pool() creates the executor but no worker process until the
        # first submit: start every worker here, inside set-up.
        for future in [pool.submit(os.getpid) for _ in range(engine.jobs)]:
            future.result()
        if len(multiprocessing.active_children()) != engine.jobs:
            raise RuntimeError("pool workers did not all start")
    ready = time.monotonic()
    matrix = ResultMatrix(_report_settings(scale, seed), engine)
    with open(root / "report.txt", "w", encoding="utf-8") as out:
        start = now()
        write_report(matrix, out=out)
        wall = now() - start
    # Workers are alive until close(): read their peak RSS now.
    rss = hermetic.peak_rss_mb(
        [os.getpid()] + [p.pid for p in multiprocessing.active_children()])
    resilience = {
        "warnings": _process_counter("repro_resilience_warnings_total"),
        "engine_retries": counter_sum(engine.metrics.counters(),
                                      "repro_engine_retries_total"),
        "pool_rebuilds": engine.pool_rebuilds,
    }
    engine.close()
    hermetic.reap_children()
    digests, accesses = {}, 0
    for spec in report_specs(scale, seed):
        result = matrix.run(spec.workload, spec.protocol, spec.block_bytes)
        digests[cell_key(spec)] = digest(result.stats.to_dict())
        accesses += result.stats.accesses
    return {"ready": ready, "wall_s": wall, "peak_rss_mb": rss,
            "digests": digests, "accesses": accesses,
            "model_gap_pct": model_gap_pct(matrix), "resilience": resilience}


def _run_child(args: List[str], root: Path) -> Dict:
    """Run ``run.py --child ...`` in its own session; kill the whole
    group (pool workers included) if it overruns."""
    proc = subprocess.Popen([sys.executable, str(RUN_PY)] + args,
                            env=hermetic.child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {stderr.strip()[-800:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_report_cold(seed: int, seconds: float, scale: Scale,
                    checker: Checker) -> Outcome:
    out = Outcome()
    specs = report_specs(scale, seed)
    resilience: Dict[str, float] = {}
    deadline = now() + seconds
    passes = 0
    while passes == 0 or now() < deadline:
        passes += 1
        root = hermetic.scratch("report-cold")
        spawned = time.monotonic()
        try:
            figures = _run_child(["--child", "report-cold", "--seed",
                                  str(seed), "--scale", scale.name,
                                  "--scratch", str(root)], root)
        except (RuntimeError, ValueError, IndexError,
                subprocess.TimeoutExpired) as exc:
            checker.fail(f"report pass {passes}: {exc}", n=len(specs))
            continue
        finally:
            shutil.rmtree(root, ignore_errors=True)
        out.setup_s.append(figures["ready"] - spawned)
        out.wall_s.append(figures["wall_s"])
        out.peak_rss_mb.append(figures["peak_rss_mb"])
        for spec in specs:
            checker.observe_digest(spec, figures["digests"].get(
                cell_key(spec), "missing"))
        out.accesses_per_pass = figures["accesses"]
        out.notes["model_gap_pct"] = figures["model_gap_pct"]
        for key, value in figures["resilience"].items():
            resilience[key] = resilience.get(key, 0) + value
    out.notes["resilience"] = resilience
    return out


def traced_report_cold(seed: int, scale: Scale, checker: Checker,
                       tracer: Tracer) -> Outcome:
    """One untraced and one traced cold report, both serial in-process."""
    from repro.experiments import report as report_module
    from repro.experiments._engine import ExperimentEngine
    from repro.experiments.runner import ResultMatrix

    out = Outcome(tracer=tracer)
    warnings = _process_counter("repro_resilience_warnings_total")
    # A one-workload report first, so that neither measured pass pays the
    # lazy imports a first report in a process does.
    warm = dataclasses.replace(scale, report_workloads=("histogram",),
                               report_per_core=10)
    for traced in (None, False, True):
        pass_scale = warm if traced is None else scale
        root = hermetic.scratch("report-cold-traced")
        hermetic.point_caches(os.environ, root)
        engine = ExperimentEngine(jobs=1)
        matrix = ResultMatrix(_report_settings(pass_scale, seed), engine)
        try:
            with open(root / "report.txt", "w", encoding="utf-8") as fh:
                if traced:
                    tracer.run = 1
                    with Installation(tracer):
                        start = now()
                        report_module.write_report(matrix, out=fh)
                        out.traced_wall_s = now() - start
                else:
                    start = now()
                    report_module.write_report(matrix, out=fh)
                    if traced is False:
                        out.untraced_wall_s = now() - start
            for spec in report_specs(pass_scale, seed):
                checker.observe(spec, matrix.run(
                    spec.workload, spec.protocol,
                    spec.block_bytes).stats.to_dict())
        finally:
            shutil.rmtree(root, ignore_errors=True)
    hits, misses = engine.cache.hits, engine.cache.misses
    out.layers.update({
        "experiments.executed": engine.executed,
        "experiments.cache_hit_ratio": _ratio(hits, hits + misses),
        "resilience.warnings": _process_counter(
            "repro_resilience_warnings_total") - warnings,
        "resilience.engine_retries": counter_sum(
            engine.metrics.counters(), "repro_engine_retries_total"),
        "resilience.pool_rebuilds": engine.pool_rebuilds,
    })
    return out


# -- replay-hits -----------------------------------------------------------------

def replay_specs(scale: Scale, seed: int) -> list:
    from repro.api import RunSpec, parse_protocol

    return [RunSpec(workload, parse_protocol(protocol), None,
                    scale.replay_cores, scale.replay_per_core,
                    seed * scale.replay_seeds + k)
            for workload, protocol in REPLAY_CELLS
            for k in range(scale.replay_seeds)]


def _build_traces(specs: list) -> list:
    from repro import api
    from repro.trace.packed import PackedTrace

    return [PackedTrace.from_streams(api.build_streams(
        spec.workload, cores=spec.cores, per_core=spec.per_core,
        seed=spec.seed)) for spec in specs]


def _replay_pass(specs: list, traces: list) -> Tuple[float, list]:
    from repro import api

    start = now()
    results = [api.simulate(trace, spec.config(), name=spec.workload)
               for spec, trace in zip(specs, traces)]
    return now() - start, results


class SetupSchedule:
    """When a run's later set-ups are due: evenly over the measured window.

    A burst of set-ups at the start of a run samples the host for a few
    seconds; spread out, their median samples it over the whole run, as
    the passes' median does.
    """

    def __init__(self, count: int, seconds: float):
        start = now()
        self.due = [start + seconds * i / count for i in range(1, count)]

    def take(self) -> bool:
        if self.due and now() >= self.due[0]:
            self.due.pop(0)
            return True
        return False


def _miss_ratios(specs: list, results: list) -> Dict[str, float]:
    return {cell_key(spec): r.stats.misses / max(1, r.stats.accesses)
            for spec, r in zip(specs, results)}


def run_replay_hits(seed: int, seconds: float, scale: Scale,
                    checker: Checker) -> Outcome:
    out = Outcome()
    specs = replay_specs(scale, seed)
    start = now()
    traces = _build_traces(specs)
    out.setup_s.append(now() - start)
    schedule = SetupSchedule(scale.setups, seconds)
    deadline = now() + seconds
    while not out.wall_s or now() < deadline:
        # Each pass starts from a collected heap holding no earlier pass's
        # results, as the first pass in a fresh process would.
        results = None
        gc.collect()
        if schedule.take():
            # Later set-ups are timed and their traces dropped: every pass
            # replays the first set-up's (derived columns memoized).
            start = now()
            _build_traces(specs)
            out.setup_s.append(now() - start)
            gc.collect()
        try:
            wall, results = _replay_pass(specs, traces)
        except Exception as exc:  # noqa: BLE001 — counted, run goes on
            checker.fail(f"replay pass: {exc!r}", n=len(specs))
            break
        out.wall_s.append(wall)
        for spec, result in zip(specs, results):
            checker.observe(spec, result.stats.to_dict())
        out.accesses_per_pass = sum(r.stats.accesses for r in results)
        out.notes["miss_ratio"] = _miss_ratios(specs, results)
    out.peak_rss_mb.append(hermetic.peak_rss_mb([os.getpid()]))
    return out


def traced_replay_hits(seed: int, scale: Scale, checker: Checker,
                       tracer: Tracer) -> Outcome:
    """Untraced: set-up, warm pass, timed pass.  Traced: set-up (run 0),
    an untraced warm pass (the derived columns are memoized per trace,
    as in every timed pass but the first), then the traced pass (run 1)."""
    out = Outcome(tracer=tracer)
    warnings = _process_counter("repro_resilience_warnings_total")
    specs = replay_specs(scale, seed)
    traces = _build_traces(specs)
    _replay_pass(specs, traces)
    out.untraced_wall_s, results = _replay_pass(specs, traces)
    tracer.run = 0
    with Installation(tracer):
        start = now()
        traces = _build_traces(specs)
        setup = now() - start
    _replay_pass(specs, traces)
    tracer.run = 1
    with Installation(tracer):
        wall, results = _replay_pass(specs, traces)
    out.traced_wall_s = setup + wall
    out.notes["traced_pass_s"] = wall
    for spec, result in zip(specs, results):
        checker.observe(spec, result.stats.to_dict())
    out.notes["miss_ratio"] = _miss_ratios(specs, results)
    # A traced pass is compared with an untraced pass (set-up excluded).
    out.notes["overhead"] = wall / out.untraced_wall_s - 1
    out.layers.update({"experiments.executed": 0,
                       "experiments.cache_hit_ratio": 0.0,
                       "resilience.warnings": _process_counter(
                           "repro_resilience_warnings_total") - warnings,
                       "resilience.engine_retries": 0,
                       "resilience.pool_rebuilds": 0})
    return out


# -- service-mixed -----------------------------------------------------------------

def service_specs(scale: Scale, seed: int) -> list:
    """The report's cells at the service scale, in a seeded order: each
    fresh sweep asks for one the service has not seen."""
    specs = _report_cells(_report_settings(scale, seed).workload_names(),
                          scale.service_cores, scale.service_per_core, seed)
    random.Random(seed).shuffle(specs)
    return specs


class Server:
    """One ``repro serve`` subprocess with its own empty state tree."""

    def __init__(self):
        self.root = hermetic.scratch("service")
        spawned = time.monotonic()
        with open(self.root / "serve.log", "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--state-dir", str(self.root / "service")],
                env=hermetic.child_env(self.root), stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.url = match.group(1)
            self._wait_healthy(spawned)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _wait_healthy(self, spawned: float) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, timeout_s=30)
        while True:
            try:
                if client.health().get("ok"):
                    return
            except OSError:
                if time.monotonic() - spawned > 60:
                    raise
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (a clean drain), then SIGKILL the group if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _rounds(server: Server, cells: list, seed: int, checker: Checker,
            out: Outcome, deadline: Optional[float] = None,
            tracer: Optional[Tracer] = None,
            between: Optional[Callable[[], None]] = None) -> int:
    """Closed-loop rounds of fresh sweep, cached re-submission and blob
    get; one request in flight at a time; ``between`` runs after each
    round.  Returns rounds completed."""
    from repro.experiments._engine import ResultCache
    from repro.service.client import ServiceClient
    from repro.store.http import HttpStore
    from repro.system.results import RunResult

    client = ServiceClient(server.url, timeout_s=60)
    store = HttpStore(server.url)
    rng = random.Random(seed)
    done: list = []
    lat = out.latencies_s
    for kind in ("fresh", "cached", "blob_get"):
        lat.setdefault(kind, [])
    rounds = 0
    for spec in cells:
        if deadline is not None and rounds and now() > deadline:
            break
        rounds += 1
        if tracer is not None:
            tracer.run = rounds
        times = []
        for kind in ("fresh", "cached", "blob_get"):
            target = spec if kind == "fresh" else (
                done[rng.randrange(len(done))] if done else None)
            if target is None:
                continue
            try:
                start = now()
                if kind == "blob_get":
                    raw = store.get(ResultCache.key_for(target))
                    seconds = now() - start
                    if raw is None:
                        raise KeyError("result blob missing")
                    result = RunResult.from_dict(json.loads(raw))
                else:
                    result = client.sweep([target], poll_s=POLL_S)[target]
                    seconds = now() - start
            except Exception as exc:  # noqa: BLE001 — counted, loop goes on
                checker.fail(f"{kind} {cell_key(target)}: {exc!r}")
                continue
            checker.observe(target, result.stats.to_dict())
            lat[kind].append(seconds)
            times.append(seconds)
            if kind == "fresh":
                done.append(spec)
                out.accesses_per_pass = result.stats.accesses
        if len(times) == 3:
            out.wall_s.append(sum(times))
        if between is not None:
            between()
    return rounds


def run_service_mixed(seed: int, seconds: float, scale: Scale,
                      checker: Checker) -> Outcome:
    out = Outcome()
    cells = service_specs(scale, seed)
    server = Server()
    out.setup_s.append(server.setup_s)
    schedule = SetupSchedule(scale.setups, seconds)

    def spare_setup() -> None:
        # Later set-ups start a spare server between rounds and stop it.
        if schedule.take():
            spare = Server()
            out.setup_s.append(spare.setup_s)
            spare.stop()
    try:
        out.notes["rounds"] = _rounds(server, cells, seed, checker, out,
                                      deadline=now() + seconds,
                                      between=spare_setup)
        out.peak_rss_mb.append(
            hermetic.peak_rss_mb([os.getpid(), server.proc.pid]))
    finally:
        server.stop()
    return out


def traced_service_mixed(seed: int, scale: Scale, checker: Checker,
                         tracer: Tracer) -> Outcome:
    """The same rounds twice, each on a fresh server: untraced, then with
    the client traced and the server's counters read from ``metrics``,
    ``health`` and ``list_jobs``."""
    from repro.service.client import ServiceClient

    out = Outcome(tracer=tracer)
    cells = service_specs(scale, seed)[:scale.service_traced_rounds]
    base = Outcome()
    server = Server()
    try:
        start = now()
        _rounds(server, cells, seed, checker, base)
        out.untraced_wall_s = now() - start
    finally:
        server.stop()
    server = Server()
    try:
        client = ServiceClient(server.url, timeout_s=60)
        before = client.metrics()["counters"]
        cpu = hermetic.cpu_seconds(server.proc.pid)
        warnings = _process_counter("repro_resilience_warnings_total")
        retries = _process_counter("repro_store_retry_total",
                                   outcome="retried")
        with Installation(tracer):
            start = now()
            _rounds(server, cells, seed, checker, out, tracer=tracer)
            out.traced_wall_s = now() - start
        cpu = hermetic.cpu_seconds(server.proc.pid) - cpu
        after = client.metrics()["counters"]
        jobs = client.list_jobs()
    finally:
        server.stop()

    def delta(name: str) -> float:
        return counter_sum(after, name) - counter_sum(before, name)
    waits = [j["started_at"] - j["submitted_at"] for j in jobs
             if j.get("started_at") is not None]
    submits = tracer.notes.get("submits", 0)
    cached = tracer.notes.get("submits_cached", 0)
    out.layers.update({
        "experiments.executed": delta("repro_service_specs_executed_total"),
        "experiments.cache_hit_ratio": _ratio(
            delta("repro_service_cache_hits_total"), submits),
        "service.queue_wait_s": sum(waits),
        "service.cache_answered_share": _ratio(cached, submits),
        "service.server_cpu_s": cpu,
        "store.retries": _process_counter(
            "repro_store_retry_total", outcome="retried") - retries,
        "resilience.warnings": delta("repro_resilience_warnings_total") + (
            _process_counter("repro_resilience_warnings_total") - warnings),
        "resilience.engine_retries": delta("repro_engine_retries_total"),
        "resilience.pool_rebuilds": delta("repro_engine_pool_rebuilds_total"),
    })
    # The server simulates in its own process; the cell properties come
    # from replaying the same fresh cells here under a separate tracer.
    replay = Tracer()
    from repro import api
    with Installation(replay):
        for spec in cells:
            api.run(spec.workload, spec.protocol, cores=spec.cores,
                    per_core=spec.per_core, seed=spec.seed,
                    block_bytes=spec.block_bytes)
    out.notes["property_sims"] = replay.sims
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


TIMED = {"report-cold": run_report_cold, "replay-hits": run_replay_hits,
         "service-mixed": run_service_mixed}
TRACED = {"report-cold": traced_report_cold,
          "replay-hits": traced_replay_hits,
          "service-mixed": traced_service_mixed}
