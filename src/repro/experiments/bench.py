"""``repro bench``: the repository's performance trajectory, as data.

Times five things and writes them to ``BENCH_protozoa.json``:

* **trace prewarm** — packing every workload trace the sweeps replay
  into the (scratch) trace cache, once per recipe;
* **cold sweep, serial** — the (workload x protocol) matrix through the
  experiment engine with one job and an empty result cache;
* **cold sweep, parallel / warm sweep** — the same matrix fanned out over
  the worker pool into a second empty cache, then replayed against that
  now-populated cache (a warm sweep must be 100% cache hits);
* **single-run microbenchmark** — accesses/second through one simulation
  (the coherence transaction hot path, packed replay);
* **observability overhead** — the same microbenchmark with ``repro.obs``
  forced off and then fully on.  The timed sweeps always run with
  ``REPRO_OBS`` popped from the environment, so the numbers above measure
  the simulator, not the tracer; the off/on comparison quantifies the
  tracing tax and checks that disabled observability leaves no artifacts
  and that enabling it changes no counter (the zero-cost-when-off and
  parity guarantees of docs/observability.md).  Both timed phases pin
  ``REPRO_BATCH=0``: only a scalar-vs-scalar comparison isolates the
  tracing tax from the batching win.  The section also records the
  ``batch_obs`` parity map: with observability attached, batched
  execution must reproduce the scalar obs path's RunStats *and* metric
  dumps byte-for-byte for every protocol, and must actually engage (the
  event trace's ``batched`` counter is nonzero);
* **batch execution** — the microbenchmark with the batched issue loop
  (:mod:`repro.system.batch`) forced off and then on, plus a
  scalar-vs-batched counter comparison for every protocol (the
  bit-identity guarantee ``repro bench --assert-batch-identical``
  gates on).

Schema 3 added a ``phases`` section (trace prewarm, worker-pool warm-up,
and the simulate/flush split of one observed run, from
:class:`repro.obs.timers.PhaseTimers`) and the ``obs_overhead`` section.
Schema 4 added the ``batch`` section and records ``parallel_speedup`` as
``null`` when the sweep ran with a single job (a 1-job "speedup" is
process noise, not fan-out performance).  Schema 5 adds
``obs_overhead.batch_obs`` — the batch-with-observability identity and
engagement maps gated by ``--assert-batch-identical`` and the new
``--assert-obs-overhead PCT`` threshold on ``overhead_pct``.  Schema 6
drops ``single_run``'s comparison with a recorded baseline
(``baseline_accesses_per_sec``, ``improvement_pct``).

Sweeps run against *scratch* result and trace caches, so the serial and
parallel phases both replay prebuilt packed traces and differ only in
fan-out; worker-pool start-up happens before the clock starts (it is a
per-process cost, not a per-sweep one).  Each sweep phase records the
worker count it actually used.

``--quick`` shrinks the matrix for CI smoke runs; ``--assert-warm`` fails
the invocation unless the warm sweep never missed the cache *and* (with
more than one job) the cold parallel sweep kept up with serial —
``--min-parallel-speedup`` sets that bar (default 1.0).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.common.params import ProtocolKind
from repro.experiments._engine import (
    ExperimentEngine,
    ResultCache,
    RunSpec,
    default_jobs,
    execute_spec,
)
from repro.experiments.runner import ALL_PROTOCOLS
from repro.store import FsStore
from repro.trace._cache import TraceCache

BENCH_SCHEMA = 6

#: Microbenchmark recipe of the single-run, batch and observability phases.
MICROBENCH = RunSpec(workload="kmeans", protocol=ProtocolKind.PROTOZOA_MW,
                     cores=16, per_core=2000, seed=0)

QUICK_WORKLOADS = ("kmeans", "histogram")
FULL_WORKLOADS = ("kmeans", "histogram", "fft", "blackscholes")


def matrix_specs(workloads, cores: int, per_core: int, seed: int = 0) -> List[RunSpec]:
    return [RunSpec(workload=name, protocol=protocol, cores=cores,
                    per_core=per_core, seed=seed)
            for name in workloads for protocol in ALL_PROTOCOLS]


def prewarm_traces(specs: List[RunSpec]) -> Dict:
    """Pack every distinct trace recipe the specs replay; returns timing."""
    recipes = sorted({(s.workload, s.cores, s.per_core, s.seed) for s in specs})
    cache = TraceCache()
    start = time.perf_counter()
    for workload, cores, per_core, seed in recipes:
        cache.get_or_build(workload, cores=cores, per_core=per_core, seed=seed)
    return {
        "seconds": time.perf_counter() - start,
        "traces": len(recipes),
        "built": cache.built,
    }


def time_sweep(specs: List[RunSpec], jobs: int, cache_root: Path,
               journal=None) -> Dict:
    """One engine sweep against ``cache_root``; returns timing + cache stats.

    The worker pool is warmed *before* the clock starts: pool start-up is
    paid once per engine, and the sweep time should measure throughput,
    not process creation.  An optional sweep journal records completions
    for crash-resume (``repro bench --journal/--resume``).
    """
    engine = ExperimentEngine(jobs=jobs,
                              cache=ResultCache(store=FsStore(cache_root),
                                                enabled=True),
                              journal=journal)
    try:
        pool_start = time.perf_counter()
        pool = engine.warm_pool()
        if pool is not None:
            # The executor forks its workers on first submit: start them
            # all here, so the sweep's clock times none of that.
            for future in [pool.submit(os.getpid) for _ in range(engine.jobs)]:
                future.result()
        pool_warm = time.perf_counter() - pool_start
        start = time.perf_counter()
        results = engine.run_many(specs)
        elapsed = time.perf_counter() - start
    finally:
        engine.close()
    return {
        "seconds": elapsed,
        "pool_warm_s": pool_warm,
        "jobs": engine.jobs,
        "cells": len(results),
        "cache_hits": engine.cache.hits,
        "simulated": engine.executed,
    }


def time_single_run(spec: RunSpec, repeats: int) -> Dict:
    """Best-of-``repeats`` accesses/second through one simulation."""
    best = 0.0
    accesses = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_spec(spec)
        elapsed = time.perf_counter() - start
        accesses = result.stats.accesses
        best = max(best, accesses / elapsed)
    return {
        "workload": spec.workload,
        "protocol": spec.protocol.value,
        "cores": spec.cores,
        "per_core": spec.per_core,
        "repeats": repeats,
        "accesses": accesses,
        "accesses_per_sec": round(best, 1),
    }


def measure_batch(spec: RunSpec, repeats: int) -> Dict:
    """The batched issue loop's effect, and the guarantee behind it.

    Times the microbenchmark with ``REPRO_BATCH=0`` and then ``=1``, and
    compares scalar against batched counters for every protocol on a
    small differential shape — batch execution must be bit-identical,
    not merely close (``repro bench --assert-batch-identical`` gates on
    the ``identical`` map recorded here).
    """
    from repro.common.params import SystemConfig
    from repro.system.batch import ENV_FLAG
    from repro.system.machine import simulate
    from repro.trace._cache import packed_streams

    old = os.environ.get(ENV_FLAG)
    try:
        rates = {}
        for setting in ("0", "1"):
            os.environ[ENV_FLAG] = setting
            best = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                result = execute_spec(spec)
                best = max(best,
                           result.stats.accesses / (time.perf_counter() - start))
            rates[setting] = best
    finally:
        if old is None:
            os.environ.pop(ENV_FLAG, None)
        else:
            os.environ[ENV_FLAG] = old
    identical = {}
    streams = packed_streams(spec.workload, cores=8, per_core=400,
                             seed=spec.seed)
    for protocol in ALL_PROTOCOLS:
        config = SystemConfig(protocol=protocol, cores=8)
        scalar = simulate(streams, config, batch=False).stats.to_dict()
        batched = simulate(streams, config, batch=True).stats.to_dict()
        identical[protocol.value] = scalar == batched
    off, on = rates["0"], rates["1"]
    return {
        "off_accesses_per_sec": round(off, 1),
        "on_accesses_per_sec": round(on, 1),
        "speedup": round(on / off, 2) if off else None,
        "identical": identical,
        "all_identical": all(identical.values()),
    }


def measure_batch_obs(spec: RunSpec) -> Dict:
    """Batch + observability parity, for every protocol.

    With an obs session attached, the batched issue loop must reproduce
    the scalar obs path exactly: identical ``RunStats`` *and* a
    byte-identical metric dump (the scratch-slot deltas the batch runner
    folds in bulk land in the same series the scalar hot path
    increments).  ``engaged`` proves batching actually ran (the event
    trace counted bulk-executed hits) rather than silently declining.
    """
    from repro.common.params import SystemConfig
    from repro.system.machine import simulate
    from repro.trace._cache import packed_streams

    streams = packed_streams(spec.workload, cores=8, per_core=400,
                             seed=spec.seed)
    identical = {}
    engaged = {}
    for protocol in ALL_PROTOCOLS:
        config = SystemConfig(protocol=protocol, cores=8)
        scalar = simulate(streams, config, obs=True, batch=False)
        batched = simulate(streams, config, obs=True, batch=True)
        identical[protocol.value] = (
            scalar.stats.to_dict() == batched.stats.to_dict()
            and json.dumps(scalar.metrics, sort_keys=True)
                == json.dumps(batched.metrics, sort_keys=True))
        engaged[protocol.value] = batched.obs.events.batched > 0
    return {
        "identical": identical,
        "all_identical": all(identical.values()),
        "engaged": engaged,
        "all_engaged": all(engaged.values()),
    }


def measure_obs_overhead(spec: RunSpec, repeats: int) -> Dict:
    """The tracing tax, and the guarantees behind it.

    Runs the microbenchmark with ``REPRO_OBS`` absent (the default) and
    then set, timing both, and checks:

    * **disabled is a no-op** — the unobserved run carries no obs
      session, no metrics, and serializes without a ``metrics`` key;
    * **parity** — full tracing changes no simulation counter;
    * **batch_obs** — batched execution with obs attached byte-matches
      the scalar obs path (see :func:`measure_batch_obs`).

    Both timed phases pin ``REPRO_BATCH=0``: batching now composes with
    observability, so only a scalar-vs-scalar comparison isolates the
    tracing tax from the batching win.
    """
    from repro.system.batch import ENV_FLAG

    # overhead_pct is a ratio of two best-of timings and gates CI at a
    # 10% budget, so the measurement is hardened against shared-runner
    # noise three ways.  The off/on repeats are *interleaved* (off, on,
    # off, on, ...) rather than run as two sequential blocks: machine
    # load swings last longer than one ~0.3s run, and a block design
    # lets a swing land entirely on one side of the ratio.  Both phases
    # are timed with ``time.process_time`` (CPU time): the tracing tax
    # *is* CPU work, and CPU time ignores the preemption that dominates
    # wall-clock jitter on busy hosts (virtualized steal still leaks
    # in).  And sampling is *adaptive*: best-of estimates the noise
    # floor, which a fixed sample count can miss entirely when a
    # contention burst covers every run of one side, so after the
    # mandatory repeats we keep interleaving pairs — up to a 4x budget —
    # until the running ratio converges below the gate's headroom.
    repeats = max(repeats, 8)
    converged = 1.08   # stop early once overhead < 8%, under the 10% gate
    old = os.environ.pop("REPRO_OBS", None)
    old_batch = os.environ.get(ENV_FLAG)
    os.environ[ENV_FLAG] = "0"
    try:
        off_rate = on_rate = 0.0
        for attempt in range(repeats * 4):
            os.environ.pop("REPRO_OBS", None)
            start = time.process_time()
            off_result = execute_spec(spec)
            off_rate = max(off_rate,
                           off_result.stats.accesses / (time.process_time() - start))
            os.environ["REPRO_OBS"] = "1"
            start = time.process_time()
            on_result = execute_spec(spec)
            on_rate = max(on_rate,
                          on_result.stats.accesses / (time.process_time() - start))
            if attempt + 1 >= repeats and off_rate <= on_rate * converged:
                break
        noop = (off_result.obs is None and off_result.metrics is None
                and "metrics" not in off_result.to_dict())
        parity = on_result.stats.to_dict() == off_result.stats.to_dict()
    finally:
        if old is None:
            os.environ.pop("REPRO_OBS", None)
        else:
            os.environ["REPRO_OBS"] = old
        if old_batch is None:
            os.environ.pop(ENV_FLAG, None)
        else:
            os.environ[ENV_FLAG] = old_batch
    return {
        "disabled_accesses_per_sec": round(off_rate, 1),
        "enabled_accesses_per_sec": round(on_rate, 1),
        "overhead_pct": (round(100.0 * (off_rate / on_rate - 1.0), 1)
                         if on_rate else None),
        "disabled_is_noop": noop,
        "counters_identical": parity,
        "batch_obs": measure_batch_obs(spec),
        "phase_seconds": dict(on_result.phase_seconds or {}),
    }


def run_bench(quick: bool = False, jobs: Optional[int] = None,
              out_path: str = "BENCH_protozoa.json",
              journal_path: Optional[str] = None,
              resume: bool = False) -> Dict:
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if quick:
        # per_core=500 keeps the timed region long enough (~0.5s serial)
        # that the parallel-speedup guard is not dominated by timer noise.
        workloads, cores, per_core, repeats = QUICK_WORKLOADS, 8, 500, 3
    else:
        workloads, cores, per_core, repeats = FULL_WORKLOADS, 16, 1000, 5
    specs = matrix_specs(workloads, cores=cores, per_core=per_core)

    # With a journal the sweep state must survive a crash: use a
    # persistent scratch beside the journal (kept across invocations so
    # --resume serves completed cells as cache hits) instead of a
    # throwaway tempdir.
    journal = None
    if journal_path:
        from repro.resilience.journal import SweepJournal

        journal = SweepJournal(journal_path)
        scratch = Path(journal_path).resolve().parent / "bench-scratch"
        scratch.mkdir(parents=True, exist_ok=True)
        keep_scratch = True
    else:
        scratch = Path(tempfile.mkdtemp(prefix="repro-bench-"))
        keep_scratch = False
    old_trace_dir = os.environ.get("REPRO_TRACE_CACHE_DIR")
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(scratch / "traces")
    # Observability must not leak into the timed sweeps: an ambient
    # REPRO_OBS=1 would tax every run (and every pool worker).
    # measure_obs_overhead() re-enables it deliberately, inside its own
    # timed region.
    old_obs = os.environ.pop("REPRO_OBS", None)
    try:
        resumed = len(journal) if journal is not None else 0
        prewarm = prewarm_traces(specs + [MICROBENCH])
        serial_cold = time_sweep(specs, jobs=1, cache_root=scratch / "serial",
                                 journal=journal)
        parallel_cold = time_sweep(specs, jobs=jobs,
                                   cache_root=scratch / "parallel",
                                   journal=journal)
        warm = time_sweep(specs, jobs=jobs, cache_root=scratch / "parallel",
                          journal=journal)
        single = time_single_run(MICROBENCH, repeats=repeats)
        batch = measure_batch(MICROBENCH, repeats=repeats)
        obs_overhead = measure_obs_overhead(MICROBENCH, repeats=repeats)
    finally:
        if old_trace_dir is None:
            os.environ.pop("REPRO_TRACE_CACHE_DIR", None)
        else:
            os.environ["REPRO_TRACE_CACHE_DIR"] = old_trace_dir
        if old_obs is not None:
            os.environ["REPRO_OBS"] = old_obs
        if journal is not None:
            journal.close()
        if not keep_scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "jobs": jobs,
        "matrix": {
            "workloads": list(workloads),
            "protocols": [p.value for p in ALL_PROTOCOLS],
            "cores": cores,
            "per_core": per_core,
            "cells": len(specs),
        },
        "sweep": {
            "trace_prewarm_s": round(prewarm["seconds"], 3),
            "traces_packed": prewarm["built"],
            "serial_cold_s": round(serial_cold["seconds"], 3),
            "serial_jobs": serial_cold["jobs"],
            "parallel_cold_s": round(parallel_cold["seconds"], 3),
            "parallel_jobs": parallel_cold["jobs"],
            "warm_s": round(warm["seconds"], 3),
            "warm_jobs": warm["jobs"],
            # A 1-job "parallel" sweep measures process noise, not
            # fan-out: the comparison only exists with a real pool.
            "parallel_speedup": round(
                serial_cold["seconds"] / parallel_cold["seconds"], 2)
                if parallel_cold["jobs"] > 1 else None,
            "warm_speedup_vs_cold": round(
                parallel_cold["seconds"] / warm["seconds"], 2)
                if warm["seconds"] else None,
            "warm_cache_hits": warm["cache_hits"],
            "warm_simulated": warm["simulated"],
            "warm_all_hits": warm["cache_hits"] == len(specs)
                             and warm["simulated"] == 0,
        },
        "phases": {
            "trace_prewarm_s": round(prewarm["seconds"], 3),
            "warm_pool_s": round(parallel_cold["pool_warm_s"], 3),
            "simulate_s": round(
                obs_overhead["phase_seconds"].get("simulate", 0.0), 3),
            "flush_s": round(
                obs_overhead["phase_seconds"].get("flush", 0.0), 3),
        },
        "single_run": single,
        "batch": batch,
        "obs_overhead": {k: v for k, v in obs_overhead.items()
                         if k != "phase_seconds"},
    }
    if journal is not None:
        report["journal"] = {
            "path": str(journal.path),
            "resume": resume,
            "resumed": resumed,
            "completed": len(journal),
            "recorded": journal.recorded,
        }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def render(report: Dict) -> str:
    sweep = report["sweep"]
    single = report["single_run"]
    lines = [
        f"matrix: {report['matrix']['cells']} cells "
        f"({len(report['matrix']['workloads'])} workloads x "
        f"{len(report['matrix']['protocols'])} protocols), "
        f"{report['matrix']['cores']} cores x "
        f"{report['matrix']['per_core']} accesses",
        f"trace prewarm:          {sweep['trace_prewarm_s']:8.3f}s  "
        f"({sweep['traces_packed']} packed traces)",
        f"cold sweep (serial):    {sweep['serial_cold_s']:8.3f}s  "
        f"({sweep['serial_jobs']} job)",
        f"cold sweep (parallel):  {sweep['parallel_cold_s']:8.3f}s  "
        f"({sweep['parallel_jobs']} jobs, "
        + (f"{sweep['parallel_speedup']}x vs serial)"
           if sweep["parallel_speedup"] is not None
           else "serial fallback - no speedup to compare)"),
        f"warm sweep:             {sweep['warm_s']:8.3f}s  "
        f"({sweep['warm_speedup_vs_cold']}x vs cold, "
        f"{sweep['warm_cache_hits']}/{report['matrix']['cells']} cache hits)",
        f"single run:             {single['accesses_per_sec']:,.0f} accesses/s "
        f"({single['workload']}/{single['protocol']})",
    ]
    phases = report.get("phases")
    if phases:
        lines.append(
            f"phases:                 prewarm {phases['trace_prewarm_s']}s, "
            f"pool {phases['warm_pool_s']}s, "
            f"simulate {phases['simulate_s']}s, flush {phases['flush_s']}s")
    batch = report.get("batch")
    if batch:
        lines.append(
            f"batch execution:        "
            f"{batch['on_accesses_per_sec']:,.0f} accesses/s batched vs "
            f"{batch['off_accesses_per_sec']:,.0f} scalar "
            f"({batch['speedup']}x), "
            f"identical={'yes' if batch['all_identical'] else 'NO'}")
    obs = report.get("obs_overhead")
    if obs:
        overhead = obs["overhead_pct"]
        lines.append(
            f"observability:          "
            f"{obs['enabled_accesses_per_sec']:,.0f} accesses/s traced "
            f"({overhead:+.1f}% vs off), "
            f"noop-off={'yes' if obs['disabled_is_noop'] else 'NO'}, "
            f"parity={'yes' if obs['counters_identical'] else 'NO'}")
        batch_obs = obs.get("batch_obs")
        if batch_obs:
            lines.append(
                f"batch + observability:  "
                f"identical={'yes' if batch_obs['all_identical'] else 'NO'}, "
                f"engaged={'yes' if batch_obs['all_engaged'] else 'NO'}")
    return "\n".join(lines)
