"""``repro bench``: the three CI gates the repository benchmark lacks.

``perfbench/`` times a user's waits (a cold report, a hit-dominated
replay, the service) end to end and layer by layer.  ``repro bench``
keeps only the checks that need a real worker pool or a timed loop
that no perfbench workload provides, and enforces all three on every
run (:func:`gate_failures`):

* **warm sweep** — the (workload x protocol) matrix is swept into an
  empty result cache and then replayed against it; the replay must be
  100% cache hits (``sweep.warm_all_hits``);
* **fan-out** — with more than one job, the cold parallel sweep must
  reach :data:`MIN_PARALLEL_SPEEDUP` of the serial one
  (``sweep.parallel_speedup``, ``null`` with a single job: a 1-job
  "speedup" is process noise, not fan-out);
* **observability tax** — :data:`OBS_SPEC` with ``REPRO_OBS`` unset and
  then set: enabled observability must cost less than
  :data:`MAX_OBS_OVERHEAD_PCT` (``obs_overhead.overhead_pct``), leave
  no artifacts when off (``disabled_is_noop``) and change no counter
  (``counters_identical``) — the zero-cost-when-off and parity
  guarantees of docs/observability.md.

Batched ≡ scalar execution, with and without observability, is checked
by the unit tests (``tests/system/test_batch.py``,
``tests/obs/test_batch_obs_parity.py``) on every protocol.

Sweeps run against *scratch* result and trace caches, with every trace
packed before the first clock starts, so the serial and parallel sweeps
replay the same prebuilt bytes and differ only in fan-out; worker-pool
start-up also happens before the clock starts (it is a per-process
cost, not a per-sweep one).  The timed sweeps run with ``REPRO_OBS``
popped from the environment, so an ambient ``REPRO_OBS=1`` cannot tax
them.
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
)
from repro.experiments.runner import ALL_PROTOCOLS
from repro.store import FsStore
from repro.trace._cache import TraceCache, packed_streams

BENCH_SCHEMA = 7

#: The swept matrix.  It is sized by cells, not by accesses per core:
#: 500 accesses per core stays below ``MIN_EVENTS_PER_CORE``
#: (:mod:`repro.system.batch`), so every cell runs the scalar loop a
#: cold ``repro report`` runs, and 12 cells keep the serial sweep near
#: 0.5 s, long enough that timer noise does not decide the speedup.
WORKLOADS = ("kmeans", "histogram", "fft")
CORES = 8
PER_CORE = 500

#: The observability gate's recipe, simulated on the scalar loop so the
#: ratio isolates the tracing tax from any batching win.
OBS_SPEC = RunSpec(workload="kmeans", protocol=ProtocolKind.PROTOZOA_MW,
                   cores=16, per_core=2000, seed=0)

#: Gate bounds.
MIN_PARALLEL_SPEEDUP = 0.9
MAX_OBS_OVERHEAD_PCT = 10.0

#: Interleaved off/on pairs the observability gate takes: at least the
#: minimum, then more until the best-of ratio drops under
#: ``OBS_CONVERGED`` or the maximum is reached.
OBS_MIN_PAIRS = 8
OBS_MAX_PAIRS = 32
OBS_CONVERGED = 1.08


def matrix_specs(workloads, cores: int, per_core: int, seed: int = 0) -> List[RunSpec]:
    return [RunSpec(workload=name, protocol=protocol, cores=cores,
                    per_core=per_core, seed=seed)
            for name in workloads for protocol in ALL_PROTOCOLS]


def time_sweep(specs: List[RunSpec], jobs: int, cache_root: Path) -> Dict:
    """One engine sweep against ``cache_root``; returns timing + cache stats.

    The worker pool is warmed *before* the clock starts: pool start-up is
    paid once per engine, and the sweep time should measure throughput,
    not process creation.
    """
    engine = ExperimentEngine(jobs=jobs,
                              cache=ResultCache(store=FsStore(cache_root),
                                                enabled=True))
    try:
        pool = engine.warm_pool()
        if pool is not None:
            # The executor forks its workers on first submit: start them
            # all here, so the sweep's clock times none of that.
            for future in [pool.submit(os.getpid) for _ in range(engine.jobs)]:
                future.result()
        start = time.perf_counter()
        engine.run_many(specs)
        elapsed = time.perf_counter() - start
    finally:
        engine.close()
    return {
        "seconds": elapsed,
        "jobs": engine.jobs,
        "cache_hits": engine.cache.hits,
        "simulated": engine.executed,
    }


def _timed_scalar_run(spec: RunSpec):
    """Fetch ``spec``'s packed trace and simulate it on the scalar loop;
    returns the result and the CPU seconds both took."""
    from repro.system.machine import simulate

    start = time.process_time()
    trace = packed_streams(spec.workload, cores=spec.cores,
                           per_core=spec.per_core, seed=spec.seed)
    result = simulate(trace, spec.config(), name=spec.workload, batch=False)
    return result, time.process_time() - start


def measure_obs_overhead(spec: RunSpec) -> Dict:
    """The tracing tax, and the guarantees behind it.

    Simulates ``spec`` with ``REPRO_OBS`` unset (the default) and then
    set, timing both, and checks:

    * **disabled is a no-op** — the unobserved run carries no obs
      session, no metrics, and serializes without a ``metrics`` key;
    * **parity** — enabled tracing changes no simulation counter.

    Expects ``REPRO_OBS`` unset, and leaves it unset.
    """
    # overhead_pct is a ratio of two best-of timings and gates CI at a
    # 10% budget, so the measurement is hardened against shared-runner
    # noise three ways.  The off/on runs are *interleaved* (off, on,
    # off, on, ...) rather than run as two sequential blocks: machine
    # load swings last longer than one ~0.3s run, and a block design
    # lets a swing land entirely on one side of the ratio.  Both sides
    # are timed with ``time.process_time`` (CPU time): the tracing tax
    # *is* CPU work, and CPU time ignores the preemption that dominates
    # wall-clock jitter on busy hosts (virtualized steal still leaks
    # in).  And sampling is *adaptive*: best-of estimates the noise
    # floor, which a fixed sample count can miss entirely when a
    # contention burst covers every run of one side, so after the
    # mandatory pairs we keep interleaving — up to OBS_MAX_PAIRS —
    # until the running ratio converges below the gate's headroom.
    off_rate = on_rate = 0.0
    try:
        for pairs in range(1, OBS_MAX_PAIRS + 1):
            os.environ.pop("REPRO_OBS", None)
            off_result, seconds = _timed_scalar_run(spec)
            off_rate = max(off_rate, off_result.stats.accesses / seconds)
            os.environ["REPRO_OBS"] = "1"
            on_result, seconds = _timed_scalar_run(spec)
            on_rate = max(on_rate, on_result.stats.accesses / seconds)
            if pairs >= OBS_MIN_PAIRS and off_rate <= on_rate * OBS_CONVERGED:
                break
    finally:
        os.environ.pop("REPRO_OBS", None)
    return {
        "workload": spec.workload,
        "protocol": spec.protocol.value,
        "cores": spec.cores,
        "per_core": spec.per_core,
        "pairs": pairs,
        "disabled_accesses_per_sec": round(off_rate, 1),
        "enabled_accesses_per_sec": round(on_rate, 1),
        "overhead_pct": round(100.0 * (off_rate / on_rate - 1.0), 1),
        "disabled_is_noop": (off_result.obs is None
                             and off_result.metrics is None
                             and "metrics" not in off_result.to_dict()),
        "counters_identical": (on_result.stats.to_dict()
                               == off_result.stats.to_dict()),
    }


def run_bench(jobs: Optional[int] = None,
              out_path: str = "BENCH_protozoa.json") -> Dict:
    jobs = default_jobs() if jobs is None else max(1, jobs)
    specs = matrix_specs(WORKLOADS, cores=CORES, per_core=PER_CORE)
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    saved = {name: os.environ.get(name)
             for name in ("REPRO_TRACE_CACHE_DIR", "REPRO_OBS")}
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(scratch / "traces")
    # Observability must not leak into the timed sweeps: an ambient
    # REPRO_OBS=1 would tax every run (and every pool worker).
    # measure_obs_overhead() enables it deliberately, inside its own
    # timed region.
    os.environ.pop("REPRO_OBS", None)
    try:
        traces = TraceCache()
        for spec in specs + [OBS_SPEC]:
            traces.get_or_build(spec.workload, cores=spec.cores,
                                per_core=spec.per_core, seed=spec.seed)
        serial_cold = time_sweep(specs, jobs=1, cache_root=scratch / "serial")
        parallel_cold = time_sweep(specs, jobs=jobs,
                                   cache_root=scratch / "parallel")
        warm = time_sweep(specs, jobs=jobs, cache_root=scratch / "parallel")
        obs_overhead = measure_obs_overhead(OBS_SPEC)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "schema": BENCH_SCHEMA,
        "jobs": jobs,
        "matrix": {
            "workloads": list(WORKLOADS),
            "protocols": [p.value for p in ALL_PROTOCOLS],
            "cores": CORES,
            "per_core": PER_CORE,
            "cells": len(specs),
        },
        "sweep": {
            "serial_cold_s": round(serial_cold["seconds"], 3),
            "parallel_cold_s": round(parallel_cold["seconds"], 3),
            "parallel_jobs": parallel_cold["jobs"],
            "parallel_speedup": round(
                serial_cold["seconds"] / parallel_cold["seconds"], 2)
                if parallel_cold["jobs"] > 1 else None,
            "warm_s": round(warm["seconds"], 3),
            "warm_jobs": warm["jobs"],
            "warm_cache_hits": warm["cache_hits"],
            "warm_simulated": warm["simulated"],
            "warm_all_hits": warm["cache_hits"] == len(specs)
                             and warm["simulated"] == 0,
        },
        "obs_overhead": obs_overhead,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def gate_failures(report: Dict) -> List[str]:
    """One ``FAIL:`` line per gate ``report`` misses; empty when all hold."""
    sweep, obs = report["sweep"], report["obs_overhead"]
    failures = []
    if not sweep["warm_all_hits"]:
        failures.append(
            "FAIL: warm sweep was not 100% cache hits "
            f"({sweep['warm_cache_hits']} hits, "
            f"{sweep['warm_simulated']} simulated)")
    # With a real worker pool, fan-out losing to serial is a regression.
    if (sweep["parallel_jobs"] > 1
            and sweep["parallel_speedup"] < MIN_PARALLEL_SPEEDUP):
        failures.append(
            f"FAIL: parallel cold sweep speedup {sweep['parallel_speedup']}x "
            f"with {sweep['parallel_jobs']} jobs "
            f"(required >= {MIN_PARALLEL_SPEEDUP}x)")
    if obs["overhead_pct"] >= MAX_OBS_OVERHEAD_PCT:
        failures.append(
            f"FAIL: enabled-observability overhead {obs['overhead_pct']}% "
            f"(required < {MAX_OBS_OVERHEAD_PCT}%)")
    if not obs["disabled_is_noop"]:
        failures.append(
            "FAIL: a run without REPRO_OBS still produced obs artifacts "
            "(hooks are not zero-cost-off)")
    if not obs["counters_identical"]:
        failures.append(
            "FAIL: enabling observability changed simulation counters "
            "(tracing must be side-effect free)")
    return failures


def render(report: Dict) -> str:
    matrix, sweep, obs = report["matrix"], report["sweep"], report["obs_overhead"]
    return "\n".join([
        f"matrix: {matrix['cells']} cells "
        f"({len(matrix['workloads'])} workloads x "
        f"{len(matrix['protocols'])} protocols), "
        f"{matrix['cores']} cores x {matrix['per_core']} accesses",
        f"cold sweep (serial):    {sweep['serial_cold_s']:8.3f}s  (1 job)",
        f"cold sweep (parallel):  {sweep['parallel_cold_s']:8.3f}s  "
        f"({sweep['parallel_jobs']} jobs, "
        + (f"{sweep['parallel_speedup']}x vs serial)"
           if sweep["parallel_speedup"] is not None
           else "serial fallback - no speedup to compare)"),
        f"warm sweep:             {sweep['warm_s']:8.3f}s  "
        f"({sweep['warm_cache_hits']}/{matrix['cells']} cache hits)",
        f"observability:          "
        f"{obs['enabled_accesses_per_sec']:,.0f} accesses/s traced vs "
        f"{obs['disabled_accesses_per_sec']:,.0f} off "
        f"({obs['overhead_pct']:+.1f}%, {obs['pairs']} pairs), "
        f"noop-off={'yes' if obs['disabled_is_noop'] else 'NO'}, "
        f"parity={'yes' if obs['counters_identical'] else 'NO'}",
    ])
