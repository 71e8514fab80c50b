"""What the benchmark measures: workloads, scales and metrics.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --write-manifest``).  The manifest has no
field for each workload's loop type, client count and scale, so every run
prints them from here; what each metric means, and which end-to-end
metric each layer metric should move on which workload, is documented in
``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

RUN_SECONDS = 30

#: Every cell the benchmark runs uses its share of the benchmark seed:
#: ``report-cold`` and ``service-mixed`` put the seed itself into every
#: RunSpec; ``replay-hits`` replays ``replay_seeds`` traces per cell, with
#: RunSpec seeds ``seed * replay_seeds + k`` (one trace per seed varies
#: too much in miss count for a steady wall time; eight average it out).


@dataclass(frozen=True)
class Scale:
    """Trace lengths and repeat counts; ``bench`` is the measured one."""

    name: str
    report_cores: int
    report_per_core: int
    report_workloads: Tuple[str, ...]  # empty: all 28
    replay_cores: int
    replay_per_core: int
    replay_seeds: int
    service_cores: int
    service_per_core: int
    service_traced_rounds: int
    setups: int  # set-ups per run (replay-hits, service-mixed), spread out


SCALES: Dict[str, Scale] = {
    "bench": Scale("bench", report_cores=16, report_per_core=25,
                   report_workloads=(), replay_cores=16,
                   replay_per_core=2000, replay_seeds=8, service_cores=4,
                   service_per_core=200, service_traced_rounds=20, setups=7),
    # The self-test pass: same code paths, seconds instead of minutes.
    "tiny": Scale("tiny", report_cores=4, report_per_core=20,
                  report_workloads=("histogram", "linear-regression",
                                    "string-match"),
                  replay_cores=4, replay_per_core=300, replay_seeds=2,
                  service_cores=4, service_per_core=30,
                  service_traced_rounds=3, setups=2),
}

#: replay-hits cells: the 16-core cells whose miss ratio is at most 1/16
#: at 2000 accesses/core, seed 0 (0.009 and 0.059).  Each run reports the
#: miss ratio it measured; a seed can push string-match/MW just past 1/16.
REPLAY_CELLS = (("linear-regression", "mw"), ("string-match", "mw"))
HIT_DOMINATED_MISS_RATIO = 1 / 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, into BENCHMARK.json
    loop: str
    clients: str
    scale: str


WORKLOADS = (
    Workload(
        "report-cold",
        "the user's longest wait: repro report from empty result and trace "
        "caches, 224 cells at 16 cores through a 2-worker engine; the miss "
        "path does most of the work",
        loop="batch: one cold report per pass, passes back to back",
        clients="1 (each pass is a fresh process with its own 2-worker pool)",
        scale="28 workloads x 4 protocols + 4 MESI block sizes = 224 cells, "
              "16 cores x 25 accesses/core"),
    Workload(
        "replay-hits",
        "the reverse of report-cold: the hit-dominated cells (miss ratio <= "
        "1/16) replayed in one process through repro.api.simulate, so the "
        "issue loop, batch runner and hit path dominate",
        loop="batch: one replay of every cell per pass, passes back to back",
        clients="1 (in-process: no pool, no result cache)",
        scale="linear-regression/MW + string-match/MW, 16 cores x 2000 "
              "accesses/core, 8 trace seeds each = 16 simulate calls/pass"),
    Workload(
        "service-mixed",
        "one closed-loop client of a repro serve subprocess interleaving a "
        "fresh sweep, a cached re-submission and a result-blob get: loads "
        "the service, JSON-RPC, (de)serialization and HTTP store",
        loop="closed: one request in flight; a round is fresh, cached, blob",
        clients="1 ServiceClient + 1 HttpStore against 1 repro serve",
        scale="single-cell sweeps over the report's 224 cells at 4 cores x "
              "200 accesses/core, in a seeded order (224 distinct fresh "
              "cells)"),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only


#: Gated end-to-end metrics: reported by every workload.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("sim_accesses_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
)

#: End-to-end metrics printed by name on the workloads they describe but
#: not gated: the manifest's metrics must exist on every workload, and
#: these are zero when healthy (error_rate), deterministic and pinned by
#: the golden digests (model_gap_pct), or service-only.
REPORTED_ONLY = (
    Metric("error_rate", "failed/attempted", "lower"),
    Metric("model_gap_pct", "%", "lower"),
    Metric("fresh_p50_ms", "ms", "lower"),
    Metric("fresh_tail_ms", "ms", "lower"),
    Metric("cached_p50_ms", "ms", "lower"),
    Metric("cached_tail_ms", "ms", "lower"),
    Metric("blob_get_p50_ms", "ms", "lower"),
    Metric("blob_get_tail_ms", "ms", "lower"),
)

#: Per-layer metrics, by layer.  Values are totals over the traced run's
#: traced pass (service-mixed: its traced rounds).
LAYER_METRICS = (
    "trace.build_s", "trace.build_calls", "trace.pack_s", "trace.derive_s",
    "trace.cache_get_s", "trace.cache_hit_ratio",
    "system.simulate_s", "system.simulate_calls", "system.issue_self_s",
    "system.batched_share", "system.accesses",
    "system.hit_dominated_cell_share", "system.hit_dominated_time_share",
    "system.batched_time_share",
    "coherence.hit_s", "coherence.hit_calls", "coherence.batch_hook_s",
    "coherence.batch_hook_calls", "coherence.hit_ratio",
    "coherence.miss_s", "coherence.miss_calls", "coherence.directory_s",
    "coherence.directory_calls", "coherence.flush_s",
    "coherence.invalidations",
    "memory.predictor_s", "memory.predictor_calls", "memory.l1_insert_s",
    "memory.l1_insert_calls", "memory.l2_s", "memory.l2_calls",
    "interconnect.transfer_s", "interconnect.transfer_calls",
    "interconnect.flit_hops",
    "experiments.run_many_s", "experiments.executed",
    "experiments.cache_hit_ratio", "experiments.serialize_s",
    "experiments.parse_s", "experiments.render_s",
    "store.get_s", "store.get_calls", "store.get_bytes", "store.put_s",
    "store.put_calls", "store.put_bytes", "store.retries",
    "service.submit_s", "service.status_s", "service.status_calls",
    "service.poll_wait_s", "service.polls_per_job", "service.result_s",
    "service.result_bytes", "service.queue_wait_s",
    "service.cache_answered_share", "service.server_cpu_s",
    "resilience.warnings", "resilience.engine_retries",
    "resilience.pool_rebuilds",
    "tracing.traced_wall_s", "tracing.uncovered_share", "tracing.overhead",
)


def _unit(name: str) -> str:
    if name.endswith(("_share", "_ratio")) or name in (
            "tracing.overhead", "service.polls_per_job"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_calls"):
        return "calls"
    if name.endswith("_s"):
        return "s"
    return "count"


def _better(name: str) -> str:
    if name in ("coherence.hit_ratio", "trace.cache_hit_ratio",
                "experiments.cache_hit_ratio",
                "service.cache_answered_share"):
        return "higher"
    return "lower"


PER_LAYER = tuple(Metric(name, _unit(name), _better(name))
                  for name in LAYER_METRICS)


def manifest() -> Dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
