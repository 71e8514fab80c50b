"""``repro chaos``: prove the pipeline survives injected faults.

The chaos harness runs the same (workload x protocol) sweep twice into
scratch caches:

1. **fault-free** — ``REPRO_FAULTS`` cleared, the reference matrix;
2. **under a fault plan** — worker kills, transient worker exceptions,
   task stalls, and result/trace blob corruption armed via
   ``REPRO_FAULTS`` (budgets shared across workers through
   ``REPRO_FAULTS_DIR``), with the engine's retry/rebuild/degrade
   machinery doing the surviving.  The faulted sweep runs two passes:
   the cold pass exercises the worker-side faults, the warm pass reads
   the now-populated caches so the corruption faults fire and the
   quarantine->rebuild path runs.

It then asserts the faulted matrix serializes **byte-identical** to the
fault-free one, and audits the faulted caches with the doctor checks so
any corrupt blob that escaped quarantine ("a quarantine leak") fails
the run.  Quarantined blobs are counted per namespace in the stores'
quarantine inventories, which every process moves its blobs into: a
pool worker reads (and quarantines) most trace blobs.  Retry, rebuild,
degradation and journal counters are reported from the engine's
``MetricsRegistry`` and this process's resilience registry; the
workers' own registries are not merged in.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import process_registry
from repro.resilience.faults import (
    FaultPlan,
    get_injector,
    reset_injector,
)
from repro.resilience.journal import SweepJournal
from repro.resilience.retry import RetryPolicy

#: The default plan: every fault kind the catalogue defines (well past
#: the >=3 kinds ``repro chaos`` is asked to prove survivable).  The
#: network sites are inert unless the sweep talks to a remote store
#: (``run_chaos(store="http://...")`` / ``repro chaos --store``).
#: The network sites are spread (``every=``) so one round trip's retry
#: chain can never eat the whole fault budget back-to-back — the client
#: policy allows 2 retries, so 3 stacked failures would be unsurvivable
#: by construction rather than a real coordinator flap.
DEFAULT_FAULTS = ("worker-kill:n=1;worker-exc:n=2;task-stall:n=1:ms=100;"
                  "cache-corrupt:n=2;trace-corrupt:n=1;"
                  "store-get-error:n=2:every=3;store-put-stall:n=1:ms=50;"
                  "store-conn-refused:n=1:every=5")

CHAOS_WORKLOADS = ("kmeans", "histogram")


def matrix_json(results) -> str:
    """The canonical byte form of a sweep: digest-keyed, sorted, compact."""
    entries = {spec.digest(): result.to_dict()
               for spec, result in results.items()}
    return json.dumps(entries, sort_keys=True, separators=(",", ":"))


def _engine_counters(engine) -> Dict[str, int]:
    merged = dict(engine.metrics.counters())
    for key, value in process_registry().counters().items():
        merged[key] = merged.get(key, 0) + value
    return {key: value for key, value in sorted(merged.items())
            if key.startswith(("repro_engine_", "repro_resilience_"))}


def _quarantined(store, namespace: str) -> int:
    """Blobs in one namespace of ``store``'s quarantine."""
    return len(store.quarantine_inventory(namespace)["files"])


def run_chaos(faults: str = "",
              seed: int = 0,
              workloads: Sequence[str] = CHAOS_WORKLOADS,
              cores: int = 8,
              per_core: int = 300,
              jobs: Optional[int] = None,
              retries: int = 3,
              timeout_s: Optional[float] = None,
              keep: bool = False,
              out: str = "",
              store: str = "") -> Dict:
    """Run the chaos experiment; returns the report dict (``ok`` key).

    With ``store`` set to a store URL (``http://...`` or
    ``tiered+http://...?local=DIR``), the *faulted* sweep's result cache
    runs against that backend, so the network fault sites
    (``store-get-error`` / ``store-put-stall`` / ``store-conn-refused``)
    fire on real round trips while the baseline stays hermetic in the
    scratch tree — proving the report byte-reproduces through a flapping
    coordinator.
    """
    from repro.experiments._engine import (
        ExperimentEngine,
        ResultCache,
        default_jobs,
    )
    from repro.experiments.bench import matrix_specs
    from repro.resilience.doctor import check_result_store, check_trace_store
    from repro.store import (
        NAMESPACE_RESULTS,
        NAMESPACE_TRACES,
        FsStore,
        parse_store_url,
    )

    plan = FaultPlan.parse(faults or DEFAULT_FAULTS).with_seed(seed)
    # Worker-side faults need actual workers.
    jobs = max(2, default_jobs() if jobs is None else jobs)
    specs = matrix_specs(list(workloads), cores=cores, per_core=per_core,
                         seed=seed)

    scratch = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    saved = {name: os.environ.get(name)
             for name in ("REPRO_FAULTS", "REPRO_FAULTS_DIR",
                          "REPRO_TRACE_CACHE_DIR", "REPRO_OBS",
                          "REPRO_STORE_TIMEOUT", "REPRO_RETRY_SEED")}
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(scratch / "traces")
    os.environ.pop("REPRO_FAULTS", None)
    os.environ.pop("REPRO_FAULTS_DIR", None)
    # Ambient observability would attach wall-clock phase timings to every
    # serialized result and break the byte-identity comparison.
    os.environ.pop("REPRO_OBS", None)
    # An ambient store timeout or retry seed would change how a round
    # trip rides out the injected network faults; the rehearsal runs the
    # stock policy.
    os.environ.pop("REPRO_STORE_TIMEOUT", None)
    os.environ.pop("REPRO_RETRY_SEED", None)
    reset_injector()
    try:
        # Phase 1: the fault-free reference sweep.
        with ExperimentEngine(
                jobs=jobs,
                cache=ResultCache(store=FsStore(scratch / "baseline"),
                                  enabled=True)) as engine:
            baseline = matrix_json(engine.run_many(specs))

        # Phase 2: the same sweep under the armed fault plan.
        budget_dir = scratch / "budget"
        os.environ["REPRO_FAULTS"] = plan.to_env()
        os.environ["REPRO_FAULTS_DIR"] = str(budget_dir)
        reset_injector()
        journal = SweepJournal(scratch / "journal.jsonl")
        policy = RetryPolicy(max_retries=retries, backoff_base_s=0.01,
                             timeout_s=timeout_s, seed=seed)
        local = FsStore(scratch / "faulted", trace_root=scratch / "traces")
        faulted_store = parse_store_url(store) if store else local
        faulted_cache = ResultCache(store=faulted_store, enabled=True)
        # A remote store or a tiered store's local tier may hold earlier
        # quarantines; the scratch trees start empty.
        results_before = _quarantined(faulted_store, NAMESPACE_RESULTS)
        traces_before = _quarantined(local, NAMESPACE_TRACES)
        with ExperimentEngine(jobs=jobs, cache=faulted_cache,
                              retry=policy, journal=journal) as engine:
            engine.run_many(specs)          # cold: worker faults fire
            results = engine.run_many(specs)  # warm: corruption faults fire
            counters = _engine_counters(engine)
            degraded = engine.degraded
            pool_rebuilds = engine.pool_rebuilds
        faulted = matrix_json(results)
        result_blobs = (_quarantined(faulted_store, NAMESPACE_RESULTS)
                        - results_before)
        trace_blobs = _quarantined(local, NAMESPACE_TRACES) - traces_before
        journal.close()

        injector = get_injector()
        fired = ({site: injector.tokens_claimed(site)
                  for site in plan.sites} if injector is not None else {})

        # Phase 3: leak audit — every surviving cache entry must be intact
        # (corruption belongs in quarantine, not in the fan-out dirs).
        # Results are audited where the faulted sweep wrote them (for a
        # tiered store, its local tier — the side the sweep read from);
        # traces always live in the scratch trace tree.
        audit = (check_result_store(faulted_store)
                 + check_trace_store(local))
        leaks: List[str] = [line for check in audit if not check.ok
                            for line in check.details]
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        reset_injector()
        if not keep:
            shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "ok": baseline == faulted and not leaks,
        "identical": baseline == faulted,
        "fault_plan": plan.to_env(),
        "store": store,
        "seed": seed,
        "jobs": jobs,
        "cells": len(specs),
        "matrix_bytes": len(baseline),
        "fired": fired,
        "counters": counters,
        "result_blobs_quarantined": result_blobs,
        "trace_blobs_quarantined": trace_blobs,
        "pool_rebuilds": pool_rebuilds,
        "degraded_to_serial": degraded,
        "quarantine_leaks": leaks,
        "journal": {
            "path": str(scratch / "journal.jsonl") if keep else "",
            "completed": len(journal),
            "recorded": journal.recorded,
        },
        "scratch": str(scratch) if keep else "",
    }
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def render(report: Dict) -> str:
    lines = [
        f"chaos sweep: {report['cells']} cells, {report['jobs']} jobs, "
        f"seed {report['seed']}",
        f"fault plan:  {report['fault_plan']}",
    ]
    if report.get("store"):
        lines.append(f"store:       {report['store']}")
    lines += [
        f"faults fired: " + (", ".join(
            f"{site}={count}" for site, count in sorted(report["fired"].items()))
            or "none"),
    ]
    lines.append("counters (this process; pool workers' are not merged):")
    for key, value in report["counters"].items():
        lines.append(f"  {key} = {value}")
    lines.append(
        f"recovery:    {report['pool_rebuilds']} pool rebuild(s), "
        f"{report['result_blobs_quarantined']} result and "
        f"{report['trace_blobs_quarantined']} trace blob(s) quarantined, "
        f"degraded={'yes' if report['degraded_to_serial'] else 'no'}")
    lines.append(
        f"journal:     {report['journal']['completed']} completed spec(s) "
        f"recorded")
    lines.append(
        f"matrix:      {report['matrix_bytes']} bytes, "
        f"bit-identical={'YES' if report['identical'] else 'NO'}")
    if report["quarantine_leaks"]:
        lines.append("quarantine leaks:")
        lines.extend(f"  {leak}" for leak in report["quarantine_leaks"])
    else:
        lines.append("quarantine:  zero leaks (every corrupt blob contained)")
    lines.append(f"chaos: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
