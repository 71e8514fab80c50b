"""Turning a run's :class:`~perfbench.workloads.Outcome` into metrics and
the human-readable lines printed above the result JSON."""

from __future__ import annotations

from typing import Dict, List

from perfbench.spec import (END_TO_END, HIT_DOMINATED_MISS_RATIO, PER_LAYER,
                            REPORTED_ONLY)
from perfbench.stats import describe, median, tail
from perfbench.tracer import Tracer

_UNITS = {m.name: m.unit for m in END_TO_END + REPORTED_ONLY + PER_LAYER}


def end_to_end(outcome) -> Dict[str, float]:
    """The gated metrics of one timed run."""
    wall = median(outcome.wall_s)
    return {
        "setup_s": median(outcome.setup_s),
        "wall_s": wall,
        "sim_accesses_per_s": outcome.accesses_per_pass / wall,
        "peak_rss_mb": median(outcome.peak_rss_mb),
    }


def reported(outcome, checker) -> Dict[str, float]:
    """The printed-only end-to-end metrics this workload has."""
    out = {"error_rate": checker.failed / max(1, checker.attempted)}
    if "model_gap_pct" in outcome.notes:
        out["model_gap_pct"] = outcome.notes["model_gap_pct"]
    for kind, values in outcome.latencies_s.items():
        if values:
            out[f"{kind}_p50_ms"] = 1000 * median(values)
            t = tail(values)
            if t is not None:
                out[f"{kind}_tail_ms"] = 1000 * t[1]
    return out


def timed_lines(outcome, checker) -> List[str]:
    gated = end_to_end(outcome)
    lines = ["end-to-end (gated):"]
    samples = {"setup_s": outcome.setup_s, "wall_s": outcome.wall_s,
               "peak_rss_mb": outcome.peak_rss_mb}
    for name, value in gated.items():
        detail = describe(samples[name], unit=_UNITS[name]) \
            if name in samples else f"{outcome.accesses_per_pass} accesses/pass"
        lines.append(f"  {name:<20} {value:<14.6g} {_UNITS[name]:<9} {detail}")
    lines.append("end-to-end (reported):")
    for name, value in reported(outcome, checker).items():
        detail = ""
        if name == "error_rate":
            detail = f"{checker.failed} failed / {checker.attempted} attempted"
        elif name.endswith("_ms"):
            kind = name.rsplit("_", 2)[0]
            t = tail(outcome.latencies_s[kind])
            detail = describe(outcome.latencies_s[kind], 1000, "ms")
            if name.endswith("_tail_ms") and t is not None:
                detail = f"p{t[0]:.1f} of n={t[2]}"
        lines.append(f"  {name:<20} {value:<14.6g} "
                     f"{_UNITS[name]:<9} {detail}")
    for kind, values in outcome.latencies_s.items():
        if values and tail(values) is None:
            lines.append(f"  {kind}_tail_ms          (n={len(values)}: no "
                         "percentile has 10 samples beyond it)")
    return lines


def layer_metrics(outcome) -> Dict[str, float]:
    """Every per-layer metric of one traced run (totals over the traced
    pass; ``*_s`` are self times unless the README says otherwise)."""
    t: Tracer = outcome.tracer
    notes = t.notes
    sims = [s for s in outcome.notes.get("property_sims", t.sims)
            if "accesses" in s]
    sim_s = sum(s["seconds"] for s in sims)
    accesses = sum(s["accesses"] for s in sims)
    misses = sum(s["misses"] for s in sims)
    hit_dom = [s for s in sims
               if s["misses"] <= HIT_DOMINATED_MISS_RATIO * s["accesses"]]
    batched = [s for s in sims if s["batched"]]

    def rpc(method: str, field: str = "total") -> float:
        return t.get(f"service.call.{method}", field)

    hits = notes.get("trace_cache_hits", 0)
    cache_gets = hits + notes.get("trace_cache_misses", 0)
    metrics = {
        "trace.build_s": t.get("trace.build"),
        "trace.build_calls": t.get("trace.build", "calls"),
        "trace.pack_s": t.get("trace.pack"),
        "trace.derive_s": t.get("trace.derive"),
        "trace.cache_get_s": t.get("trace.cache_get"),
        "trace.cache_hit_ratio": hits / cache_gets if cache_gets else 0.0,
        "system.simulate_s": t.get("system.simulate", "total"),
        "system.simulate_calls": t.get("system.simulate", "calls"),
        "system.issue_self_s": t.get("system.simulate") + t.get(
            "system.batch"),
        "system.batched_share": _share(len(batched), len(sims)),
        "system.accesses": accesses,
        "system.hit_dominated_cell_share": _share(len(hit_dom), len(sims)),
        "system.hit_dominated_time_share": _share(
            sum(s["seconds"] for s in hit_dom), sim_s),
        "system.batched_time_share": _share(
            sum(s["seconds"] for s in batched), sim_s),
        "coherence.hit_s": t.get("coherence.hit"),
        "coherence.hit_calls": t.get("coherence.hit", "calls"),
        "coherence.batch_hook_s": t.get("coherence.batch_hook"),
        "coherence.batch_hook_calls": t.get("coherence.batch_hook", "calls"),
        "coherence.hit_ratio": _share(accesses - misses, accesses),
        "coherence.miss_s": t.get("coherence.miss"),
        "coherence.miss_calls": t.get("coherence.miss", "calls"),
        "coherence.directory_s": t.get("coherence.directory"),
        "coherence.directory_calls": t.get("coherence.directory", "calls"),
        "coherence.flush_s": t.get("coherence.flush"),
        "coherence.invalidations": sum(s["invalidations"] for s in sims),
        "memory.predictor_s": t.get("memory.predictor"),
        "memory.predictor_calls": t.get("memory.predictor", "calls"),
        "memory.l1_insert_s": t.get("memory.l1_insert"),
        "memory.l1_insert_calls": t.get("memory.l1_insert", "calls"),
        "memory.l2_s": t.get("memory.l2"),
        "memory.l2_calls": t.get("memory.l2", "calls"),
        "interconnect.transfer_s": t.get("interconnect.transfer"),
        "interconnect.transfer_calls": t.get("interconnect.transfer",
                                             "calls"),
        "interconnect.flit_hops": sum(s["flit_hops"] for s in sims),
        "experiments.run_many_s": t.get("experiments.run_many", "total"),
        "experiments.serialize_s": t.get("experiments.serialize"),
        "experiments.parse_s": t.get("experiments.parse"),
        "experiments.render_s": t.get("experiments.render"),
        "store.get_s": t.get("store.get"),
        "store.get_calls": t.get("store.get", "calls"),
        "store.get_bytes": t.get("store.get", "nbytes"),
        "store.put_s": t.get("store.put") + t.get("store.put_blob"),
        "store.put_calls": t.get("store.put", "calls") + t.get(
            "store.put_blob", "calls"),
        "store.put_bytes": t.get("store.put", "nbytes") + t.get(
            "store.put_blob", "nbytes"),
        "store.retries": 0,
        "service.submit_s": rpc("submit_sweep"),
        "service.status_s": rpc("job_status"),
        "service.status_calls": rpc("job_status", "calls"),
        "service.poll_wait_s": t.get("service.wait"),
        "service.polls_per_job": _share(rpc("job_status", "calls"),
                                        t.get("service.wait", "calls")),
        "service.result_s": rpc("job_result"),
        "service.result_bytes": rpc("job_result", "nbytes"),
        "service.queue_wait_s": 0.0,
        "service.cache_answered_share": 0.0,
        "service.server_cpu_s": 0.0,
        "resilience.warnings": 0,
        "tracing.traced_wall_s": outcome.traced_wall_s,
        "tracing.uncovered_share": _share(
            outcome.traced_wall_s - t.root_s, outcome.traced_wall_s),
        "tracing.overhead": outcome.notes.get(
            "overhead", outcome.traced_wall_s / outcome.untraced_wall_s - 1),
    }
    metrics.update(outcome.layers)
    missing = {m.name for m in PER_LAYER} ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step: {missing}")
    return metrics


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_lines(outcome, metrics: Dict[str, float]) -> List[str]:
    t: Tracer = outcome.tracer
    wall = outcome.traced_wall_s
    by_layer: Dict[str, float] = {}
    for sid, name in enumerate(t.names):
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t.own[sid]
    lines = [f"traced run: traced wall {wall:.4f} s, untraced "
             f"{outcome.untraced_wall_s:.4f} s, tracing overhead "
             f"{100 * metrics['tracing.overhead']:.1f}% "
             f"(same process model); {len(t.col_start)} spans",
             "layer self times:"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14} {seconds:10.4f} s {100 * seconds / wall:6.1f}%")
    uncovered = wall - t.root_s
    lines.append(f"  {'(no layer)':<14} {uncovered:10.4f} s "
                 f"{100 * uncovered / wall:6.1f}%")
    lines.append(
        "property shares: hit-dominated (miss ratio <= 1/16) "
        f"{metrics['system.hit_dominated_cell_share']:.3f} of cells, "
        f"{metrics['system.hit_dominated_time_share']:.3f} of simulate time;"
        f" batched {metrics['system.batched_share']:.3f} of cells, "
        f"{metrics['system.batched_time_share']:.3f} of simulate time")
    lines.append("per-layer metrics:")
    for m in PER_LAYER:
        lines.append(f"  {m.name:<34} {metrics[m.name]:<14.6g} {m.unit}")
    return lines
