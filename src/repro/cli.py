"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      the 28 bundled workload profiles with their paper metadata
``run``       simulate one workload under one protocol, print the summary
``compare``   one workload under all four protocols, side by side
``report``    regenerate the full evaluation (all tables and figures)
``bench``     the CI gates perfbench lacks (warm cache hits, parallel
              fan-out, observability tax); write BENCH_protozoa.json
``verify``    the paper's random protocol tester with full checking
``check``     bounded-exhaustive model checking + differential verification
``trace``     dump a workload's synthetic trace to a file (replayable)
``replay``    run a saved trace file under a chosen protocol
``events``    trace per-transaction coherence events (repro.obs) and
              dump/filter/summarize them
``chaos``     run a sweep under an injected fault plan (repro.resilience)
              and assert results stay bit-identical to a fault-free run
``doctor``    audit result/trace cache integrity (checksums, format
              versions, orphaned temp files, quarantine inventory) and
              optionally GC entries older than ``--prune-older-than``
``serve``     run the multi-tenant sweep service: HTTP/JSON-RPC front
              end + durable job queue over the engine (docs/service.md)
``submit``    submit a sweep to a running service (optionally wait for
              and save the result matrix)
``jobs``      list/inspect/cancel jobs on a running service

Every subcommand shares one option vocabulary (``--jobs``, ``--seed``,
``--protocol``, ``--store``, ``--trace-dir``) via a common parent
parser, so flags mean the same thing everywhere.  ``report`` and
``bench`` run through the parallel experiment engine: ``REPRO_JOBS``
sizes the worker pool and ``--store`` / ``REPRO_STORE`` names the blob
store holding the result and trace caches — ``file:///path`` (or a bare
path) for a local tree, ``http://host:port`` for a running ``repro
serve`` shared by a fleet (docs/distributed.md).  Without a store,
``REPRO_CACHE_DIR`` / ``REPRO_TRACE_CACHE_DIR`` and ``--trace-dir``
locate the default ``file://`` store's result and trace trees.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.params import (
    L1Organization,
    PredictorKind,
    ProtocolKind,
    SystemConfig,
)
from repro.system.machine import simulate
from repro.trace.workloads import WORKLOADS, build_streams


def _protocol(name: str) -> ProtocolKind:
    from repro.api import parse_protocol

    try:
        return parse_protocol(name)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _config(args, protocol: ProtocolKind) -> SystemConfig:
    return SystemConfig(
        protocol=protocol,
        cores=args.cores,
        predictor=PredictorKind(args.predictor),
        l1_organization=L1Organization(args.substrate),
        three_hop=args.three_hop,
    )


def _common_parent() -> argparse.ArgumentParser:
    """The option vocabulary every subcommand shares.

    One parent parser keeps ``--jobs/--seed/--protocol/--trace-dir``
    spelled, typed, and documented identically across subcommands;
    per-command defaults come from ``set_defaults`` on the subparser
    (e.g. ``run`` defaults ``--protocol`` to ``mw``, ``verify`` to all).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=int, default=0,
                        help="worker processes for engine-backed work "
                             "(overrides REPRO_JOBS; default: REPRO_JOBS "
                             "or all cores)")
    parent.add_argument("--seed", type=int, default=0,
                        help="trace-generation seed (default 0)")
    parent.add_argument("--protocol", default="",
                        help="protocol: mesi, sw, sw+mr, mw "
                             "(commands choose their own default)")
    parent.add_argument("--store", default="",
                        help="blob store for result/trace caches: "
                             "file:///path, a bare path, http://host:port "
                             "of a running 'repro serve' (?timeout=SECONDS "
                             "accepted), or tiered+http://host:port?local=DIR"
                             "[&budget=BYTES] for an outage-tolerant local "
                             "tier (overrides REPRO_STORE; without it, "
                             "REPRO_CACHE_DIR/REPRO_TRACE_CACHE_DIR locate "
                             "the default file:// store)")
    parent.add_argument("--trace-dir", default="",
                        help="packed trace directory of the default "
                             "file:// store (overrides "
                             "REPRO_TRACE_CACHE_DIR)")
    return parent


def _apply_common(args) -> Optional[int]:
    """Resolve the shared flags into process state.

    ``--jobs`` and ``--trace-dir`` are exported through the environment so
    every engine this process creates — and every pool worker it forks —
    agrees on the worker count and trace cache location.  Returns the
    explicit job count, if one was given.
    """
    if getattr(args, "store", ""):
        from repro.store import StoreError, configure_store

        try:
            # Exported as REPRO_STORE so engines and pool workers agree.
            configure_store(args.store)
        except StoreError as exc:
            raise SystemExit(f"--store: {exc}")
    if getattr(args, "trace_dir", ""):
        os.environ["REPRO_TRACE_CACHE_DIR"] = args.trace_dir
    jobs = getattr(args, "jobs", 0)
    if jobs and jobs > 0:
        os.environ["REPRO_JOBS"] = str(jobs)
        return jobs
    return None


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--scale", type=int, default=2000,
                        help="accesses per core (default 2000)")
    parser.add_argument("--predictor", default="pc-history",
                        choices=[p.value for p in PredictorKind])
    parser.add_argument("--substrate", default="amoeba",
                        choices=[o.value for o in L1Organization])
    parser.add_argument("--three-hop", action="store_true",
                        help="enable direct owner-to-requester forwarding")


def _print_summary(result) -> None:
    stats = result.stats
    split = result.traffic_split()
    print(f"workload:        {result.name}")
    print(f"protocol:        {result.protocol_name}")
    print(f"instructions:    {stats.instructions}")
    print(f"accesses:        {stats.accesses} "
          f"({stats.reads} loads, {stats.writes} stores)")
    print(f"misses:          {stats.misses}  (MPKI {result.mpki():.2f})")
    print(f"invalidations:   {stats.invalidations_sent}  "
          f"(NACKs {stats.nacks}, ACK-S {stats.ack_s})")
    print(f"traffic:         {result.traffic_bytes()} B  "
          f"(used {split['used']}, unused {split['unused']}, "
          f"control {split['control']})")
    print(f"USED fraction:   {result.used_fraction():.1%}")
    print(f"flit-hops:       {result.flit_hops()}")
    print(f"exec cycles:     {result.exec_cycles()}")


def cmd_list(args) -> int:
    print(f"{'name':>18} {'suite':>10} {'paper-opt':>9} {'paper-USED%':>11} "
          f"{'false-sharing':>13}")
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        print(f"{name:>18} {spec.suite:>10} {spec.paper_optimal:>9} "
              f"{spec.paper_used_pct:>10}% "
              f"{'yes' if spec.falsely_shares else '':>13}")
    return 0


def cmd_run(args) -> int:
    from repro.trace._cache import packed_streams

    _apply_common(args)
    protocol = _protocol(args.protocol)
    # The packed trace cache makes repeat runs of the same recipe replay a
    # prebuilt columnar trace instead of re-driving the generators.
    streams = packed_streams(args.workload, cores=args.cores,
                             per_core=args.scale, seed=args.seed)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = simulate(streams, _config(args, protocol), name=args.workload)
        profiler.disable()
        _print_summary(result)
        print("\ntop-20 functions by cumulative time:")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    else:
        result = simulate(streams, _config(args, protocol), name=args.workload)
        _print_summary(result)
    return 0


def cmd_compare(args) -> int:
    print(f"{args.workload}: {args.cores} cores x {args.scale} accesses\n")
    print(f"{'protocol':>9} {'mpki':>8} {'traffic(B)':>11} {'used%':>7} "
          f"{'flit-hops':>10} {'exec':>10}")
    for protocol in ProtocolKind:
        streams = build_streams(args.workload, cores=args.cores,
                                per_core=args.scale, seed=args.seed)
        result = simulate(streams, _config(args, protocol), name=args.workload)
        print(f"{protocol.short_name:>9} {result.mpki():>8.2f} "
              f"{result.traffic_bytes():>11} "
              f"{100 * result.used_fraction():>6.1f}% "
              f"{result.flit_hops():>10} {result.exec_cycles():>10}")
    return 0


def _resolve_journal(args) -> Optional["SweepJournal"]:
    """The sweep journal for ``--journal``/``--resume`` (None when unused).

    ``--resume`` without an explicit path uses the default journal beside
    the result cache; a journal is opened (and appended to) whenever
    either flag is given.
    """
    from repro.resilience.journal import SweepJournal

    path = getattr(args, "journal", "")
    if not path and getattr(args, "resume", False):
        from repro.store.fs import default_result_root

        path = str(default_result_root() / "journal.jsonl")
    if not path:
        return None
    journal = SweepJournal(path)
    if getattr(args, "resume", False) and len(journal):
        print(f"resuming: {len(journal)} run(s) already journaled at {path}",
              file=sys.stderr)
    return journal


def cmd_report(args) -> int:
    from repro.experiments._engine import ExperimentEngine
    from repro.experiments.report import write_report
    from repro.experiments.runner import (
        ExperimentSettings,
        ResultMatrix,
        default_settings,
    )

    from repro.resilience.lease import LeaseBoard, lease_dir_for

    jobs = _apply_common(args)
    settings = ExperimentSettings(cores=args.cores, per_core=args.scale,
                                  seed=args.seed,
                                  workloads=default_settings().workloads)
    journal = _resolve_journal(args)
    # A journal makes the sweep shareable: concurrent `repro report
    # --journal <same path>` processes lease specs from a claim
    # directory beside the journal and divide the matrix between them
    # (docs/distributed.md).  Single-process runs pay one tiny claim
    # file per spec for the same bytes.
    lease = (LeaseBoard(lease_dir_for(journal.path))
             if journal is not None else None)
    engine = ExperimentEngine(jobs=jobs, journal=journal) if jobs \
        else ExperimentEngine(journal=journal)
    engine.lease = lease
    try:
        matrix = ResultMatrix(settings, engine=engine)
        if args.out:
            with open(args.out, "w") as fh:
                write_report(matrix, out=fh)
            print(f"report written to {args.out}")
        else:
            write_report(matrix)
        if lease is not None:
            print(f"sweep shared via {journal.path}: "
                  f"{engine.executed} run(s) computed here, "
                  f"{engine.absorbed} absorbed from other workers, "
                  f"{lease.takeovers} lease takeover(s)",
                  file=sys.stderr)
    finally:
        if lease is not None:
            lease.release_all()
        engine.close()
        if journal is not None:
            journal.close()
    return 0


def cmd_bench(args) -> int:
    from repro.experiments.bench import gate_failures, render, run_bench

    jobs = _apply_common(args)
    report = run_bench(jobs=jobs, out_path=args.out)
    print(render(report))
    print(f"\nbench report written to {args.out}")
    failures = gate_failures(report)
    for line in failures:
        print(line)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    from repro.verification.random_tester import RandomTester

    kinds = ([_protocol(args.protocol)] if args.protocol else list(ProtocolKind))
    for kind in kinds:
        config = SystemConfig(protocol=kind, cores=args.cores,
                              three_hop=args.three_hop,
                              l1_organization=L1Organization(args.substrate),
                              predictor=PredictorKind(args.predictor))
        for seed in range(args.seed, args.seed + args.seeds):
            tester = RandomTester(config, regions=args.regions, seed=seed,
                                  write_frac=args.write_frac,
                                  max_span_words=args.max_span,
                                  same_set=args.same_set,
                                  check_every=args.check_every)
            report = tester.run(args.accesses)
            print(f"{kind.short_name:>6} seed {seed}: OK  {report.coverage()}")
    return 0


def cmd_check(args) -> int:
    import sys as _sys

    from repro.modelcheck.runner import run_check

    if args.replay:
        return _replay_counterexample(args.replay)
    kinds = [_protocol(args.protocol)] if args.protocol else None
    report = run_check(kinds, cores=args.cores, regions=args.regions,
                       depth=args.depth, pressure_regions=args.pressure,
                       mode=args.mode, mutant_depth=args.mutant_depth)
    report.render(_sys.stdout)
    if args.save:
        traces = (report.shrunk
                  or [m.shrunk for m in report.mutant_results if m.shrunk])
        if traces:
            with open(args.save, "w") as fh:
                traces[0].save(fh)
            print(f"shrunk counterexample written to {args.save}")
    return 0 if report.ok else 1


def _replay_counterexample(path: str) -> int:
    """Re-run a saved shrunk trace and confirm the recorded failure fires."""
    from repro.common.errors import ReproError
    from repro.modelcheck.explorer import modelcheck_config
    from repro.modelcheck.mutants import build_mutant
    from repro.modelcheck.ops import format_trace, read_trace
    from repro.system.machine import build_protocol

    with open(path) as fh:
        meta, ops = read_trace(fh)
    name = meta.get("protocol", "mesi")
    try:
        kind = ProtocolKind(name)  # traces record the full enum value
    except ValueError:
        kind = _protocol(name)
    config = modelcheck_config(kind, cores=int(meta.get("cores", "2")))
    mutant = meta.get("mutant", "")
    protocol = build_mutant(mutant, config) if mutant else build_protocol(config)
    source = f"{kind.value} + mutant {mutant}" if mutant else kind.value
    print(f"replaying {len(ops)} ops on {source}:")
    print(format_trace(ops))
    try:
        for op in ops:
            op.apply(protocol)
            protocol.check_all_invariants()
        protocol.check_all_invariants()
    except ReproError as exc:
        print(f"reproduced: {type(exc).__name__}: {exc}")
        return 0
    print("trace completed without a violation — nothing reproduced")
    return 1


def cmd_inspect(args) -> int:
    from repro.trace.analysis import profile_workload

    print(f"{'workload':>18} {'wr%':>5} {'regions':>8} {'density':>8} "
          f"{'private':>8} {'rd-shr':>7} {'true-shr':>9} {'false-shr':>10}")
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    for name in names:
        p = profile_workload(name, cores=args.cores, per_core=args.scale,
                             seed=args.seed)
        s = p.summary()
        print(f"{name:>18} {100 * s['write_frac']:>4.0f}% {s['regions']:>8} "
              f"{s['density_words']:>8.2f} {s['private']:>8.2f} "
              f"{s['read_shared']:>7.2f} {s['true_shared']:>9.2f} "
              f"{s['false_shared']:>10.2f}")
    return 0


def cmd_trace(args) -> int:
    from repro.trace.io import write_trace

    streams = build_streams(args.workload, cores=args.cores,
                            per_core=args.scale, seed=args.seed)
    with open(args.out, "w") as fh:
        count = write_trace(streams, fh)
    print(f"{count} records ({args.cores} cores) written to {args.out}")
    return 0


def cmd_replay(args) -> int:
    from repro.trace.io import read_trace

    with open(args.trace) as fh:
        streams = read_trace(fh)
    protocol = _protocol(args.protocol)
    config = _config(args, protocol)
    if len(streams) > config.cores:
        raise SystemExit(f"trace has {len(streams)} cores; pass --cores")
    result = simulate(streams, config, name=args.trace)
    _print_summary(result)
    return 0


def cmd_events(args) -> int:
    """Observe one run and dump/filter/summarize its transaction events."""
    import json

    from repro.obs import ObsConfig
    from repro.obs.events import summarize_jsonl
    from repro.trace._cache import packed_streams

    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            summary = summarize_jsonl(fh)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    _apply_common(args)
    protocol = _protocol(args.protocol)
    obs = ObsConfig(enabled=True, ring_size=args.ring,
                    sample_every=args.sample, span_size=args.span)
    streams = packed_streams(args.workload, cores=args.cores,
                             per_core=args.scale, seed=args.seed)
    # Scalar loop, always: this command's product is the per-transaction
    # record stream, which the batch engine deliberately does not emit.
    result = simulate(streams, _config(args, protocol), name=args.workload,
                      obs=obs, batch=False)
    events = result.obs.events
    if args.summary:
        summary = events.summary()
        summary["phase_seconds"] = result.phase_seconds or {}
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    records = events.filtered(
        core=args.core, op=args.op.upper() if args.op else None,
        misses_only=args.misses_only,
        limit=args.limit if args.limit > 0 else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = events.dump_jsonl(fh, records)
        print(f"{count} events written to {args.out}")
    else:
        events.dump_jsonl(sys.stdout, records)
    return 0


def cmd_chaos(args) -> int:
    """Run a sweep under injected faults; require bit-identical results."""
    from repro.resilience.chaos import render as render_chaos
    from repro.resilience.chaos import run_chaos

    store = getattr(args, "store", "")
    if store:
        # Validate eagerly for an actionable error, but do NOT
        # configure_store: exporting REPRO_STORE would leak the remote
        # into the fault-free baseline phase, which must stay hermetic.
        # run_chaos applies the URL to the faulted phase only.
        from repro.store import StoreError, parse_store_url

        try:
            parse_store_url(store)
        except StoreError as exc:
            raise SystemExit(f"--store: {exc}")
        args.store = ""
    _apply_common(args)
    workloads = ([w.strip() for w in args.workloads.split(",") if w.strip()]
                 if args.workloads else None)
    jobs = args.jobs if args.jobs and args.jobs > 0 else None
    report = run_chaos(
        faults=args.faults,
        seed=args.seed,
        workloads=workloads or ("kmeans", "histogram"),
        cores=args.cores,
        per_core=args.scale,
        jobs=jobs,
        retries=args.retries,
        timeout_s=args.timeout if args.timeout > 0 else None,
        keep=args.keep,
        out=args.out,
        store=store,
    )
    print(render_chaos(report))
    return 0 if report["ok"] else 1


def _parse_size(text: str) -> int:
    """``BYTES`` with an optional K/M/G/T suffix (decimal, e.g. 500M)."""
    raw = text.strip()
    scale = 1
    suffixes = {"K": 10 ** 3, "M": 10 ** 6, "G": 10 ** 9, "T": 10 ** 12}
    if raw and raw[-1].upper() in suffixes:
        scale = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        raise ValueError(f"bad size {text!r} (use BYTES or e.g. 500M)")
    if value <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return value


def cmd_doctor(args) -> int:
    """Audit cache/trace-store integrity; exit nonzero on problems."""
    from repro.resilience.doctor import run_doctor
    from repro.store import FsStore, get_store

    _apply_common(args)
    # --store (configured above) audits any backend, including a remote
    # `repro serve`; otherwise the local trees, which an FsStore serves.
    store = (get_store() if args.store
             else FsStore(args.cache_dir or None,
                          trace_root=args.trace_dir or None))
    try:
        budget = _parse_size(args.prune_to_size) if args.prune_to_size else None
    except ValueError as exc:
        raise SystemExit(f"--prune-to-size: {exc}")
    report = run_doctor(
        store,
        fix=args.fix,
        prune_older_than_days=(args.prune_older_than
                               if args.prune_older_than > 0 else None),
        prune_to_size_bytes=budget,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Run the sweep service until interrupted."""
    from repro.service.app import serve

    jobs = _apply_common(args)
    return serve(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir or None,
        jobs=jobs,
        default_ttl_s=args.ttl if args.ttl > 0 else None,
        quiet=not args.verbose,
    )


def _submit_specs(args) -> List[dict]:
    """The workload x protocol grid of spec payloads a submit describes."""
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    protocols = [p.strip() for p in (args.protocol or "mesi,sw,sw+mr,mw")
                 .split(",") if p.strip()]
    specs = []
    for workload in workloads:
        for name in protocols:
            spec = {
                "workload": workload,
                "protocol": _protocol(name).value,
                "cores": args.cores,
                "per_core": args.scale,
                "seed": args.seed,
            }
            if args.block_bytes > 0:
                spec["block_bytes"] = args.block_bytes
            specs.append(spec)
    return specs


def cmd_submit(args) -> int:
    """Submit a sweep to a running service; optionally wait for results."""
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    specs = _submit_specs(args)
    submitted = client.submit_sweep(
        specs, priority=args.priority,
        ttl_s=args.ttl if args.ttl > 0 else None)
    job_id = submitted["job_id"]
    how = ("served from cache" if submitted["cached"]
           else "deduplicated onto an in-flight job" if submitted["deduped"]
           else "queued")
    print(f"job {job_id}: {submitted['state']} "
          f"({submitted['total']} specs, {how})")
    if not args.wait and not submitted["cached"]:
        return 0
    status = client.wait(job_id, timeout_s=args.timeout, poll_s=args.poll)
    print(f"job {job_id}: done — {status['completed']}/{status['total']} "
          f"specs, {status['executed']} executed, "
          f"{status['cache_hits']} cache hits")
    if args.out:
        payload = client.job_result(job_id)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        print(f"result matrix written to {args.out}")
    return 0


def cmd_jobs(args) -> int:
    """List, inspect, or cancel jobs on a running service."""
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.cancel:
        record = client.cancel(args.cancel)
        print(f"job {record['id']}: {record['state']}")
        return 0
    if args.result:
        payload = client.job_result(args.result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            print(f"result matrix written to {args.out}")
        else:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        return 0
    if args.job:
        print(json.dumps(client.job_status(args.job), indent=2,
                         sort_keys=True))
        return 0
    jobs = client.list_jobs(state=args.state or None, limit=args.limit)
    print(f"{'id':>16} {'state':>9} {'prio':>4} {'specs':>5} {'done':>5} "
          f"{'hits':>5} {'exec':>5}")
    for job in jobs:
        print(f"{job['id']:>16} {job['state']:>9} {job['priority']:>4} "
              f"{job['total']:>5} {job['completed']:>5} "
              f"{job['cache_hits']:>5} {job['executed']:>5}")
    if not jobs:
        print("(no jobs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro._version import package_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Protozoa: adaptive granularity cache coherence (ISCA'13) "
                    "— reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list bundled workloads",
                       parents=[_common_parent()])
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="simulate one workload/protocol",
                       parents=[_common_parent()])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top-20 functions "
                        "by cumulative time")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_run, protocol="mw")

    p = sub.add_parser("compare", help="one workload under all protocols",
                       parents=[_common_parent()])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    _add_machine_args(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("report", help="regenerate every table/figure",
                       parents=[_common_parent()])
    p.add_argument("--out", default="")
    p.add_argument("--journal", default="",
                   help="record completed runs to this JSONL sweep "
                        "journal (crash-safe; see docs/resilience.md)")
    p.add_argument("--resume", action="store_true",
                   help="load the journal first and replay only "
                        "uncompleted runs (default journal: "
                        "<cache-dir>/journal.jsonl)")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("bench",
                       help="gate warm-sweep cache hits, parallel fan-out "
                            "and the observability tax; write "
                            "BENCH_protozoa.json",
                       parents=[_common_parent()])
    p.add_argument("--out", default="BENCH_protozoa.json")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the random protocol tester",
                       parents=[_common_parent()])
    p.add_argument("--accesses", type=int, default=5000)
    p.add_argument("--regions", type=int, default=8)
    p.add_argument("--same-set", action="store_true",
                   help="force capacity churn (all regions in one L1 set)")
    p.add_argument("--seeds", type=int, default=1,
                   help="sweep this many seeds starting at --seed (default 1)")
    p.add_argument("--write-frac", type=float, default=0.45)
    p.add_argument("--max-span", type=int, default=4,
                   help="largest access span in words (default 4)")
    p.add_argument("--check-every", type=int, default=8,
                   help="invariant-check every N accesses (default 8)")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check",
                       help="bounded model checking + differential verification",
                       parents=[_common_parent()])
    p.add_argument("--cores", type=int, default=2)
    p.add_argument("--regions", type=int, default=1)
    p.add_argument("--depth", type=int, default=6,
                   help="exhaustive interleaving depth (default 6)")
    p.add_argument("--pressure", type=int, default=1,
                   help="extra read-only regions forcing L1 evictions")
    p.add_argument("--mode", default="all",
                   choices=["all", "explore", "diff", "mutants"])
    p.add_argument("--mutant-depth", type=int, default=4,
                   help="exploration depth for the mutation audit (default 4)")
    p.add_argument("--save", default="",
                   help="write the first shrunk counterexample to this file")
    p.add_argument("--replay", default="",
                   help="replay a saved counterexample trace instead of checking")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("inspect", help="profile workloads' sharing/locality",
                       parents=[_common_parent()])
    p.add_argument("--workload", default="", choices=[""] + sorted(WORKLOADS))
    _add_machine_args(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("trace", help="dump a workload trace to a file",
                       parents=[_common_parent()])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--out", required=True)
    _add_machine_args(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("replay", help="replay a saved trace file",
                       parents=[_common_parent()])
    p.add_argument("--trace", required=True)
    _add_machine_args(p)
    p.set_defaults(fn=cmd_replay, protocol="mw")

    p = sub.add_parser("chaos",
                       help="sweep under an injected fault plan and assert "
                            "bit-identical results (repro.resilience)",
                       parents=[_common_parent()])
    p.add_argument("--faults", default="",
                   help="REPRO_FAULTS-grammar fault plan (default: one of "
                        "every fault kind; see docs/resilience.md)")
    p.add_argument("--workloads", default="",
                   help="comma-separated workload subset "
                        "(default kmeans,histogram)")
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--scale", type=int, default=300,
                   help="accesses per core (default 300: chaos runs the "
                        "matrix twice)")
    p.add_argument("--retries", type=int, default=3,
                   help="parallel retry rounds before degrading to serial")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-wait stall deadline in seconds (0: no deadline)")
    p.add_argument("--keep", action="store_true",
                   help="keep the scratch directory (caches, journal, "
                        "quarantine) for inspection")
    p.add_argument("--out", default="",
                   help="write the JSON chaos report here")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("doctor",
                       help="audit result/trace cache integrity "
                            "(entries, temp orphans, quarantine)",
                       parents=[_common_parent()])
    p.add_argument("--cache-dir", default="",
                   help="result cache root to audit (default "
                        "REPRO_CACHE_DIR or ~/.cache/repro); its trace "
                        "tree is --trace-dir, else REPRO_TRACE_CACHE_DIR, "
                        "else <cache-dir>/traces")
    p.add_argument("--fix", action="store_true",
                   help="remove orphaned temp files and quarantine corrupt "
                        "entries (payloads are never deleted)")
    p.add_argument("--prune-older-than", type=float, default=0.0,
                   metavar="DAYS",
                   help="garbage-collect result/trace cache entries whose "
                        "last write is older than DAYS days (logged to the "
                        "cache's GC manifest; quarantine is never touched)")
    p.add_argument("--prune-to-size", default="", metavar="BYTES",
                   help="evict least-recently-written entries until the "
                        "store fits BYTES (K/M/G/T suffixes accepted); "
                        "manifest-logged before deletion, never touches "
                        "quarantine or spooled unflushed tiered writes")
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("serve",
                       help="run the sweep service (HTTP/JSON-RPC + durable "
                            "job queue over the experiment engine)",
                       parents=[_common_parent()])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8673,
                   help="TCP port (0 picks an ephemeral port; default 8673)")
    p.add_argument("--state-dir", default="",
                   help="queue/journal/result state directory (default "
                        "REPRO_SERVICE_DIR or <cache-dir>/service)")
    p.add_argument("--ttl", type=float, default=0.0,
                   help="default queued-job TTL in seconds "
                        "(0: the built-in 24h)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a workload x protocol sweep to a "
                            "running service",
                       parents=[_common_parent()])
    p.add_argument("--url", default="http://127.0.0.1:8673",
                   help="service endpoint (default http://127.0.0.1:8673)")
    p.add_argument("--workloads", required=True,
                   help="comma-separated workload names")
    p.add_argument("--cores", type=int, default=16)
    p.add_argument("--scale", type=int, default=2000,
                   help="accesses per core (default 2000)")
    p.add_argument("--block-bytes", type=int, default=0,
                   help="override the MESI block size (default: config)")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority (higher dispatches first)")
    p.add_argument("--ttl", type=float, default=0.0,
                   help="job TTL in seconds (0: service default)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job completes")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait deadline in seconds (default 600)")
    p.add_argument("--poll", type=float, default=0.2,
                   help="--wait: longest gap in seconds between status "
                        "updates; the wait itself ends as soon as the "
                        "job does (default 0.2, server cap 30)")
    p.add_argument("--out", default="",
                   help="write the completed result matrix (JSON) here")
    p.set_defaults(fn=cmd_submit,
                   protocol="")  # empty: all four protocols

    p = sub.add_parser("jobs",
                       help="list, inspect, or cancel jobs on a running "
                            "service",
                       parents=[_common_parent()])
    p.add_argument("--url", default="http://127.0.0.1:8673",
                   help="service endpoint (default http://127.0.0.1:8673)")
    p.add_argument("--state", default="",
                   help="only jobs in this state (queued/running/done/"
                        "failed/cancelled/expired)")
    p.add_argument("--limit", type=int, default=0,
                   help="show at most N jobs, newest first (default: all)")
    p.add_argument("--job", default="", help="print one job's full status")
    p.add_argument("--result", default="",
                   help="print (or --out: save) one job's result matrix")
    p.add_argument("--cancel", default="", help="cancel a queued job")
    p.add_argument("--out", default="",
                   help="write --result output here instead of stdout")
    p.set_defaults(fn=cmd_jobs)

    p = sub.add_parser("events",
                       help="trace per-transaction coherence events and "
                            "dump/filter/summarize them",
                       parents=[_common_parent()])
    p.add_argument("--workload", default="kmeans", choices=sorted(WORKLOADS))
    p.add_argument("--ring", type=int, default=4096,
                   help="event ring-buffer capacity (default 4096; oldest "
                        "events are overwritten beyond it)")
    p.add_argument("--sample", type=int, default=1,
                   help="keep 1-in-N transactions (default 1: all)")
    p.add_argument("--span", type=int, default=1,
                   help="admit sampled transactions in contiguous spans of "
                        "K (default 1: plain every-Nth sampling); kept "
                        "bursts make message sequences readable in context")
    p.add_argument("--core", type=int, default=None,
                   help="only events issued by this core")
    p.add_argument("--op", default=None, choices=["r", "w", "R", "W"],
                   help="only reads (r) or writes (w)")
    p.add_argument("--misses-only", action="store_true",
                   help="drop L1 hits from the dump")
    p.add_argument("--limit", type=int, default=0,
                   help="emit at most N events (default: all retained)")
    p.add_argument("--out", default="",
                   help="write JSONL here instead of stdout")
    p.add_argument("--summary", action="store_true",
                   help="print an aggregate summary instead of events")
    p.add_argument("--input", default="",
                   help="summarize an existing JSONL dump instead of running")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_events, protocol="mw")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
