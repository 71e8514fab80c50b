"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload report-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, all metrics
    python3 perfbench/run.py --trace 1 --workload replay-hits   # layer split
    python3 perfbench/run.py --self-test             # the benchmark's own tests

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the gated end-to-end metrics
with ``--trace 0``, every per-layer metric with ``--trace 1``).  Every
simulated result is checked against ``perfbench/goldens.json`` (or, for
seeds without committed goldens, against a reference simulation made in
the same run); any failed operation makes the exit status 1.  Maintenance:
``--write-goldens`` regenerates the digests, ``--write-manifest`` writes
``BENCHMARK.json`` from ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import hermetic, spec  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all",
                   choices=spec.WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="bench", choices=sorted(spec.SCALES))
    p.add_argument("--goldens", default=None,
                   help="golden digest file (default perfbench/goldens.json)")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-goldens", default=None, metavar="SEEDS",
                   help="recompute goldens.json for these seeds, e.g. 0,1")
    p.add_argument("--write-manifest", action="store_true")
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    p.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def run_one(args, removed) -> int:
    from perfbench import golden, report, workloads
    from perfbench.tracer import Tracer

    scale = spec.SCALES[args.scale]
    checker = golden.Checker(golden.load(Path(args.goldens))
                             if args.goldens else golden.load())
    w = next(w for w in spec.WORKLOADS if w.name == args.workload)
    mode = "traced" if args.trace else "timed (untraced)"
    print(f"== perfbench {w.name} | seed {args.seed} | scale {scale.name} | "
          f"{args.seconds:g} s | {mode} ==")
    print(f"why: {w.why}\nloop: {w.loop}; clients: {w.clients}\n"
          f"scale: {w.scale if scale.name == 'bench' else scale}")
    print("settings: " + json.dumps(hermetic.settings(removed)))
    # Nothing this process runs may touch a cache outside the checkout.
    root = hermetic.scratch("run")
    hermetic.point_caches(os.environ, root)
    try:
        if args.trace:
            outcome = workloads.TRACED[w.name](args.seed, scale, checker,
                                               Tracer())
        else:
            outcome = workloads.TIMED[w.name](args.seed, args.seconds, scale,
                                              checker)
        checker.settle()
    finally:
        hermetic.reap_children()
        shutil.rmtree(root, ignore_errors=True)
    if args.trace:
        metrics = report.layer_metrics(outcome)
        lines = report.traced_lines(outcome, metrics)
        out_dir = hermetic.WORK / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"{w.name}-seed{args.seed}"
        outcome.tracer.dump(stem.with_suffix(".spans"))
        # Per cell: miss ratio and whether the batched loop ran.
        with open(stem.with_suffix(".cells.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(outcome.notes.get("property_sims",
                                        outcome.tracer.sims), fh, indent=0)
        lines.append(f"spans and per-cell properties written to {stem}.*")
        units = {m.name: m.unit for m in spec.PER_LAYER}
    else:
        metrics = report.end_to_end(outcome)
        lines = report.timed_lines(outcome, checker)
        print("reported: " + json.dumps(report.reported(outcome, checker)))
        units = {m.name: m.unit for m in spec.END_TO_END}
        for key in ("miss_ratio", "resilience", "rounds"):
            if key in outcome.notes:
                lines.append(f"{key}: {json.dumps(outcome.notes[key])}")
    print("\n".join(lines))
    print(f"check: {checker.summary()}")
    for failure in checker.failures:
        print(f"  FAILED: {failure}")
    ok = checker.failed == 0 and checker.attempted > 0
    _emit(ok, checker.attempted, checker.failed,
          {name: {"value": value, "unit": units[name]}
           for name, value in metrics.items()})
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process; then every end-to-end metric."""
    status, attempted, failed, combined = 0, 0, 0, {}
    for name in spec.WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--scale", args.scale]
        if args.goldens:
            cmd += ["--goldens", args.goldens]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr[-2000:] if proc.returncode else "")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines or not lines[-1].startswith("{"):
            failed += 1
            attempted += 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
        extra = [ln for ln in lines if ln.startswith("reported: ")]
        if extra:
            units = {m.name: m.unit for m in spec.REPORTED_ONLY}
            for metric, value in json.loads(extra[-1][10:]).items():
                combined[f"{name}.{metric}"] = {"value": value,
                                                "unit": units[metric]}
    if not args.trace:
        print("== every end-to-end metric, by workload ==")
        for key, value in combined.items():
            print(f"  {key:<36} {value['value']:<14.6g} {value['unit']}")
    _emit(status == 0 and failed == 0, attempted, failed, combined)
    return status


def write_goldens(args) -> int:
    from perfbench import golden, workloads

    seeds = [int(s) for s in args.write_goldens.split(",")]
    digests = {}
    for scale in spec.SCALES.values():
        for seed in seeds if scale.name == "bench" else seeds[:1]:
            specs = (workloads.report_specs(scale, seed)
                     + workloads.replay_specs(scale, seed)
                     + workloads.service_specs(scale, seed))
            for cell in specs:
                digests[golden.cell_key(cell)] = golden.reference_digest(cell)
            print(f"{scale.name} seed {seed}: {len(specs)} cells", flush=True)
    document = {
        "about": "sha256 of RunStats.to_dict() as sorted JSON per cell, "
                 "from the reference path (object streams, scalar loop); "
                 f"seeds {seeds} (default {golden.DEFAULT_SEED}, held out "
                 f"{golden.HELD_OUT_SEED}); regenerate with "
                 "python3 perfbench/run.py --write-goldens "
                 + args.write_goldens,
        "digests": dict(sorted(digests.items())),
    }
    with open(golden.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=0)
        fh.write("\n")
    print(f"{len(digests)} digests written to {golden.GOLDENS}")
    return 0


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    if args.write_manifest:
        with open(hermetic.ROOT / "BENCHMARK.json", "w",
                  encoding="utf-8") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if not hermetic.program_present():
        print(f"perfbench: no program to measure ({hermetic.SRC}/repro is "
              "missing; run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(hermetic.SRC))
    removed = hermetic.scrub(os.environ)
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.loadTestsFromName(
            "perfbench.selftest")
        result = unittest.TextTestRunner(verbosity=2).run(suite)
        return 0 if result.wasSuccessful() else 1
    if args.write_goldens:
        return write_goldens(args)
    if args.child == "report-cold":
        from perfbench import workloads
        hermetic.point_caches(os.environ, Path(args.scratch))
        figures = workloads.report_pass(args.seed, spec.SCALES[args.scale],
                                        Path(args.scratch))
        print(json.dumps(figures))
        return 0
    if args.workload == "all":
        return run_all(args)
    status = run_one(args, removed)
    print(f"(run took {time.monotonic() - started:.1f} s)", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
