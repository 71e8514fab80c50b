"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload replay-hits --seeds 0-9

Runs ``perfbench/run.py`` once per seed (sequentially, untraced) and
prints, per gated metric, every value, the median, and the distance
between the first and third quartiles as a share of the median — the
figure that must stay below a third of the metric's bound for the
benchmark to be steady.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spec  # noqa: E402
from perfbench.stats import median, spread  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = p.parse_args()
    run_py = Path(__file__).with_name("run.py")
    values = {m.name: [] for m in spec.END_TO_END}
    status = 0
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  f"{proc.stderr[-1500:]}", flush=True)
            status = 1
            continue
        result = json.loads(lines[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        for name in values:
            values[name].append(row[name])
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.6g}"
                                           for k, v in row.items()),
              flush=True)
    for m in spec.END_TO_END:
        vals = values[m.name]
        if len(vals) < 2:
            continue
        share = spread(vals)
        verdict = "ok" if share < m.bound / 3 else (
            "WITHIN BOUND" if share <= m.bound else "OVER BOUND")
        print(f"{args.workload} {m.name}: median {median(vals):.6g} "
              f"{m.unit}, spread {share:.4f} (bound {m.bound}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
