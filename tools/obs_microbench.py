#!/usr/bin/env python
"""Micro-benchmark of per-event observability recording cost.

Isolates the recording shapes the simulator could be in, doing the same
logical work per event (one counter bump + one histogram observation),
without any simulation around them:

* ``disabled`` — the zero-cost-off shape: one attribute load and an
  ``is None`` test per event, nothing recorded;
* ``counts``   — what the simulator does: a per-kind dict add (as the
  protocol engines count ``repro_actions_total{kind=...}``) plus a
  value-indexed list add (as the network accountant counts messages by
  hop count) per event, projected into the registry once at the end
  with ``inc`` and ``HistogramData.add_counts``;
* ``eager``    — recording straight into the registry:
  ``MetricsRegistry.inc`` (label formatting + dict upsert) plus
  ``HistogramData.observe`` per event.

The counts and eager registries must dump byte-identically — projecting
once is an optimization, not a different metric — and the run exits
nonzero if they do not, which is what makes this suitable as a CI smoke
step.  Prints a JSON report (ns/event per mode + ratios).

Usage: ``python tools/obs_microbench.py [--n 2000000]``
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    from repro.obs.metrics import MetricsRegistry
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.obs.metrics import MetricsRegistry

#: Deterministic value stream with a realistic spread of small ints
#: (hop counts / flit counts are single digits to low tens).
VALUES = [(i * 7) % 23 for i in range(1024)]


def bench_disabled(n: int) -> tuple:
    hook = None
    values = VALUES
    start = time.perf_counter()
    for i in range(n):
        if hook is not None:
            hook(values[i & 1023])
    return time.perf_counter() - start, MetricsRegistry()


def bench_counts(n: int) -> tuple:
    registry = MetricsRegistry()
    actions = {"invalidate": 0}
    counts = [0] * (max(VALUES) + 1)
    values = VALUES
    start = time.perf_counter()
    for i in range(n):
        actions["invalidate"] += 1
        counts[values[i & 1023]] += 1
    for kind, count in actions.items():
        registry.inc("repro_actions_total", count, kind=kind)
    registry.histogram("repro_message_hops").add_counts(counts)
    return time.perf_counter() - start, registry


def bench_eager(n: int) -> tuple:
    registry = MetricsRegistry()
    inc = registry.inc
    observe = registry.histogram("repro_message_hops").observe
    values = VALUES
    start = time.perf_counter()
    for i in range(n):
        inc("repro_actions_total", kind="invalidate")
        observe(values[i & 1023])
    return time.perf_counter() - start, registry


MODES = {
    "disabled": bench_disabled,
    "counts": bench_counts,
    "eager": bench_eager,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2_000_000,
                        help="events per mode (default 2,000,000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per mode (default 3)")
    args = parser.parse_args(argv)

    report = {"events": args.n, "repeats": args.repeats, "modes": {}}
    dumps = {}
    for mode, fn in MODES.items():
        best = None
        for _ in range(max(1, args.repeats)):
            seconds, registry = fn(args.n)
            if best is None or seconds < best:
                best = seconds
        dumps[mode] = registry.to_dict()
        report["modes"][mode] = {
            "seconds": round(best, 4),
            "ns_per_event": round(best / args.n * 1e9, 1),
        }

    modes = report["modes"]
    report["counts_vs_eager_speedup"] = round(
        modes["eager"]["ns_per_event"] / modes["counts"]["ns_per_event"], 2)
    report["counts_tax_ns"] = round(
        modes["counts"]["ns_per_event"] - modes["disabled"]["ns_per_event"],
        1)
    equivalent = (json.dumps(dumps["counts"], sort_keys=True)
                  == json.dumps(dumps["eager"], sort_keys=True))
    report["counts_equals_eager"] = equivalent
    print(json.dumps(report, indent=2))
    if not equivalent:
        print("FAIL: projected registry dump differs from the eager path",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
