#!/usr/bin/env python
"""Micro-benchmark of per-event observability recording cost.

Isolates the three recording strategies the simulator can be in, doing
the same logical work per event (one counter bump + one histogram
observation), without any simulation around them:

* ``disabled`` — the zero-cost-off shape: one attribute load and an
  ``is None`` test per event, nothing recorded;
* ``scratch``  — the deferred fast path: a preassigned
  ``CounterScratch`` slot add (a ``repro_actions_total{kind=...}``
  series, as the protocol engines keep per directory action) plus a
  ``BoundHistogram`` value-indexed add per event, folded into the
  registry once at the end;
* ``legacy``   — the eager path the fast path replaced:
  ``MetricsRegistry.inc`` (label formatting + dict upsert) plus
  ``HistogramData.observe`` per event.

The scratch and legacy registries must dump byte-identically — the
deferred path is an optimization, not a different metric — and the run
exits nonzero if they do not, which is what makes this suitable as a CI
smoke step.  Prints a JSON report (ns/event per mode + ratios).

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


def bench_scratch(n: int) -> tuple:
    registry = MetricsRegistry()
    scratch = registry.counter_scratch()
    slot = scratch.slot("repro_actions_total", kind="invalidate")
    slots = scratch.slots
    counts = registry.bound_histogram("repro_message_hops",
                                      max_value=max(VALUES)).counts
    values = VALUES
    start = time.perf_counter()
    for i in range(n):
        slots[slot] += 1
        counts[values[i & 1023]] += 1
    registry.fold_pending()
    return time.perf_counter() - start, registry


def bench_legacy(n: int) -> tuple:
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
    "scratch": bench_scratch,
    "legacy": bench_legacy,
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
    report["scratch_vs_legacy_speedup"] = round(
        modes["legacy"]["ns_per_event"] / modes["scratch"]["ns_per_event"], 2)
    report["scratch_tax_ns"] = round(
        modes["scratch"]["ns_per_event"] - modes["disabled"]["ns_per_event"],
        1)
    equivalent = (json.dumps(dumps["scratch"], sort_keys=True)
                  == json.dumps(dumps["legacy"], sort_keys=True))
    report["scratch_equals_legacy"] = equivalent
    print(json.dumps(report, indent=2))
    if not equivalent:
        print("FAIL: scratch-folded registry dump differs from the eager "
              "path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
