"""Time the batched issue loop against the scalar loop, cell by cell.

Prints the rows of the sweep table in docs/performance.md ("Batch
execution over packed traces"): each cell's trace is packed once, then
the scalar loop (``batch=False``) and the default mode (``batch=None``
with the length gate set aside) run alternately, three times each, with
the derive memo cleared before every run.  A row sums each cell's best
time per mode and counts the cells the reuse gate let batch.  Exits 1 if
any cell's RunStats differ between the modes::

    PYTHONPATH=src python tools/batch_sweep.py     # every row, minutes
    PYTHONPATH=src python tools/batch_sweep.py --cells replay-hits --shape 16x2000
"""

import argparse
import sys
import time

from repro.common.params import ProtocolKind, SystemConfig
from repro.system import batch as batch_mod
from repro.system.machine import simulate
from repro.trace.derived import numpy_or_none
from repro.trace.packed import PackedTrace
from repro.trace.workloads import WORKLOADS, build_streams

#: Per row set: its cells as (workload, protocol, trace seed), the report's
#: 28 workloads x 4 protocols or perfbench's replay-hits cells over trace
#: seeds 0-7, and its CORESxACCESSES shapes.
CELLS = {
    "full matrix": ([(w, kind, 0) for w in WORKLOADS for kind in ProtocolKind],
                    "16x25 4x200 16x200 16x500 16x1000 16x2000"),
    "replay-hits": ([(w, ProtocolKind.PROTOZOA_MW, seed) for seed in range(8)
                     for w in ("linear-regression", "string-match")],
                    "16x25 4x200 16x200 16x256 16x384 16x500 16x512 16x768 "
                    "16x1000 16x2000"),
}


def time_cell(trace: PackedTrace, config: SystemConfig, ran: list):
    """Best scalar and default-mode seconds, and whether the default batched."""
    best = {False: float("inf"), None: float("inf")}
    stats = {}
    for _ in range(3):
        for mode in (False, None):
            trace._derived.clear()
            start = time.perf_counter()
            stats[mode] = simulate(trace, config, batch=mode).stats.to_dict()
            best[mode] = min(best[mode], time.perf_counter() - start)
    if stats[False] != stats[None]:
        sys.exit(f"RunStats differ between the modes on {config}")
    return best[False], best[None], ran[-1]


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cells", choices=sorted(CELLS), action="append")
    p.add_argument("--shape", action="append",
                   help="e.g. 16x4000 (default: the table's rows)")
    args = p.parse_args(argv)
    numpy_or_none()  # the one-time import stays out of every cell's time
    real, ran = batch_mod.maybe_run_batched, []

    def spy(sim, max_accesses):
        ran.append(real(sim, max_accesses))
        return ran[-1]

    batch_mod.maybe_run_batched = spy
    batch_mod.MIN_EVENTS_PER_CORE = 0  # the length gate is set aside
    for name in args.cells or CELLS:
        cells, shapes = CELLS[name]
        for shape in args.shape or shapes.split():
            cores, per_core = map(int, shape.split("x"))
            totals = [0.0, 0.0, 0]
            for workload, kind, seed in cells:
                trace = PackedTrace.from_streams(build_streams(
                    workload, cores=cores, per_core=per_core, seed=seed))
                config = SystemConfig(protocol=kind, cores=cores)
                for k, value in enumerate(time_cell(trace, config, ran)):
                    totals[k] += value
            scalar, default, batched = totals
            print(f"| {name} | {cores} × {per_core} | {batched} of "
                  f"{len(cells)} | {scalar:.3f} s | {default:.3f} s | "
                  f"{scalar / default:.2f}× |", flush=True)


if __name__ == "__main__":
    main()
