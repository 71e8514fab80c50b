"""Every report cell reproduces the benchmark's committed golden digest.

``perfbench/goldens.json`` holds, per cell of a cold ``repro report`` at
16 cores x 25 accesses/core and seed 0 (28 workloads x 4 protocols, plus
Table 1's MESI block sizes), the digest of the cell's ``RunStats``.  Each
cell must reproduce it through three entries: the engine's default path
(``execute_spec``, a trace from the trace cache), the forced batch loop
on the same packed trace (batch == scalar), and the object streams the
workload generators yield, which the simulator packs on entry.  The
digest and the key come from ``perfbench.golden`` so they have one
definition.
"""

import pytest

from perfbench.golden import cell_key, digest, load
from repro.common.params import ProtocolKind
from repro.experiments._engine import RunSpec, execute_spec
from repro.experiments.runner import ALL_PROTOCOLS, ExperimentSettings
from repro.experiments.table1 import BLOCK_SIZES
from repro.system.machine import simulate
from repro.trace._cache import packed_streams
from repro.trace.workloads import build_streams

CORES = 16
PER_CORE = 25
SEED = 0
GOLDENS = load()
CELLS = [RunSpec(name, protocol, block, CORES, PER_CORE, SEED)
         for name in ExperimentSettings().workload_names()
         for protocol, block in ([(p, None) for p in ALL_PROTOCOLS]
                                 + [(ProtocolKind.MESI, b)
                                    for b in BLOCK_SIZES])]


def test_cells_are_exactly_the_committed_report_cells():
    suffix = f"/{CORES}c/{PER_CORE}/s{SEED}"
    committed = {key for key in GOLDENS if key.endswith(suffix)}
    assert {cell_key(spec) for spec in CELLS} == committed
    assert len(CELLS) == 224


@pytest.mark.parametrize("spec", CELLS, ids=cell_key)
def test_cell_reproduces_its_golden(spec):
    golden = GOLDENS[cell_key(spec)]
    assert digest(execute_spec(spec).stats.to_dict()) == golden
    trace = packed_streams(spec.workload, cores=spec.cores,
                           per_core=spec.per_core, seed=spec.seed)
    batched = simulate(trace, spec.config(), name=spec.workload, batch=True)
    assert digest(batched.stats.to_dict()) == golden
    streams = build_streams(spec.workload, cores=spec.cores,
                            per_core=spec.per_core, seed=spec.seed)
    objects = simulate(streams, spec.config(), name=spec.workload)
    assert digest(objects.stats.to_dict()) == golden
