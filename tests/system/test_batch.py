"""Differential tests for the batched packed-trace issue loop.

The contract of :mod:`repro.system.batch` is *bit identity*: for every
eligible trace, ``simulate(..., batch=True)`` must produce the same
:class:`RunStats` as the scalar reference loop, field for field.  These
tests sweep that equality across protocols, workloads, machines that
evict, recall or forward, every short trace over a small alphabet, and
the edge cases (truncation, single core, forced pure-Python derive, the
decline conditions) rather than asserting anything about the batched
loop's internals.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.common.params import (CacheGeometry, L1Organization, L2Config,
                                 PredictorKind, ProtocolKind, SystemConfig)
from repro.system import batch as batch_mod
from repro.system.machine import simulate
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams

from tests.conftest import ALL_KINDS

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: (id, workload, cores, per_core): each workload at 4 x 300, and kmeans
#: again at 8 x 400, where twice as many cores share its regions.
SHAPES = ([(workload, workload, 4, 300) for workload in
           ("kmeans", "histogram", "linear-regression", "fft")]
          + [("kmeans-8x400", "kmeans", 8, 400)])

#: Machines beyond the default, each crossed with two 4 x 300 shapes:
#: a 16-region L2 recalls 115-153 times per run, a 4-set L1 evicts 39-92
#: times, and the sector L1 and 3-hop forwarding take their own paths.
MACHINES = {
    "l2-1kib": {"l2": L2Config(tiles=1, tile_kib=1)},
    "l1-4set": {"l1": CacheGeometry(sets=4)},
    "sector": {"l1_organization": L1Organization.SECTOR},
    "three-hop": {"three_hop": True},
}
MACHINE_WORKLOADS = ("kmeans", "histogram")


def differential_cases():
    for sid, workload, cores, per_core in SHAPES:
        for kind in ALL_KINDS:
            yield pytest.param(kind, workload, cores, per_core, {},
                               id=f"{sid}-{kind.value}")
    for machine, overrides in MACHINES.items():
        for workload in MACHINE_WORKLOADS:
            for kind in ALL_KINDS:
                if machine == "sector" and kind is ProtocolKind.MESI:
                    continue  # the sector L1 is a Protozoa organisation
                yield pytest.param(kind, workload, 4, 300, overrides,
                                   id=f"{machine}-{workload}-{kind.value}")


def packed(workload: str, cores: int = 4, per_core: int = 300,
           seed: int = 0) -> PackedTrace:
    return PackedTrace.from_streams(
        build_streams(workload, cores=cores, per_core=per_core, seed=seed))


def config_for(kind: ProtocolKind, cores: int = 4, **machine) -> SystemConfig:
    # check_values=False: golden-value tracking is a batch decline
    # condition, and the differential here is against the scalar loop's
    # counters, which do not depend on it.
    return SystemConfig(protocol=kind, cores=cores, check_values=False,
                        **machine)


def both(trace: PackedTrace, config: SystemConfig, **kwargs):
    scalar = simulate(trace, config, batch=False, **kwargs).stats.to_dict()
    batched = simulate(trace, config, batch=True, **kwargs).stats.to_dict()
    return scalar, batched


class TestDifferential:
    @pytest.mark.parametrize("kind,workload,cores,per_core,machine",
                             list(differential_cases()))
    def test_batch_matches_scalar(self, kind, workload, cores, per_core,
                                  machine):
        trace = packed(workload, cores, per_core)
        config = config_for(kind, cores, **machine)
        scalar = simulate(trace, config, batch=False)
        batched = simulate(trace, config, batch=True)
        assert batched.stats.to_dict() == scalar.stats.to_dict()
        recalls = batched.protocol.l2.capacity_recalls
        assert recalls == scalar.protocol.l2.capacity_recalls
        # The pressure machines must really evict or recall.
        if "l2" in machine:
            assert recalls > 0
        if "l1" in machine:
            assert scalar.stats.evictions > 0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_truncation_matches_scalar(self, kind):
        # max_accesses lands mid-trace: the executed prefix (and the
        # truncated flag) must match the scalar interleaving exactly.
        scalar, batched = both(packed("kmeans"), config_for(kind),
                               max_accesses=333)
        assert batched == scalar
        assert batched["truncated"] is True

    def test_single_core_trace(self):
        trace = packed("histogram", cores=1, per_core=400)
        scalar, batched = both(trace, config_for(ProtocolKind.MESI, cores=1))
        assert batched == scalar

    def test_pure_python_derive_matches(self, monkeypatch):
        # Force the no-numpy derive path (what CI without numpy runs) and
        # re-check identity end to end on a fresh, unmemoized trace.
        from repro.trace import derived

        monkeypatch.setattr(derived, "_np", None)
        monkeypatch.setattr(derived, "_np_probed", True)
        scalar, batched = both(packed("kmeans", seed=7),
                               config_for(ProtocolKind.PROTOZOA_SW))
        assert batched == scalar


#: The exhaustive differential's machine: 2 cores, an L1 of one 72-byte
#: set (one 64-B block with its tag, or a few single-word blocks), and a
#: predictor that fetches only the missed words, so two regions evict
#: each other and a region is often cached in pieces.
TINY = dict(cores=2, predictor=PredictorKind.SINGLE_WORD,
            l1=CacheGeometry(sets=1, set_bytes=72, fixed_ways=1))
REGION_A, REGION_B, REGION_C = 0, 64, 128
#: Core 0's alphabet: two words of region A read and one written, and a
#: write to region B, which shares the L1's one set with A.
CORE0_EVENTS = (MemAccess.read(REGION_A), MemAccess.write(REGION_A + 40),
                MemAccess.write(REGION_B), MemAccess.read(REGION_A + 8))
#: Core 1 first reads a third region late enough that its second event,
#: one of these, probes region A after core 0's hits.
CORE1_PROBES = (MemAccess.read(REGION_A + 40), MemAccess.write(REGION_A))


class TestExhaustive:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_every_small_trace_matches_scalar(self, kind):
        # Every 4-event sequence on core 0 against each core-1 probe: hits
        # deferred across evictions of their region, a victim that takes
        # deferred bits with it, and a foreign probe that must see them.
        config = config_for(kind, **TINY)
        opening = MemAccess.read(REGION_C, think=1500)
        mismatched = []
        for events in itertools.product(CORE0_EVENTS, repeat=4):
            for probe in CORE1_PROBES:
                trace = PackedTrace.from_streams(
                    [list(events), [opening, probe]])
                scalar, batched = both(trace, config)
                if batched != scalar:
                    mismatched.append((events, probe))
        runs = len(CORE0_EVENTS) ** 4 * len(CORE1_PROBES)
        assert not mismatched, (f"{len(mismatched)} of {runs} traces differ;"
                                f" first: {mismatched[0]}")


class _Boom:
    """Sentinel runner: constructing it means batching was NOT declined."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("batched runner ran where it should decline")


def _no_derive(*args, **kwargs):
    raise AssertionError("derived columns built for a declined trace")


#: Two workloads' worth of a cold report (4 protocols + Table 1's block
#: sizes), serially in a fresh process, at perfbench's report scale.
SHORT_REPORT = textwrap.dedent("""\
    import json, sys
    from repro.experiments import table1
    from repro.experiments._engine import ExperimentEngine
    from repro.experiments.runner import ExperimentSettings, ResultMatrix

    settings = ExperimentSettings(cores=16, per_core=25,
                                  workloads=("histogram", "kmeans"))
    with ExperimentEngine(jobs=1) as engine:
        ResultMatrix(settings, engine).prewarm(table1.BLOCK_SIZES)
    print(json.dumps({"executed": engine.executed,
                      "numpy": "numpy" in sys.modules}))
""")


class TestEligibility:
    def test_explicit_false_declines(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        simulate(packed("kmeans"), config_for(ProtocolKind.MESI), batch=False)

    def test_check_values_declines(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        config = SystemConfig(protocol=ProtocolKind.MESI, cores=4,
                              check_values=True)
        simulate(packed("kmeans"), config, batch=True)

    def test_event_ring_declines(self, monkeypatch):
        # A ring records every transaction; batched hits have no record.
        monkeypatch.setattr(batch_mod, "derived_for", _no_derive)
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        result = simulate(packed("kmeans"), config_for(ProtocolKind.MESI),
                          obs=True, batch=True)
        assert result.obs.events.seen == result.stats.accesses

    def test_short_trace_declines_before_deriving(self, monkeypatch):
        # 16 cores x 25 accesses: below MIN_EVENTS_PER_CORE, so default
        # mode takes the scalar loop without deriving a single column.
        monkeypatch.setattr(batch_mod, "derived_for", _no_derive)
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        trace = packed("kmeans", cores=16, per_core=25)
        result = simulate(trace, config_for(ProtocolKind.MESI, cores=16))
        assert result.stats.accesses == 16 * 25

    def test_long_high_reuse_trace_batches_by_default(self, monkeypatch):
        ran = []

        class Spy(batch_mod._BatchRunner):
            def run(self):
                ran.append(True)
                super().run()

        monkeypatch.setattr(batch_mod, "_BatchRunner", Spy)
        # Each core re-reads its own 8 regions: reuse far above MIN_REUSE.
        per_core = batch_mod.MIN_EVENTS_PER_CORE
        streams = [[MemAccess.read(c * 0x10000 + 64 * (i % 8))
                    for i in range(per_core)] for c in range(4)]
        trace = PackedTrace.from_streams(streams)
        config = config_for(ProtocolKind.MESI)
        default = simulate(trace, config).stats.to_dict()
        assert ran
        assert default == simulate(trace, config,
                                   batch=False).stats.to_dict()

    def test_low_reuse_declines_by_default_but_not_forced(self, monkeypatch):
        # One access per (core, region) pair: reuse is 1.0, far below
        # MIN_REUSE, so default mode must take the scalar loop — on a
        # trace long enough to pass the length gate ...
        per_core = batch_mod.MIN_EVENTS_PER_CORE
        streams = [[MemAccess.read((c * per_core + i) * 64)
                    for i in range(per_core)] for c in range(4)]
        trace = PackedTrace.from_streams(streams)
        config = config_for(ProtocolKind.MESI)
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        simulate(trace, config)
        monkeypatch.undo()
        # ... while batch=True bypasses the heuristic and stays identical.
        scalar, batched = both(trace, config)
        assert batched == scalar

    def test_unpacked_streams_decline(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_BatchRunner", _Boom)
        streams = [[MemAccess.read(8 * i) for i in range(10)]]
        result = simulate(streams, config_for(ProtocolKind.MESI, cores=1),
                          batch=True)
        assert result.stats.accesses == 10

    def test_short_report_never_imports_numpy(self, tmp_path):
        # numpy only speeds up deriving columns, which a short trace
        # never needs: a cold serial report at 16 x 25 must not load it.
        env = dict(os.environ, PYTHONPATH=SRC_DIR,
                   REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   REPRO_TRACE_CACHE_DIR=str(tmp_path / "traces"))
        for name in ("REPRO_STORE", "REPRO_OBS"):
            env.pop(name, None)
        child = subprocess.run([sys.executable, "-c", SHORT_REPORT],
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
        outcome = json.loads(child.stdout.splitlines()[-1])
        assert outcome["executed"] > 0
        assert outcome["numpy"] is False
