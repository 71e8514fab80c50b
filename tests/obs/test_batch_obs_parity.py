"""Batch + observability: counter parity and engagement, all protocols.

Env-enabled observability (``REPRO_OBS=1``) records metrics and phase
timers and no event ring, and keeps the batched issue loop: a batched
hit records nothing live, because the hit and miss totals of the metric
dump derive from ``RunStats``.  So the observable outputs — ``RunStats``
*and* the metric dump — must be byte-identical to the scalar obs run.
These tests also prove the batch engine actually *engaged*
(``maybe_run_batched`` returned ``True``) rather than passing trivially
by declining.
"""

from __future__ import annotations

import json

import pytest

from repro.common.params import ProtocolKind, SystemConfig
from repro.obs import ObsConfig
from repro.system import batch as batch_mod
from repro.system.machine import simulate
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams

from tests.conftest import ALL_KINDS

#: What ``REPRO_OBS=1`` builds: metrics and timers, no event ring.
RINGLESS = ObsConfig(enabled=True, events=False)


def packed(workload: str, cores: int = 4, per_core: int = 300,
           seed: int = 0) -> PackedTrace:
    return PackedTrace.from_streams(
        build_streams(workload, cores=cores, per_core=per_core, seed=seed))


def run_pair(kind, workload: str = "kmeans", cores: int = 4,
             per_core: int = 300):
    trace = packed(workload, cores=cores, per_core=per_core)
    config = SystemConfig(protocol=kind, cores=cores, check_values=False)
    scalar = simulate(trace, config, obs=RINGLESS, batch=False)
    batched = simulate(trace, config, obs=RINGLESS, batch=True)
    return scalar, batched


#: (protocol, cores, per_core) of each kmeans pair: every protocol at
#: 4 x 300, and again at 8 x 400, where twice as many cores share its
#: regions.
CASES = ([pytest.param(kind, 4, 300, id=kind.value) for kind in ALL_KINDS]
         + [pytest.param(kind, 8, 400, id=f"{kind.value}-8x400")
            for kind in ALL_KINDS])


@pytest.mark.parametrize("kind,cores,per_core", CASES)
class TestParity:
    def test_stats_identical(self, kind, cores, per_core):
        scalar, batched = run_pair(kind, cores=cores, per_core=per_core)
        assert batched.stats.to_dict() == scalar.stats.to_dict()

    def test_metric_dumps_byte_identical(self, kind, cores, per_core):
        scalar, batched = run_pair(kind, cores=cores, per_core=per_core)
        assert (json.dumps(batched.metrics, sort_keys=True)
                == json.dumps(scalar.metrics, sort_keys=True))

    def test_batching_engaged(self, kind, cores, per_core, monkeypatch):
        ran = []
        real = batch_mod.maybe_run_batched

        def spy(sim, max_accesses):
            ran.append(real(sim, max_accesses))
            return ran[-1]

        monkeypatch.setattr(batch_mod, "maybe_run_batched", spy)
        _, batched = run_pair(kind, cores=cores, per_core=per_core)
        assert ran == [False, True]  # the scalar reference, then batched
        assert batched.obs.events is None

    def test_transaction_counters_match(self, kind, cores, per_core):
        # repro_txn_total is projected from RunStats, so batch-executed
        # hits land in it exactly as scalar ones do.
        for result in run_pair(kind, cores=cores, per_core=per_core):
            assert txn_total(result) == expected_txn_total(result.stats)


def txn_total(result):
    return {key: value for key, value in result.metrics["counters"].items()
            if key.startswith("repro_txn_total")}


def expected_txn_total(stats):
    """``repro_txn_total`` as ``RunStats`` implies it: only the
    ``op``/``outcome`` labels, zero series left out."""
    series = {
        "repro_txn_total{op=read,outcome=hit}": stats.read_hits,
        "repro_txn_total{op=read,outcome=miss}": stats.read_misses,
        "repro_txn_total{op=write,outcome=hit}": stats.write_hits,
        "repro_txn_total{op=write,outcome=miss}":
            stats.write_misses + stats.upgrade_misses,
    }
    return {key: value for key, value in series.items() if value}


class TestTxnTotal:
    @pytest.mark.parametrize("batch", [False, True],
                             ids=["scalar", "batched"])
    def test_zero_series_left_out(self, batch):
        # Each core re-reads its own 8 regions: no write, so no write
        # series at all, and a read-hit series the batch runner fills.
        per_core = batch_mod.MIN_EVENTS_PER_CORE
        trace = PackedTrace.from_streams(
            [[MemAccess.read(c * 0x10000 + 64 * (i % 8))
              for i in range(per_core)] for c in range(4)])
        config = SystemConfig(protocol=ProtocolKind.MESI, cores=4)
        result = simulate(trace, config, obs=RINGLESS, batch=batch)
        assert set(txn_total(result)) == {
            "repro_txn_total{op=read,outcome=hit}",
            "repro_txn_total{op=read,outcome=miss}",
        }
        assert txn_total(result) == expected_txn_total(result.stats)


class TestRecordStream:
    def test_every_scalar_miss_still_has_a_record(self):
        # A requested ring takes the scalar loop even under batch=True,
        # so it holds the same records as the scalar run, misses and all.
        trace = packed("kmeans")
        config = SystemConfig(protocol=ALL_KINDS[0], cores=4)
        scalar = simulate(trace, config, obs=True, batch=False)
        forced = simulate(trace, config, obs=True, batch=True)
        assert forced.obs.events.records() == scalar.obs.events.records()
        assert forced.obs.events.misses == forced.stats.misses > 0
