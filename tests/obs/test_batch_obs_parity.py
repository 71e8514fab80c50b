"""Batch + observability: counter parity and engagement, all protocols.

The batch engine used to decline whenever an event trace was attached,
so ``REPRO_OBS=1`` silently cost the batched issue loop.  Now the two
compose: batched bulk hits fold into the same scratch counter slots the
scalar hot path increments and are counted through the event trace's
transaction-level counters, so the observable outputs — ``RunStats``
*and* the metric dump — must be byte-identical to the scalar obs run.
These tests also prove the batch engine actually *engaged* (bulk hits
were counted) rather than passing trivially by declining.
"""

from __future__ import annotations

import json

import pytest

from repro.common.params import SystemConfig
from repro.system.machine import simulate
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams

from tests.conftest import ALL_KINDS


def packed(workload: str, cores: int = 4, per_core: int = 300,
           seed: int = 0) -> PackedTrace:
    return PackedTrace.from_streams(
        build_streams(workload, cores=cores, per_core=per_core, seed=seed))


def run_pair(kind, workload: str = "kmeans", cores: int = 4,
             per_core: int = 300):
    trace = packed(workload, cores=cores, per_core=per_core)
    config = SystemConfig(protocol=kind, cores=cores, check_values=False)
    scalar = simulate(trace, config, obs=True, batch=False)
    batched = simulate(trace, config, obs=True, batch=True)
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

    def test_batching_engaged(self, kind, cores, per_core):
        _, batched = run_pair(kind, cores=cores, per_core=per_core)
        assert batched.obs.events.batched > 0

    def test_transaction_counters_match(self, kind, cores, per_core):
        # seen/hits/misses are transaction-level and sampling-independent;
        # batch-executed hits must land in them too.
        scalar, batched = run_pair(kind, cores=cores, per_core=per_core)
        se, be = scalar.obs.events, batched.obs.events
        assert (be.seen, be.hits, be.misses) == (se.seen, se.hits, se.misses)


class TestRecordStream:
    def test_batched_ring_holds_only_scalar_executed_transactions(self):
        scalar, batched = run_pair(ALL_KINDS[0])
        events = batched.obs.events
        assert events.recorded < scalar.obs.events.recorded
        # Every transaction is accounted for exactly once: sealed as a
        # record, skipped by sampling, or bulk-counted by the batch engine.
        assert (events.recorded + events.sampled_out + events.batched
                == events.seen)

    def test_every_scalar_miss_still_has_a_record(self):
        scalar, batched = run_pair(ALL_KINDS[0])
        scalar_misses = [r["seq"] for r in scalar.obs.events.records()
                         if not r["hit"]]
        batched_misses = [r["seq"] for r in batched.obs.events.records()
                         if not r["hit"]]
        # Same number of miss transactions recorded; seq numbering differs
        # because batched hits are counted in bulk between them.
        assert len(batched_misses) == len(scalar_misses)
