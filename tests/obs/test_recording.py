"""Per-event counts: kept where they happen, projected once per run.

Directory actions are counted on the protocol engine and messages (by hop
count and by flit count) on the network accountant; the registry sees
them only when the run ends.  These tests recount the same events from
the event ring with eager ``inc``/``observe`` and require the projected
series to match, and pin what a session or engine reused across runs
holds.
"""

import pytest

from repro.coherence.messages import MsgType
from repro.common.addresses import WORD_BYTES
from repro.common.params import (CONTROL_MESSAGE_BYTES, ProtocolKind,
                                 SystemConfig)
from repro.obs import MetricsRegistry, ObsConfig, Observability
from repro.system._simulator import Simulator
from repro.system.machine import build_protocol, simulate
from repro.trace.workloads import build_streams

CORES = 4
PER_CORE = 300
PROTOCOLS = list(ProtocolKind)
IDS = [k.short_name for k in ProtocolKind]
OBSERVED = ("repro_actions_total", "repro_message_hops",
            "repro_message_flits")


def streams(workload):
    return build_streams(workload, cores=CORES, per_core=PER_CORE, seed=0)


def observed_series(dump):
    """The per-event series of a metrics dump (counters and histograms)."""
    return {kind: {key: value for key, value in dump[kind].items()
                   if key.split("{")[0] in OBSERVED}
            for kind in ("counters", "histograms")}


@pytest.mark.parametrize("workload", ["kmeans", "apache"])
@pytest.mark.parametrize("kind", PROTOCOLS, ids=IDS)
def test_projection_matches_the_event_ring(kind, workload):
    config = SystemConfig(protocol=kind, cores=CORES)
    obs = ObsConfig(enabled=True, ring_size=CORES * PER_CORE)
    result = simulate(streams(workload), config, name=workload, obs=obs)
    events = result.obs.events
    assert events.dropped == 0 and events.seen == CORES * PER_CORE

    net = result.protocol.net
    hop_table = result.protocol.topology.hop_table
    recount = MetricsRegistry()
    recount.histogram("repro_message_hops")
    recount.histogram("repro_message_flits")
    for record in events.records():
        for action, _target in record["actions"]:
            recount.inc("repro_actions_total", kind=action)
        for _label, src, dst, payload_words in record["msgs"]:
            recount.observe("repro_message_hops", hop_table[src][dst])
            recount.observe("repro_message_flits", net.flits(
                CONTROL_MESSAGE_BYTES + payload_words * WORD_BYTES))

    expected = observed_series(recount.to_dict())
    assert observed_series(result.metrics) == expected
    assert (expected["histograms"]["repro_message_hops"]["count"]
            == net.total_messages > 0)


@pytest.mark.parametrize("kind", PROTOCOLS, ids=IDS)
def test_reused_session_holds_the_merge_of_single_runs(kind):
    def run(workload, session):
        config = SystemConfig(protocol=kind, cores=CORES)
        return simulate(streams(workload), config, name=workload, obs=session)

    def session():
        return Observability(ObsConfig(enabled=True, events=False))

    merged = MetricsRegistry()
    for workload in ("kmeans", "apache"):
        merged.merge_dict(run(workload, session()).metrics)
    shared = session()
    run("kmeans", shared)
    assert run("apache", shared).metrics == merged.to_dict()


@pytest.mark.parametrize("kind", PROTOCOLS, ids=IDS)
def test_resumed_run_projects_each_event_once(kind):
    config = SystemConfig(protocol=kind, cores=CORES)
    whole = simulate(streams("kmeans"), config, name="kmeans",
                     obs=ObsConfig(enabled=True, events=False))

    session = Observability(ObsConfig(enabled=True, events=False))
    simulator = Simulator(build_protocol(config), streams("kmeans"),
                          obs=session)
    simulator.run(max_accesses=CORES * PER_CORE // 2, flush=False)
    stats = simulator.run()
    assert stats.to_dict() == whole.stats.to_dict()
    assert (observed_series(session.metrics.to_dict())
            == observed_series(whole.metrics))


@pytest.mark.parametrize("block", [16, 32, 64, 128])
def test_counts_are_sized_to_the_longest_route_and_widest_message(block):
    config = SystemConfig(protocol=ProtocolKind.MESI).with_block_bytes(block)
    protocol = build_protocol(config)
    protocol.attach_obs(Observability(ObsConfig(enabled=True, events=False)))
    hop_table = protocol.topology.hop_table
    nodes = range(len(hop_table))
    src, dst = max(((a, b) for a in nodes for b in nodes),
                   key=lambda route: hop_table[route[0]][route[1]])
    net = protocol.net
    net.transfer(src, dst, MsgType.WBACK.size_bytes(config.words_per_region))
    assert net.obs_hop_counts[-1] == 1
    assert net.obs_flit_counts[-1] == 1
