"""The observability contract: off is a no-op, on changes no counter.

Every protocol runs the same seeded trace twice — once plain, once with
full tracing — and the complete serialized counter state must be
bit-identical.  This is the guarantee that lets tracing be flipped on in
production sweeps without invalidating any cached or published number.
"""

import pytest

from repro.common.params import ProtocolKind, SystemConfig
from repro.obs import ObsConfig, Observability, resolve_obs
from repro.system.machine import simulate
from repro.trace.workloads import build_streams

CORES = 4
PER_CORE = 400
SEED = 11


def run(kind, obs=None, workload="kmeans"):
    streams = build_streams(workload, cores=CORES, per_core=PER_CORE,
                            seed=SEED)
    config = SystemConfig(protocol=kind, cores=CORES)
    return simulate(streams, config, name=workload, obs=obs)


@pytest.mark.parametrize("kind", list(ProtocolKind),
                         ids=[k.short_name for k in ProtocolKind])
class TestCounterParity:
    def test_full_tracing_changes_no_counter(self, kind):
        plain = run(kind)
        traced = run(kind, obs=ObsConfig(enabled=True))
        assert plain.stats.to_dict() == traced.stats.to_dict()

    def test_wrapped_ring_changes_no_counter(self, kind):
        # 32 slots for 1600 transactions: the ring overwrites in place.
        plain = run(kind)
        traced = run(kind, obs=ObsConfig(enabled=True, ring_size=32))
        assert traced.obs.events.dropped == traced.stats.accesses - 32
        assert plain.stats.to_dict() == traced.stats.to_dict()

    def test_traced_run_observed_every_access(self, kind):
        traced = run(kind, obs=ObsConfig(enabled=True))
        events = traced.obs.events
        assert events.seen == traced.stats.accesses
        assert events.hits == traced.stats.accesses - traced.stats.misses
        assert events.misses == traced.stats.misses


class TestDisabledIsNoop:
    def test_no_obs_attaches_nothing(self):
        result = run(ProtocolKind.MESI)
        assert result.obs is None
        assert result.metrics is None
        assert result.phase_seconds is None
        assert "metrics" not in result.to_dict()

    def test_obs_false_forces_off_despite_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        result = run(ProtocolKind.MESI, obs=False)
        assert result.obs is None

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        result = run(ProtocolKind.MESI)
        assert result.obs is not None
        assert result.metrics is not None

    def test_disabled_protocol_hooks_stay_none(self):
        result = run(ProtocolKind.PROTOZOA_MW)
        assert result.protocol._obs is None
        assert result.protocol._obs_events is None


class TestObservedArtifacts:
    def test_metrics_project_run_stats(self):
        result = run(ProtocolKind.PROTOZOA_MW, obs=ObsConfig(enabled=True))
        counters = result.metrics["counters"]
        labels = "protocol=protozoa-mw,workload=kmeans"
        assert (counters[f"repro_accesses_total{{op=read,{labels}}}"]
                == result.stats.reads)
        assert (counters[f"repro_instructions_total{{{labels}}}"]
                == result.stats.instructions)
        miss_hist = result.metrics["histograms"][
            f"repro_miss_latency_cycles{{{labels}}}"]
        assert miss_hist["count"] == result.stats.miss_latency.count

    def test_phase_timers_cover_simulate_and_flush(self):
        result = run(ProtocolKind.MESI, obs=ObsConfig(enabled=True))
        assert set(result.phase_seconds) >= {"simulate", "flush"}
        assert result.phase_seconds["simulate"] > 0

    def test_trace_hook_chains_with_existing_observer(self):
        """attach_obs must not clobber a pre-installed trace_hook."""
        from repro.system.machine import build_protocol

        seen = []
        config = SystemConfig(protocol=ProtocolKind.MESI, cores=2)
        protocol = build_protocol(config)
        protocol.trace_hook = lambda *a: seen.append(a)
        protocol.attach_obs(Observability(ObsConfig(enabled=True)))
        protocol.read(0, 0, 8, 0)
        assert seen, "pre-existing trace_hook was dropped"
        assert protocol._obs_events.seen == 1  # obs saw the access too


class TestResolveObs:
    def test_none_without_env_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert resolve_obs(None) is None

    def test_true_is_enabled_defaults(self):
        session = resolve_obs(True)
        assert session is not None
        assert session.events is not None

    def test_disabled_config_is_off(self):
        assert resolve_obs(ObsConfig(enabled=False)) is None

    def test_session_passes_through(self):
        session = Observability(ObsConfig(enabled=True))
        assert resolve_obs(session) is session


class TestEnvDefaults:
    """Env-enabled obs records what a run ships; only callers get a ring."""

    def test_env_enabled_run_has_metrics_and_timers_and_no_ring(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        result = run(ProtocolKind.PROTOZOA_MW)
        assert result.obs.events is None
        assert result.protocol._obs_events is None
        assert result.metrics["counters"]
        assert set(result.phase_seconds) >= {"simulate", "flush"}

    def test_from_env_builds_no_ring(self):
        config = ObsConfig.from_env({"REPRO_OBS": "1"})
        assert config == ObsConfig(enabled=True, events=False)
        assert Observability(config).events is None

    def test_constructor_default_is_full_fidelity(self):
        # obs=True / ObsConfig(enabled=True): a ring recording every
        # transaction, on the scalar loop.
        config = ObsConfig(enabled=True)
        assert config.events
        assert Observability(config).events is not None
