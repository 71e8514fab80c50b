"""Additional runner-matrix coverage."""

import pytest

from repro.common.params import ProtocolKind
from repro.experiments import runner, table1
from repro.experiments._engine import (
    ExperimentEngine,
    ResultCache,
    RunSpec,
    execute_spec,
)
from repro.experiments.runner import (
    ALL_PROTOCOLS,
    ExperimentSettings,
    ResultMatrix,
    shared_matrix,
)
from repro.store import FsStore


@pytest.fixture(scope="module")
def matrix():
    return ResultMatrix(ExperimentSettings(cores=4, per_core=120,
                                           workloads=("kmeans", "histogram")))


class TestMatrix:
    def test_all_protocols_ordering(self):
        assert ALL_PROTOCOLS[0] is ProtocolKind.MESI
        assert len(ALL_PROTOCOLS) == 4

    def test_results_carry_workload_names(self, matrix):
        result = matrix.run("kmeans", ProtocolKind.MESI)
        assert result.name == "kmeans"

    def test_runs_are_deterministic_across_matrices(self):
        settings = ExperimentSettings(cores=4, per_core=150,
                                      workloads=("histogram",))
        a = ResultMatrix(settings).run("histogram", ProtocolKind.PROTOZOA_MW)
        b = ResultMatrix(settings).run("histogram", ProtocolKind.PROTOZOA_MW)
        assert a.stats.misses == b.stats.misses
        assert a.traffic_bytes() == b.traffic_bytes()
        assert a.flit_hops() == b.flit_hops()

    def test_seed_changes_results(self):
        base = ExperimentSettings(cores=4, per_core=150, workloads=("histogram",))
        other = ExperimentSettings(cores=4, per_core=150, seed=9,
                                   workloads=("histogram",))
        a = ResultMatrix(base).run("histogram", ProtocolKind.MESI)
        b = ResultMatrix(other).run("histogram", ProtocolKind.MESI)
        assert a.traffic_bytes() != b.traffic_bytes()

    def test_sweep_on_subset(self, matrix):
        out = matrix.sweep(protocols=[ProtocolKind.MESI],
                           workloads=["histogram"])
        assert list(out) == [("histogram", ProtocolKind.MESI)]

    def test_mesi_block_sizes_respected(self, matrix):
        r16 = matrix.run("kmeans", ProtocolKind.MESI, block_bytes=16)
        r128 = matrix.run("kmeans", ProtocolKind.MESI, block_bytes=128)
        assert r16.config.words_per_region == 2
        assert r128.config.words_per_region == 16
        assert r16.stats.misses != r128.stats.misses


class TestDefaultBlockSizeTwin:
    """Table 1's 64-B MESI column is the default MESI machine: the matrix
    serves both cells from one simulation and one cache entry."""

    SETTINGS = ExperimentSettings(cores=4, per_core=60,
                                  workloads=("histogram",))

    def matrix(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(tmp_path), enabled=True))
        return ResultMatrix(self.SETTINGS, engine)

    def test_prewarm_simulates_the_twin_once(self, tmp_path):
        matrix = self.matrix(tmp_path)
        matrix.prewarm(block_sizes=table1.BLOCK_SIZES)
        # 4 protocols + the 16/32/128-B MESI cells; 64 B is MESI's default.
        assert matrix.engine.executed == 7
        assert len(list(tmp_path.rglob("*.json"))) == 7
        matrix.prewarm(block_sizes=table1.BLOCK_SIZES)
        assert matrix.engine.executed == 7

    def test_twin_equals_default_and_a_direct_run(self, tmp_path):
        matrix = self.matrix(tmp_path)
        twin = matrix.run("histogram", ProtocolKind.MESI, block_bytes=64)
        default = matrix.run("histogram", ProtocolKind.MESI)
        direct = execute_spec(RunSpec("histogram", ProtocolKind.MESI, 64,
                                      cores=4, per_core=60, seed=0))
        assert twin.to_dict() == default.to_dict()
        assert twin.to_dict() == direct.to_dict()
        assert matrix.engine.executed == 1


class TestSharedMatrix:
    """shared_matrix() must track the environment, not a stale singleton."""

    @pytest.fixture(autouse=True)
    def _reset_singleton(self, monkeypatch):
        monkeypatch.setattr(runner, "_SHARED", None)

    def test_reused_while_settings_unchanged(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "150")
        assert shared_matrix() is shared_matrix()

    def test_rebuilt_when_scale_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "150")
        before = shared_matrix()
        monkeypatch.setenv("REPRO_SCALE", "300")
        after = shared_matrix()
        assert after is not before
        assert after.settings.per_core == 300

    def test_rebuilt_when_workloads_change(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
        before = shared_matrix()
        monkeypatch.setenv("REPRO_WORKLOADS", "kmeans,histogram")
        after = shared_matrix()
        assert after is not before
        assert after.settings.workloads == ("kmeans", "histogram")
