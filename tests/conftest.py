"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.common.params import PredictorKind, ProtocolKind, SystemConfig
from repro.system.machine import build_protocol


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_cache(tmp_path_factory):
    """Point the experiment engine's persistent cache at a session tempdir.

    Tests must neither read stale entries from nor write entries into the
    user's real ``~/.cache/repro``.
    """
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="session", autouse=True)
def _hermetic_trace_cache(tmp_path_factory):
    """Point the packed trace cache at a session tempdir (same contract as
    the result-cache fixture: no reads from or writes to the user's real
    ``~/.cache/repro/traces``)."""
    import os

    old = os.environ.get("REPRO_TRACE_CACHE_DIR")
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("trace-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_TRACE_CACHE_DIR", None)
    else:
        os.environ["REPRO_TRACE_CACHE_DIR"] = old

@pytest.fixture(scope="session", autouse=True)
def _hermetic_resilience_env():
    """Strip ambient fault-injection / retry knobs from the environment.

    An armed ``REPRO_FAULTS`` (or stray retry overrides) in the invoking
    shell would perturb every engine-backed test; resilience tests arm
    faults explicitly through monkeypatch instead.
    """
    import os

    names = ("REPRO_FAULTS", "REPRO_FAULTS_DIR", "REPRO_MAX_RETRIES",
             "REPRO_TASK_TIMEOUT", "REPRO_BACKOFF_BASE", "REPRO_RETRY_SEED")
    saved = {name: os.environ.pop(name, None) for name in names}
    from repro.resilience.faults import reset_injector

    reset_injector()
    yield
    for name, value in saved.items():
        if value is not None:
            os.environ[name] = value


ALL_KINDS = list(ProtocolKind)
PROTOZOA_KINDS = [k for k in ALL_KINDS if k is not ProtocolKind.MESI]


def small_config(kind: ProtocolKind, cores: int = 4, *,
                 predictor: PredictorKind = PredictorKind.SINGLE_WORD,
                 check: bool = True, **overrides) -> SystemConfig:
    """A small fully-checked machine for protocol scenario tests.

    The single-word predictor keeps requests exactly at the accessed words
    so scenarios control overlap precisely.
    """
    return SystemConfig(
        protocol=kind,
        cores=cores,
        predictor=predictor,
        check_invariants=check,
        check_values=check,
        **overrides,
    )


def make_engine(kind: ProtocolKind, cores: int = 4, **kw):
    return build_protocol(small_config(kind, cores, **kw))


class MessageLog:
    """Collects (label, src, dst, payload_words) tuples from the engine."""

    def __init__(self, protocol):
        self.entries = []
        protocol.trace_hook = self._hook

    def _hook(self, mtype, src, dst, payload_words):
        self.entries.append((mtype.label, src, dst, payload_words))

    def labels(self):
        return [e[0] for e in self.entries]

    def count(self, label: str) -> int:
        return sum(1 for e in self.entries if e[0] == label)

    def clear(self):
        self.entries.clear()


@pytest.fixture(params=ALL_KINDS, ids=[k.short_name for k in ALL_KINDS])
def any_kind(request):
    return request.param


@pytest.fixture(params=PROTOZOA_KINDS, ids=[k.short_name for k in PROTOZOA_KINDS])
def protozoa_kind(request):
    return request.param


def region_addr(region: int, word: int = 0, region_bytes: int = 64) -> int:
    return region * region_bytes + word * 8
