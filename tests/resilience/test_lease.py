"""LeaseBoard: O_EXCL work-division claims with TTL'd takeover."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.resilience.lease import (
    DEFAULT_TTL_S,
    LeaseBoard,
    default_lease_ttl,
    lease_dir_for,
)

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

DIGEST = "d" * 64


class TestClaims:
    def test_claim_is_exclusive(self, tmp_path):
        one = LeaseBoard(tmp_path, owner="one")
        two = LeaseBoard(tmp_path, owner="two")
        assert one.try_claim(DIGEST) is True
        assert two.try_claim(DIGEST) is False
        assert one.claims == 1 and two.claims == 0
        assert one.owner_of(DIGEST)["owner"] == "one"

    def test_release_frees_the_digest(self, tmp_path):
        one = LeaseBoard(tmp_path, owner="one")
        two = LeaseBoard(tmp_path, owner="two")
        assert one.try_claim(DIGEST)
        assert one.release(DIGEST) is True
        assert two.try_claim(DIGEST) is True

    def test_release_refuses_someone_elses_lease(self, tmp_path):
        one = LeaseBoard(tmp_path, owner="one")
        two = LeaseBoard(tmp_path, owner="two")
        assert one.try_claim(DIGEST)
        two._held.add(DIGEST)  # simulate a stale holder notion
        assert two.release(DIGEST) is False
        assert one.owner_of(DIGEST)["owner"] == "one"

    def test_release_all(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="one")
        digests = [f"{i:064x}" for i in range(3)]
        for digest in digests:
            assert board.try_claim(digest)
        board.release_all()
        for digest in digests:
            assert not board.path_for(digest).exists()


class TestTakeover:
    def _backdate(self, path: Path, seconds: float) -> None:
        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_expired_lease_taken_over(self, tmp_path):
        dead = LeaseBoard(tmp_path, owner="dead", ttl_s=1000)
        assert dead.try_claim(DIGEST)
        self._backdate(dead.path_for(DIGEST), seconds=30)
        taker = LeaseBoard(tmp_path, owner="taker", ttl_s=10)
        assert taker.try_claim(DIGEST) is True
        assert taker.takeovers == 1
        assert taker.owner_of(DIGEST)["owner"] == "taker"

    def test_fresh_lease_not_taken_over(self, tmp_path):
        holder = LeaseBoard(tmp_path, owner="holder", ttl_s=1000)
        assert holder.try_claim(DIGEST)
        taker = LeaseBoard(tmp_path, owner="taker", ttl_s=1000)
        assert taker.try_claim(DIGEST) is False
        assert taker.takeovers == 0

    def test_heartbeat_outlives_the_ttl(self, tmp_path):
        holder = LeaseBoard(tmp_path, owner="holder", ttl_s=1000)
        assert holder.try_claim(DIGEST)
        self._backdate(holder.path_for(DIGEST), seconds=30)
        holder.heartbeat(DIGEST)  # the slow run phones home
        taker = LeaseBoard(tmp_path, owner="taker", ttl_s=10)
        assert taker.try_claim(DIGEST) is False

    def test_zero_ttl_disables_takeover(self, tmp_path):
        holder = LeaseBoard(tmp_path, owner="holder")
        assert holder.try_claim(DIGEST)
        self._backdate(holder.path_for(DIGEST), seconds=3600)
        taker = LeaseBoard(tmp_path, owner="taker", ttl_s=0)
        assert taker.try_claim(DIGEST) is False


class TestConfig:
    def test_default_ttl_env(self, monkeypatch):
        assert default_lease_ttl() == DEFAULT_TTL_S
        monkeypatch.setenv("REPRO_LEASE_TTL", "7.5")
        assert default_lease_ttl() == 7.5
        monkeypatch.setenv("REPRO_LEASE_TTL", "garbage")
        assert default_lease_ttl() == DEFAULT_TTL_S
        monkeypatch.setenv("REPRO_LEASE_TTL", "-3")
        assert default_lease_ttl() == 0.0

    def test_lease_dir_sits_beside_the_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        assert lease_dir_for(journal) == tmp_path / "journal.jsonl.leases"

    def test_distinct_default_owners(self, tmp_path):
        assert LeaseBoard(tmp_path).owner != LeaseBoard(tmp_path).owner


RACER = textwrap.dedent("""\
    import sys
    from repro.resilience.lease import LeaseBoard

    board = LeaseBoard({root!r}, owner={owner!r})
    # Spin until the starting gun so both processes arrive together.
    import os, time
    while not os.path.exists({gun!r}):
        time.sleep(0.001)
    print("WON" if board.try_claim({digest!r}) else "LOST")
""")


HOLDER = textwrap.dedent("""\
    import time
    from repro.resilience.lease import LeaseBoard

    board = LeaseBoard({root!r}, owner="holder")
    assert board.try_claim({digest!r})
    print("CLAIMED", flush=True)
    time.sleep(120)  # hold until SIGKILL
""")


@pytest.mark.slow
class TestAcrossProcesses:
    def test_two_processes_claim_exactly_once(self, tmp_path):
        gun = tmp_path / "go"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        children = [
            subprocess.Popen(
                [sys.executable, "-c",
                 RACER.format(root=str(tmp_path / "leases"), owner=name,
                              gun=str(gun), digest=DIGEST)],
                env=env, stdout=subprocess.PIPE, text=True)
            for name in ("racer-a", "racer-b")]
        gun.touch()
        outcomes = sorted(child.communicate(timeout=60)[0].strip()
                          for child in children)
        assert all(child.returncode == 0 for child in children)
        assert outcomes == ["LOST", "WON"]

    def test_sigkilled_holder_is_released_after_ttl(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        child = subprocess.Popen(
            [sys.executable, "-c",
             HOLDER.format(root=str(tmp_path / "leases"), digest=DIGEST)],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline().strip() == "CLAIMED"
            child.kill()  # SIGKILL: no atexit, the lease file survives
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        survivor = LeaseBoard(tmp_path / "leases", owner="survivor",
                              ttl_s=0.2)
        assert survivor.try_claim(DIGEST) is False  # not yet expired
        time.sleep(0.3)
        assert survivor.try_claim(DIGEST) is True
        assert survivor.takeovers == 1
        assert survivor.owner_of(DIGEST)["owner"] == "survivor"
