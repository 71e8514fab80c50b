"""Network fault sites end to end: flapping coordinators, killed workers.

Three layers:

* the injector's ``on_store_op`` contract (which ops count as arrivals);
* ``repro chaos --store`` against a live in-process service with the
  network sites armed — the report must byte-reproduce;
* the distributed takeover drill: a SIGKILL'd leaseholder whose final
  journal flush was swallowed by a ``store-put-stall`` must be taken
  over within ``REPRO_LEASE_TTL`` with no duplicated or dropped cells.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.resilience.chaos import DEFAULT_FAULTS, render, run_chaos
from repro.resilience.faults import (
    NETWORK_FAULT_SITES,
    FaultPlan,
    InjectedStoreFault,
    get_injector,
    reset_injector,
)

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SUMMARY = re.compile(
    r"sweep shared via .*: (\d+) run\(s\) computed here, "
    r"(\d+) absorbed from other workers, (\d+) lease takeover\(s\)")


class TestOnStoreOp:
    def test_get_error_counts_only_fetch_arrivals(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store-get-error:n=1")
        reset_injector()
        injector = get_injector()
        injector.on_store_op("put")   # not a fetch: no arrival, no fire
        injector.on_store_op("stat")
        with pytest.raises(InjectedStoreFault):
            injector.on_store_op("get")
        injector.on_store_op("get")   # budget spent: clean from here on

    def test_put_stall_sleeps_for_ms(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store-put-stall:n=1:ms=80")
        reset_injector()
        start = time.monotonic()
        get_injector().on_store_op("put")
        assert time.monotonic() - start >= 0.08
        start = time.monotonic()
        get_injector().on_store_op("put")  # budget spent: no sleep
        assert time.monotonic() - start < 0.05

    def test_conn_refused_hits_every_op(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store-conn-refused:n=2")
        reset_injector()
        injector = get_injector()
        for op in ("stat", "rpc"):
            with pytest.raises(InjectedStoreFault):
                injector.on_store_op(op)
        injector.on_store_op("list")  # budget spent

    def test_injected_fault_is_an_oserror(self):
        # It must travel the exact retry path a real socket error takes.
        assert issubclass(InjectedStoreFault, OSError)

    def test_default_chaos_plan_arms_network_sites(self):
        plan = FaultPlan.parse(DEFAULT_FAULTS)
        assert set(NETWORK_FAULT_SITES) <= set(plan.sites)


@pytest.mark.slow
class TestChaosOverFlappingStore:
    def test_report_byte_reproduces_through_network_faults(self, tmp_path):
        # A real coordinator in its own process: the faults run_chaos arms
        # in *this* process fire client-side only, exactly like a worker
        # whose network to a healthy coordinator is flapping.
        serve_env = dict(os.environ, PYTHONPATH=SRC_DIR,
                         REPRO_CACHE_DIR=str(tmp_path / "service-cache"),
                         REPRO_TRACE_CACHE_DIR=str(tmp_path / "service-tr"))
        for name in ("REPRO_FAULTS", "REPRO_FAULTS_DIR", "REPRO_STORE",
                     "REPRO_OBS"):
            serve_env.pop(name, None)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state")],
            env=serve_env, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        try:
            banner = server.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match is not None, banner
            url = match.group(0)
            report = run_chaos(
                faults=("store-get-error:n=2:every=3;"
                        "store-put-stall:n=1:ms=20;"
                        "store-conn-refused:n=1:every=5"),
                workloads=("histogram",), cores=2, per_core=60, jobs=2,
                store=url)
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
            server.stdout.close()
        assert report["identical"], "matrix drifted under network faults"
        assert report["ok"], report["quarantine_leaks"]
        assert report["store"] == url
        fired = sum(report["fired"].get(site, 0)
                    for site in NETWORK_FAULT_SITES)
        assert fired >= 1, report["fired"]
        assert f"store:       {url}" in render(report)


def _worker_env(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC_DIR,
               REPRO_WORKLOADS="histogram",
               REPRO_TRACE_CACHE_DIR=str(tmp_path / "traces"))
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_DIR", "REPRO_STORE",
                 "REPRO_OBS", "REPRO_LEASE_TTL"):
        env.pop(name, None)
    return env


def _report_argv(out, journal=None, store=None):
    argv = [sys.executable, "-c",
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "report", "--out", str(out),
            "--scale", "60", "--cores", "2", "--jobs", "1"]
    if journal is not None:
        argv += ["--journal", str(journal)]
    if store is not None:
        argv += ["--store", store]
    return argv


@pytest.mark.slow
class TestKilledLeaseholderTakeover:
    def test_lost_final_flush_is_taken_over(self, tmp_path):
        # The single-process reference every survivor must reproduce.
        env = _worker_env(tmp_path)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "ref-cache")
        ref_out = tmp_path / "ref.txt"
        done = subprocess.run(_report_argv(ref_out), env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        reference = ref_out.read_bytes()
        cells = len(list((tmp_path / "ref-cache").rglob("*.json")))
        assert cells > 0

        serve_env = dict(_worker_env(tmp_path),
                         REPRO_CACHE_DIR=str(tmp_path / "shared"),
                         REPRO_TRACE_CACHE_DIR=str(tmp_path / "shared-tr"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state")],
            env=serve_env, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        try:
            banner = server.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match is not None, banner
            url = match.group(0)

            # Worker 1: one put will stall "forever" (the seeded schedule
            # skips the first put arrival, so by firing time the worker
            # holds a lease whose journal line is not yet written — the
            # flush is lost when we SIGKILL it mid-stall).
            journal = tmp_path / "journal.jsonl"
            budget = tmp_path / "budget"
            env1 = dict(_worker_env(tmp_path),
                        REPRO_FAULTS="store-put-stall:n=1:ms=600000:every=2",
                        REPRO_FAULTS_DIR=str(budget))
            worker1 = subprocess.Popen(
                _report_argv(tmp_path / "w1.txt", journal=journal,
                             store=url),
                env=env1, text=True, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE)
            token = budget / "store-put-stall.0"
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline and not token.exists():
                assert worker1.poll() is None, worker1.communicate()[1]
                time.sleep(0.05)
            assert token.exists(), "the put stall never fired"
            time.sleep(0.3)  # let the stalling put settle into its sleep

            lease_dir = Path(str(journal) + ".leases")
            leases = list(lease_dir.glob("*.lease"))
            os.kill(worker1.pid, signal.SIGKILL)
            worker1.wait(timeout=30)
            worker1.stdout.close()
            worker1.stderr.close()
            assert leases, "worker 1 held no lease at kill time"
            completed_before = (
                len(journal.read_text().splitlines())
                if journal.exists() else 0)

            # Worker 2: short TTL, no faults — it must take over the dead
            # worker's lease and finish the sweep.
            time.sleep(1.2)  # let the orphaned lease age past the TTL
            env2 = dict(_worker_env(tmp_path), REPRO_LEASE_TTL="1")
            done = subprocess.run(
                _report_argv(tmp_path / "w2.txt", journal=journal,
                             store=url),
                env=env2, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, done.stderr
            match = SUMMARY.search(done.stderr)
            assert match is not None, done.stderr
            executed, absorbed, takeovers = (
                int(group) for group in match.groups())
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
            server.stdout.close()

        # Taken over within the TTL...
        assert takeovers >= 1
        # ...byte-identical to the single-process reference...
        assert (tmp_path / "w2.txt").read_bytes() == reference
        # ...no cell dropped or computed twice: worker 2 re-ran exactly
        # the cells the dead worker never journaled, absorbed the rest.
        assert executed == cells - completed_before
        assert absorbed == completed_before
        shared = len(list((tmp_path / "shared").rglob("*.json")))
        assert shared == cells
        # Every journaled digest is unique (a duplicate line would mean
        # two workers both published-and-journaled the same cell).
        digests = [json.loads(line)["digest"]
                   for line in journal.read_text().splitlines()]
        assert len(digests) == len(set(digests)) == cells
