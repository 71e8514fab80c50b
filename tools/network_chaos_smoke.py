#!/usr/bin/env python3
"""CI smoke test for coordinator outages (the ``network-chaos-smoke`` job).

End to end, through the real CLI entry points:

1. start ``repro serve`` on an ephemeral port; record the single-process
   reference report every later phase must reproduce byte-for-byte;
2. run a worker over ``--store tiered+http://...?local=DIR`` with the
   network fault sites armed (``store-get-error`` / ``store-put-stall``
   / ``store-conn-refused``) **and** kill the coordinator mid-sweep,
   restarting it a couple of seconds later — injected weather plus a
   real outage.  The tier spools unflushed writes and serves reads
   locally; the worker must finish with a byte-identical report;
3. audit the tier with ``repro doctor --store tiered+...`` once the
   coordinator is back: the audit drains the spool to the remote and
   must find zero quarantine leaks or structural problems;
4. cold-local / warm-remote: a second worker with a *fresh* local tier
   absorbs the whole sweep from the coordinator — zero cells computed;
5. warm-local / unreachable-remote: stop the coordinator for good and
   run a third worker against the warmed tier — still byte-identical,
   still zero cells computed, remote completely dark.

A fault-site firing report (token counts, phase outcomes) is written to
``network-chaos-report.json`` for the CI artifact upload.

Exit status 0 on success; any failure prints a diagnosis and exits 1.
The scratch tree it works in is removed on PASS; on FAIL it is kept,
and its path printed, for inspection.

Usage: python tools/network_chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = "histogram,kmeans"
CORES, SCALE = 4, 200
FAULTS = ("store-get-error:n=2:every=3;store-put-stall:n=1:ms=50;"
          "store-conn-refused:n=1:every=5")
NETWORK_SITES = ("store-get-error", "store-put-stall", "store-conn-refused")

SUMMARY = re.compile(
    r"sweep shared via .*: (\d+) run\(s\) computed here, "
    r"(\d+) absorbed from other workers, (\d+) lease takeover\(s\)")

REPORT: dict = {"phases": {}, "fired": {}}


def fail(message: str) -> "NoReturn":  # noqa: F821 — py3.10 friendly
    REPORT["ok"] = False
    REPORT["failure"] = message
    _write_report()
    print(f"network-chaos-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _write_report() -> None:
    with open("network-chaos-report.json", "w") as fh:
        json.dump(REPORT, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_cmd(out: Path, journal: Path, store: str):
    return [sys.executable, "-m", "repro", "report", "--out", str(out),
            "--cores", str(CORES), "--scale", str(SCALE), "--jobs", "1",
            "--journal", str(journal), "--store", store]


def start_serve(env: dict, port: int = 0):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--state-dir", env["_STATE_DIR"]],
        env={k: v for k, v in env.items() if not k.startswith("_")},
        text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    banner = server.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if match is None:
        server.kill()
        fail(f"serve printed no URL banner: {banner!r}")
    return server, match.group(0), int(match.group(1))


def stop_serve(server) -> None:
    server.terminate()
    try:
        server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server.kill()


def summary_of(stderr: str):
    match = SUMMARY.search(stderr)
    if match is None:
        fail(f"worker printed no sharing summary:\n{stderr}")
    return tuple(int(group) for group in match.groups())


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-network-chaos-"))
    try:
        status = smoke(scratch)
    except BaseException:
        print(f"network-chaos-smoke: scratch tree kept at {scratch}",
              file=sys.stderr)
        raise
    shutil.rmtree(scratch, ignore_errors=True)
    return status


def smoke(scratch: Path) -> int:
    base_env = dict(os.environ,
                    PYTHONPATH=str(REPO / "src"),
                    REPRO_WORKLOADS=WORKLOADS,
                    REPRO_TRACE_CACHE_DIR=str(scratch / "traces"))
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_DIR", "REPRO_STORE",
                 "REPRO_OBS"):
        base_env.pop(name, None)

    serve_env = dict(base_env,
                     REPRO_CACHE_DIR=str(scratch / "service-cache"),
                     REPRO_TRACE_CACHE_DIR=str(scratch / "service-traces"),
                     _STATE_DIR=str(scratch / "state"))
    server, url, port = start_serve(serve_env)
    try:
        print(f"network-chaos-smoke: coordinator at {url}")

        # The single-process reference every phase must reproduce.
        ref_env = dict(base_env,
                       REPRO_CACHE_DIR=str(scratch / "reference-cache"))
        ref_path = scratch / "reference.txt"
        reference = subprocess.run(
            [sys.executable, "-m", "repro", "report", "--out",
             str(ref_path), "--cores", str(CORES), "--scale", str(SCALE),
             "--jobs", "1"],
            env=ref_env, text=True, capture_output=True, timeout=900)
        if reference.returncode != 0:
            fail(f"reference report failed:\n{reference.stderr}")
        ref_bytes = ref_path.read_bytes()
        print(f"network-chaos-smoke: reference: {len(ref_bytes)} bytes")

        # Phase 1: faulted worker through a tiered store, coordinator
        # killed mid-sweep and restarted.
        journal = scratch / "journal.jsonl"
        budget = scratch / "fault-budget"
        tier1 = scratch / "tier1"
        tiered_url = f"tiered+{url}?local={tier1}"
        env1 = dict(base_env, REPRO_FAULTS=FAULTS,
                    REPRO_FAULTS_DIR=str(budget))
        worker = subprocess.Popen(
            report_cmd(scratch / "w1.txt", journal, tiered_url),
            env=env1, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)

        deadline = time.monotonic() + 600
        while time.monotonic() < deadline:
            if worker.poll() is not None:
                break  # finished before the flap: identity still checked
            if journal.exists() and journal.read_text().count("\n") >= 1:
                break
            time.sleep(0.1)
        flapped = worker.poll() is None
        if flapped:
            server.kill()
            server.wait(timeout=10)
            print("network-chaos-smoke: coordinator KILLED mid-sweep")
            time.sleep(2.0)
            server, url2, _ = start_serve(serve_env, port=port)
            if url2 != url:
                fail(f"coordinator came back at {url2}, expected {url}")
            print("network-chaos-smoke: coordinator restarted")
        stdout, stderr = worker.communicate(timeout=900)
        if worker.returncode != 0:
            fail(f"faulted worker failed (rc {worker.returncode}):\n{stderr}")
        if (scratch / "w1.txt").read_bytes() != ref_bytes:
            fail("faulted worker report differs from the reference")
        executed1, absorbed1, takeovers1 = summary_of(stderr)
        fired = {site: len(list(budget.glob(f"{site}.*")))
                 for site in NETWORK_SITES}
        REPORT["fired"] = fired
        if sum(fired.values()) == 0:
            fail("no network fault site ever fired — the rehearsal was idle")
        spooled_after = len(list((tier1 / "spool").glob("*"))) \
            if (tier1 / "spool").is_dir() else 0
        REPORT["phases"]["faulted"] = {
            "executed": executed1, "absorbed": absorbed1,
            "takeovers": takeovers1, "coordinator_flapped": flapped,
            "spool_remaining_at_exit": spooled_after}
        print(f"network-chaos-smoke: faulted worker byte-identical "
              f"({executed1} computed, flap={'yes' if flapped else 'no'}, "
              f"fired={fired}, {spooled_after} spooled at exit)")

        # Phase 2: doctor the tier — drains the spool to the healthy
        # remote and must find zero quarantine leaks.
        doctor = subprocess.run(
            [sys.executable, "-m", "repro", "doctor", "--store",
             tiered_url],
            env=dict(base_env), text=True, capture_output=True, timeout=300)
        if doctor.returncode != 0:
            fail(f"doctor found problems in the tier:\n{doctor.stdout}")
        leftover = len(list((tier1 / "spool").glob("*"))) \
            if (tier1 / "spool").is_dir() else 0
        if leftover:
            fail(f"{leftover} spooled write(s) survived a healthy reconnect")
        REPORT["phases"]["doctor"] = {"ok": True, "spool_drained": True}
        print("network-chaos-smoke: doctor clean, spool drained")

        # Phase 3: cold local tier, warm remote — zero simulations.
        tier2 = scratch / "tier2"
        cold = subprocess.run(
            report_cmd(scratch / "w2.txt", journal,
                       f"tiered+{url}?local={tier2}"),
            env=dict(base_env), text=True, capture_output=True, timeout=900)
        if cold.returncode != 0:
            fail(f"cold-local worker failed:\n{cold.stderr}")
        if (scratch / "w2.txt").read_bytes() != ref_bytes:
            fail("cold-local worker report differs from the reference")
        executed2, absorbed2, _ = summary_of(cold.stderr)
        if executed2 != 0:
            fail(f"cold-local/warm-remote worker re-simulated {executed2} "
                 "cell(s) — the remote read-through failed")
        REPORT["phases"]["cold_local_warm_remote"] = {
            "executed": executed2, "absorbed": absorbed2}
        print(f"network-chaos-smoke: cold-local worker absorbed "
              f"{absorbed2} cell(s), computed 0")

        # Phase 4: warm local tier, remote gone for good.
        stop_serve(server)
        server = None
        dark = subprocess.run(
            report_cmd(scratch / "w3.txt", journal,
                       f"tiered+{url}?local={tier2}"),
            env=dict(base_env), text=True, capture_output=True, timeout=900)
        if dark.returncode != 0:
            fail(f"warm-local worker failed with the remote dark:\n"
                 f"{dark.stderr}")
        if (scratch / "w3.txt").read_bytes() != ref_bytes:
            fail("warm-local worker report differs from the reference")
        executed3, absorbed3, _ = summary_of(dark.stderr)
        if executed3 != 0:
            fail(f"warm-local/unreachable-remote worker re-simulated "
                 f"{executed3} cell(s) — the local tier did not serve")
        REPORT["phases"]["warm_local_dark_remote"] = {
            "executed": executed3, "absorbed": absorbed3}
        print(f"network-chaos-smoke: warm-local worker survived a dark "
              f"coordinator ({absorbed3} absorbed, 0 computed)")

        REPORT["ok"] = True
        _write_report()
        print("network-chaos-smoke: PASS")
        return 0
    finally:
        if server is not None:
            stop_serve(server)


if __name__ == "__main__":
    sys.exit(main())
