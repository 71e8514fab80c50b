#!/usr/bin/env python3
"""CI smoke test for multi-host sweeps (the ``distributed-smoke`` job).

End to end, through the real CLI entry points:

1. start ``repro serve`` on an ephemeral port — the service doubles as
   the fleet's shared blob store (``/blob/<key>`` endpoints);
2. run a single-process ``repro report`` as the byte-identity reference;
3. run **two concurrent** ``repro report --journal <shared> --store
   http://...`` workers over the same matrix: they lease specs from the
   shared journal's claim directory, publish results to the service's
   store, and absorb each other's completions;
4. assert both workers' reports are byte-identical to the reference;
5. assert the fleet divided the work (no spec simulated twice) and the
   shared store actually served blobs across processes
   (``repro_service_blob_hits_total`` > 0).

Exit status 0 on success; any failure prints a diagnosis and exits 1.
The scratch tree it works in is removed on PASS; on FAIL it is kept,
and its path printed, for inspection.

Usage: python tools/distributed_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = "histogram,kmeans"
CORES, SCALE = 4, 200

SUMMARY = re.compile(
    r"sweep shared via .*: (\d+) run\(s\) computed here, "
    r"(\d+) absorbed from other workers, (\d+) lease takeover\(s\)")


def fail(message: str) -> "NoReturn":  # noqa: F821 — py3.10 friendly
    print(f"distributed-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def report_cmd(out: Path, journal: Path = None, store: str = None):
    cmd = [sys.executable, "-m", "repro", "report", "--out", str(out),
           "--cores", str(CORES), "--scale", str(SCALE), "--jobs", "1"]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    if store is not None:
        cmd += ["--store", store]
    return cmd


def metrics(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as resp:
        return json.loads(resp.read().decode("utf-8"))


def counter_total(counters: dict, name: str) -> int:
    return sum(value for key, value in counters.items()
               if key.split("{")[0] == name)


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-distributed-smoke-"))
    try:
        status = smoke(scratch)
    except BaseException:
        print(f"distributed-smoke: scratch tree kept at {scratch}",
              file=sys.stderr)
        raise
    shutil.rmtree(scratch, ignore_errors=True)
    return status


def smoke(scratch: Path) -> int:
    base_env = dict(os.environ,
                    PYTHONPATH=str(REPO / "src"),
                    REPRO_WORKLOADS=WORKLOADS,
                    REPRO_TRACE_CACHE_DIR=str(scratch / "traces"))
    for name in ("REPRO_FAULTS", "REPRO_STORE", "REPRO_OBS"):
        base_env.pop(name, None)

    serve_env = dict(base_env,
                     REPRO_CACHE_DIR=str(scratch / "service-cache"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(scratch / "state")],
        env=serve_env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT)
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            fail(f"serve printed no URL banner: {banner!r}")
        url = match.group(0)
        print(f"distributed-smoke: shared store at {url}")

        # The single-process reference every worker must reproduce.
        ref_env = dict(base_env,
                       REPRO_CACHE_DIR=str(scratch / "reference-cache"))
        ref_path = scratch / "reference.txt"
        reference = subprocess.run(report_cmd(ref_path), env=ref_env,
                                   text=True, capture_output=True,
                                   timeout=900)
        if reference.returncode != 0:
            fail(f"reference report failed:\n{reference.stderr}")
        ref_bytes = ref_path.read_bytes()
        print(f"distributed-smoke: reference report: {len(ref_bytes)} bytes")

        # Two workers, one journal, one remote store — started together.
        journal = scratch / "journal.jsonl"
        outs = [scratch / "worker1.txt", scratch / "worker2.txt"]
        workers = [subprocess.Popen(report_cmd(out, journal=journal,
                                               store=url),
                                    env=dict(base_env), text=True,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
                   for out in outs]
        executed = takeovers = 0
        for index, worker in enumerate(workers, start=1):
            _, stderr = worker.communicate(timeout=900)
            if worker.returncode != 0:
                fail(f"worker {index} failed:\n{stderr}")
            match = SUMMARY.search(stderr)
            if match is None:
                fail(f"worker {index} printed no sharing summary:\n{stderr}")
            ran, absorbed, taken = (int(g) for g in match.groups())
            print(f"distributed-smoke: worker {index}: {ran} computed, "
                  f"{absorbed} absorbed, {taken} takeover(s)")
            executed += ran
            takeovers += taken

        for out in outs:
            if out.read_bytes() != ref_bytes:
                fail(f"{out.name} differs from the single-process reference")
        print("distributed-smoke: both worker reports byte-identical "
              "to the reference")

        cells = len(list((scratch / "service-cache").rglob("*.json")))
        if takeovers != 0:
            fail(f"{takeovers} lease takeover(s) in a healthy fleet")
        if executed != cells:
            fail(f"fleet simulated {executed} run(s) for {cells} distinct "
                 "cells — the leases did not divide the work")
        print(f"distributed-smoke: {cells} cells simulated exactly once "
              "across the fleet")

        counters = metrics(url)["counters"]
        hits = counter_total(counters, "repro_service_blob_hits_total")
        puts = counter_total(counters, "repro_service_blob_puts_total")
        if puts == 0:
            fail("workers never published a blob to the shared store")
        if hits == 0:
            fail("shared store served zero blob hits — workers did not "
                 "share results")
        print(f"distributed-smoke: shared store: {puts} blob put(s), "
              f"{hits} blob hit(s) across workers")
        print("distributed-smoke: PASS")
        return 0
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
