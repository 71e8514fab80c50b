#!/usr/bin/env python3
"""CI smoke test for the sweep service (the ``service-smoke`` job).

End to end, through the real CLI entry points:

1. start ``repro serve`` on an ephemeral port in a subprocess;
2. submit a two-protocol sweep with ``repro submit --wait`` and save
   the result matrix;
3. assert the matrix byte-matches a direct in-process
   ``repro.api.sweep`` of the same grid (separate result cache, so the
   service actually computed its copy);
4. re-submit the identical sweep and assert it is answered from cache
   with **zero** new engine executions;
5. submit one fresh cell with ``--wait --poll 30`` and assert it returns
   in well under the poll interval: ``job_status`` long-polls, so the
   wait ends when the job does, not on the next poll.

Exit status 0 on success; any failure prints a diagnosis and exits 1.
The scratch tree it works in is removed on PASS; on FAIL it is kept,
and its path printed, for inspection.

Usage: python tools/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = "histogram,kmeans"
PROTOCOLS = "mesi,mw"
CORES, SCALE = 4, 300
#: A poll interval far longer than one small job, and the bound the
#: long-polled wait must beat (a sleep-polling client takes >= POLL_S).
POLL_S, LONG_POLL_BOUND_S = 30, 10.0


def fail(message: str) -> "NoReturn":  # noqa: F821 — py3.10 friendly
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def cli(args, env, **kwargs):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          env=env, text=True, capture_output=True,
                          timeout=600, **kwargs)


def health(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/health", timeout=30) as resp:
        return json.loads(resp.read().decode("utf-8"))


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    try:
        status = smoke(scratch)
    except BaseException:
        print(f"service-smoke: scratch tree kept at {scratch}",
              file=sys.stderr)
        raise
    shutil.rmtree(scratch, ignore_errors=True)
    return status


def smoke(scratch: Path) -> int:
    env = dict(os.environ,
               PYTHONPATH=str(REPO / "src"),
               REPRO_CACHE_DIR=str(scratch / "service-cache"),
               REPRO_JOBS="2")
    env.pop("REPRO_FAULTS", None)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(scratch / "state")],
        env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT)
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            fail(f"serve printed no URL banner: {banner!r}")
        url = match.group(0)
        print(f"service-smoke: serving at {url}")

        submit = ["submit", "--url", url, "--workloads", WORKLOADS,
                  "--protocol", PROTOCOLS, "--cores", str(CORES),
                  "--scale", str(SCALE)]
        matrix_path = scratch / "matrix.json"
        first = cli(submit + ["--wait", "--out", str(matrix_path)], env)
        print(first.stdout, end="")
        if first.returncode != 0:
            fail(f"submit --wait failed:\n{first.stdout}\n{first.stderr}")
        if "queued" not in first.stdout:
            fail(f"first submission should queue, got:\n{first.stdout}")

        # The service's matrix must byte-match a direct repro.api.sweep
        # of the same grid, computed against a *separate* result cache.
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "reference-cache")
        os.environ["REPRO_JOBS"] = "2"
        sys.path.insert(0, str(REPO / "src"))
        from repro.api import RunSpec, parse_protocol, sweep

        specs = [RunSpec(workload=workload, protocol=parse_protocol(name),
                         cores=CORES, per_core=SCALE, seed=0)
                 for workload in WORKLOADS.split(",")
                 for name in PROTOCOLS.split(",")]
        reference = {spec.digest(): result.to_dict()
                     for spec, result in sweep(specs).items()}
        served = {RunSpec.from_payload(cell["spec"]).digest(): cell["result"]
                  for cell in json.loads(matrix_path.read_text())["results"]}
        if served != reference:
            fail("service matrix does not match direct repro.api.sweep")
        print(f"service-smoke: matrix of {len(served)} cells byte-matches "
              "direct sweep")

        executed_before = health(url)["engine"]["executed"]
        second = cli(submit, env)
        print(second.stdout, end="")
        if second.returncode != 0:
            fail(f"re-submit failed:\n{second.stdout}\n{second.stderr}")
        if "served from cache" not in second.stdout:
            fail(f"re-submission was not a cache hit:\n{second.stdout}")
        executed_after = health(url)["engine"]["executed"]
        if executed_after != executed_before:
            fail(f"re-submission ran the engine: executed went "
                 f"{executed_before} -> {executed_after}")
        print("service-smoke: re-submission served from cache, "
              "zero new engine executions")

        fresh = ["submit", "--url", url, "--workloads", "histogram",
                 "--protocol", "sw", "--cores", str(CORES),
                 "--scale", str(SCALE), "--wait", "--poll", str(POLL_S)]
        start = time.monotonic()
        third = cli(fresh, env)
        took = time.monotonic() - start
        print(third.stdout, end="")
        if third.returncode != 0 or "queued" not in third.stdout:
            fail(f"fresh submit --wait failed:\n{third.stdout}\n"
                 f"{third.stderr}")
        if took >= LONG_POLL_BOUND_S:
            fail(f"fresh submit --wait --poll {POLL_S} took {took:.1f}s "
                 f"(bound {LONG_POLL_BOUND_S:.0f}s): the wait is not "
                 "woken when the job finishes")
        print(f"service-smoke: fresh one-cell submit --wait --poll {POLL_S} "
              f"returned in {took:.2f}s")

        jobs = cli(["jobs", "--url", url], env)
        if jobs.returncode != 0 or "done" not in jobs.stdout:
            fail(f"jobs listing failed:\n{jobs.stdout}\n{jobs.stderr}")
        print("service-smoke: PASS")
        return 0
    finally:
        # SIGINT is repro serve's clean stop: it drains the in-flight job
        # and shuts the worker pool down, where SIGTERM would orphan the
        # pool's workers.
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
