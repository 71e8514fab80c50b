"""Hermetic runs: scrubbed environment, fresh scratch trees, process
accounting (peak RSS, CPU time, child reaping)."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch caches, span dumps and reports; removed per run except ``out/``.
WORK = ROOT / ".perfbench"

_serial = itertools.count()


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def scrub(environ) -> List[str]:
    """Drop every ``REPRO_*`` setting (obs, faults, batch, store, cache
    switches, scale, workload subset, jobs, ...) so that no inherited
    knob changes what is measured; returns the names removed."""
    removed = sorted(k for k in environ if k.startswith("REPRO_"))
    for key in removed:
        del environ[key]
    return removed


def scratch(tag: str) -> Path:
    """A fresh, empty directory for one pass's caches and state."""
    path = WORK / f"{tag}-{os.getpid()}-{next(_serial)}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def point_caches(environ, root: Path) -> None:
    """Result, trace and service state all under ``root`` (empty)."""
    environ["REPRO_CACHE_DIR"] = str(root / "results")
    environ["REPRO_TRACE_CACHE_DIR"] = str(root / "traces")
    environ["REPRO_SERVICE_DIR"] = str(root / "service")


def child_env(root: Path) -> Dict[str, str]:
    """Environment for a program subprocess using ``root`` for state."""
    env = dict(os.environ)
    scrub(env)
    point_caches(env, root)
    env["PYTHONPATH"] = str(SRC)
    return env


def _status_kb(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (VmHWM) of live processes, in MiB."""
    total_kb = 0
    for pid in pids:
        kb = _status_kb(pid, "VmHWM")
        if kb is None:
            if pid != os.getpid():
                raise RuntimeError(f"process {pid} is gone; its peak RSS "
                                   "must be read while it is alive")
            import resource
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        total_kb += kb
    return total_kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every ``multiprocessing`` child of this process ended.

    ``ExperimentEngine.close()`` can return while pool workers are still
    exiting; the next pass must not start (or be timed) beside them.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers still alive after "
                               f"{timeout_s:.0f}s")
        time.sleep(0.01)


def settings(removed: List[str]) -> Dict:
    """What the numbers depend on besides the code: recorded per run."""
    try:
        import numpy  # noqa: F401 — only speeds up deriving batch columns
        has_numpy = True
    except ImportError:
        has_numpy = False
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": has_numpy,
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "engine_jobs": affinity,  # ExperimentEngine's default worker count
        "batch": "on (default)",
        "obs": "off",
        "scrubbed_env": removed,
    }
