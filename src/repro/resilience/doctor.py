"""``repro doctor``: the blob-store integrity audit.

Audits the result and packed-trace namespaces of one
:class:`repro.store.BlobStore` — an :class:`~repro.store.FsStore` over
the local cache trees by default, or any ``--store`` backend, so a
remote shared ``repro serve`` store gets exactly the same checks — and
verifies what the hot paths assume:

* the store is reachable (one connectivity check, first in the report);
* every result blob and packed trace decodes exactly as a cache read
  would decode it: the audit calls the cache's own
  :meth:`~repro.store.cache.BlobCache.examine`, so a blob is flagged
  here if and only if a read would quarantine it;
* no blob sits in a fan-out directory other than its digest prefix
  (the backend's ``layout`` check);
* no orphaned ``*.tmp`` files linger from interrupted writers;
* the ``quarantine/`` areas are inventoried (manifest entries vs actual
  files), so quarantined corruption is visible, not forgotten.

Read-only by default; ``--fix`` deletes orphaned temp files and moves
corrupt or misfiled blobs into quarantine (never plain deletion of a
payload; a blob another process moved first is noted, not failed).  The
process exits nonzero when any check fails, which makes the command
usable as a CI/cron health probe.

``--prune-older-than DAYS`` adds garbage collection: blobs whose last
write is older than the cutoff are evicted so a long-running service's
cache stays bounded, and ``--prune-to-size BYTES`` evicts
least-recently-written blobs until the store fits a budget.  Every
eviction is logged to the namespace's ``GC_MANIFEST.jsonl`` (path,
mtime, age) *before* the delete, so the history of what GC removed
survives; quarantine is never pruned — quarantined blobs are evidence,
and only a human deletes evidence.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.resilience.log import warn as resilience_warn
from repro.store.cache import damage_reason


@dataclass
class CheckResult:
    """One audit section: a verdict plus its supporting detail lines."""

    name: str
    ok: bool = True
    details: List[str] = field(default_factory=list)

    def fail(self, line: str) -> None:
        self.ok = False
        self.details.append(line)

    def note(self, line: str) -> None:
        self.details.append(line)


@dataclass
class DoctorReport:
    """The audit's sections; the first is always the connectivity probe."""

    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        lines = []
        for check in self.checks:
            lines.append(f"[{'PASS' if check.ok else 'FAIL'}] {check.name}")
            lines.extend(f"    {line}" for line in check.details)
        verdict = "all checks passed" if self.ok else "PROBLEMS FOUND"
        reach = "reachable" if self.checks[0].ok else "UNREACHABLE"
        lines += ["", f"doctor: {verdict} (store {reach})"]
        return "\n".join(lines)


def _check_orphans(store, namespace: str, label: str,
                   fix: bool) -> CheckResult:
    check = CheckResult(f"{label}: orphaned temp files")
    orphans = store.orphans(namespace)
    if not orphans:
        check.note("none")
        return check
    for name in orphans:
        if fix:
            if store.remove_orphan(namespace, name):
                check.note(f"removed {name}")
            else:
                check.fail(f"could not remove {name}")
        else:
            check.fail(f"{name} (interrupted writer; --fix removes it)")
    return check


def _check_quarantine(store, namespace: str, label: str) -> CheckResult:
    check = CheckResult(f"{label}: quarantine inventory")
    inventory = store.quarantine_inventory(namespace)
    files = inventory.get("files", [])
    entries = inventory.get("manifest", [])
    if not files and not entries:
        check.note("empty")
        return check
    check.note(f"{len(files)} quarantined blob(s), "
               f"{len(entries)} manifest entr(ies)")
    for name in files:
        reason = next((entry.get("reason", "?") for entry in entries
                       if entry.get("file") == name), None)
        check.note(f"{name}: no manifest entry" if reason is None
                   else f"{name}: {reason}")
    for name in sorted({entry.get("file") for entry in entries} - set(files)):
        if name:
            check.note(f"{name}: listed in manifest but blob is gone")
    return check


def _check_layout(store, namespace: str, label: str,
                  fix: bool) -> CheckResult:
    check = CheckResult(f"{label}: layout")
    problems = store.structural_check(namespace, fix=fix)
    if not problems:
        check.note("clean")
        return check
    for problem in problems:
        if fix:
            check.note(problem)
            if "FAILED" in problem:
                check.ok = False
        else:
            check.fail(problem)
    return check


def _check_entries(store, cache, label: str, title: str,
                   fix: bool) -> CheckResult:
    """Every payload blob of ``cache``'s namespace must decode as a read
    through ``cache`` would decode it."""
    check = CheckResult(f"{label}: {title}")
    keys = [k for k in store.list(f"{cache.namespace}/")
            if k.endswith(cache.suffix)]
    good = 0
    for key in keys:
        name = key.split("/", 1)[1]
        path = store.local_path(key) if cache.by_path else None
        value, exc = cache.examine(store, key, path)
        if value is not None:
            good += 1
            continue
        if exc is None:
            continue  # evicted between list and read
        problem = damage_reason(exc)
        if not fix:
            check.fail(f"{name}: {problem}")
            continue
        moved = store.quarantine(key, problem)
        if moved is None:
            check.fail(f"{name}: {problem} (quarantine FAILED)")
        else:
            check.note(f"{name}: {problem} -> "
                       f"{'quarantined' if moved else 'already quarantined'}")
    check.note(f"{good}/{len(keys)} entries verified")
    return check


def _check_namespace(store, cache, label: str, title: str,
                     fix: bool) -> List[CheckResult]:
    label = f"{label} {store.url()}"
    return [
        _check_entries(store, cache, label, title, fix),
        _check_layout(store, cache.namespace, label, fix),
        _check_orphans(store, cache.namespace, label, fix),
        _check_quarantine(store, cache.namespace, label),
    ]


def check_result_store(store, fix: bool = False) -> List[CheckResult]:
    """The result-namespace audit."""
    from repro.experiments._engine import ResultCache

    return _check_namespace(store, ResultCache, "result store",
                            "entry integrity", fix)


def check_trace_store(store, fix: bool = False) -> List[CheckResult]:
    """The packed-trace-namespace audit."""
    from repro.trace._cache import TraceCache

    return _check_namespace(store, TraceCache, "trace store",
                            "packed-trace integrity", fix)


def _evict(store, key: str, size: int, mtime: float, now: float,
           check: CheckResult, **extra) -> bool:
    """Log one eviction to the namespace's GC manifest, then delete."""
    namespace, name = key.split("/", 1)
    store.gc_log(namespace, {
        "file": f"{name[:2]}/{name}",
        "bytes": size,
        "mtime": mtime,
        "age_days": round((now - mtime) / 86400.0, 3),
        "pruned_at": now,
        "pid": os.getpid(),
        **extra,
    })
    if store.delete(key):
        return True
    check.fail(f"could not evict {name}")
    return False


def prune_store(store, namespace: str, suffix: str, older_than_days: float,
                label: str, now: Optional[float] = None) -> CheckResult:
    """Evict one namespace's blobs whose last write predates the cutoff.

    Only payload blobs are candidates, quarantine is untouchable, and
    every eviction lands in the namespace's GC manifest *before* the
    delete.
    """
    check = CheckResult(
        f"{label}: GC (older than {older_than_days:g} day(s))")
    now = time.time() if now is None else now
    cutoff = now - older_than_days * 86400.0
    pruned = kept = freed = 0
    for key in store.list(f"{namespace}/"):
        if not key.endswith(suffix):
            continue
        stat = store.stat(key)
        if stat is None:
            continue  # a concurrent writer/GC got there first
        if stat.mtime >= cutoff:
            kept += 1
            continue
        if _evict(store, key, stat.size, stat.mtime, now, check):
            pruned += 1
            freed += stat.size
    check.note(f"{pruned} entr(ies) evicted ({freed} B freed), {kept} kept")
    if pruned:
        check.note(f"evictions logged to the {namespace} GC manifest")
    return check


def prune_store_to_size(store, budget_bytes: int, label: str,
                        now: Optional[float] = None,
                        exempt=None) -> CheckResult:
    """Evict least-recently-written blobs until the store fits a budget.

    The ordering guarantees (docs/resilience.md):

    * every eviction is **manifest-logged before the delete** — the GC
      manifest names what size pressure removed even if the process
      dies mid-prune;
    * **quarantine is never touched** — quarantined blobs are invisible
      to ``list`` and their bytes do not count against the budget;
    * **spooled unflushed writes are never evicted** — ``exempt``
      defaults to :meth:`repro.store.BlobStore.spooled_keys`, the keys
      whose only copy is this store (a ``TieredStore`` local tier with
      its remote down).  Their bytes *do* count against the budget —
      they occupy real disk — so a spool backlog can legitimately make
      the budget unreachable, which is reported as a failure rather
      than "solved" by deleting sole copies.

    The returned check carries ``evicted`` / ``freed_bytes`` attributes
    for programmatic callers (the ``TieredStore`` budget).
    """
    check = CheckResult(f"{label}: GC (size budget {budget_bytes} B)")
    now = time.time() if now is None else now
    exempt = set(store.spooled_keys() if exempt is None else exempt)
    total = 0
    candidates = []
    exempt_bytes = 0
    for key in store.list():
        stat = store.stat(key)
        if stat is None:
            continue  # a concurrent writer/GC got there first
        total += stat.size
        if key in exempt:
            exempt_bytes += stat.size
            continue
        candidates.append((stat.mtime, key, stat.size))
    evicted = freed = 0
    if total > budget_bytes:
        candidates.sort()  # oldest write first: LRU by mtime
        for mtime, key, size in candidates:
            if total - freed <= budget_bytes:
                break
            if _evict(store, key, size, mtime, now, check,
                      reason="size-budget", budget_bytes=budget_bytes):
                evicted += 1
                freed += size
    remaining = total - freed
    check.note(f"{evicted} entr(ies) evicted ({freed} B freed), "
               f"{remaining} B remain of {budget_bytes} B budget")
    if exempt:
        check.note(f"{len(exempt)} spooled unflushed write(s) exempt "
                   f"({exempt_bytes} B)")
    if evicted:
        check.note("evictions logged to the GC manifest")
    if remaining > budget_bytes:
        check.fail("budget not met: remaining bytes are spooled writes "
                   "or in-flight entries; flush the spool and re-prune")
    check.evicted = evicted
    check.freed_bytes = freed
    return check


def probe_store(store) -> CheckResult:
    """One connectivity check, first in every report.

    An unreachable remote fails this single check with an actionable
    message instead of surfacing as a traceback (or as N confusing
    empty audits) further down.
    """
    check = CheckResult(f"store {store.url()}: connectivity")
    try:
        ok, detail = store.probe()
    except Exception as exc:  # noqa: BLE001 — a probe reports, not raises
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    if ok:
        check.note(detail)
    else:
        check.fail(f"unreachable: {detail}")
        check.fail("is `repro serve` running there?  Check the --store "
                   "URL (host, port) and any ?timeout= / "
                   "REPRO_STORE_TIMEOUT setting.")
    return check


def run_doctor(store, fix: bool = False,
               prune_older_than_days: Optional[float] = None,
               prune_to_size_bytes: Optional[int] = None) -> DoctorReport:
    """Audit one blob store (a local tree or a remote).

    With ``prune_older_than_days`` set, garbage-collect blobs older than
    the cutoff first (manifest-logged), then audit what remains;
    ``prune_to_size_bytes`` does the same under a byte budget (LRU).
    """
    report = DoctorReport()
    connectivity = probe_store(store)
    report.checks.append(connectivity)
    if not connectivity.ok:
        # Nothing below can succeed against an unreachable remote;
        # stop with the one actionable failure instead of a traceback.
        resilience_warn("doctor-store-unreachable",
                        "store unreachable; audit skipped",
                        url=store.url())
        return report
    if prune_older_than_days is not None:
        report.checks.append(prune_store(
            store, "results", ".json", prune_older_than_days,
            f"result store {store.url()}"))
        report.checks.append(prune_store(
            store, "traces", ".bin", prune_older_than_days,
            f"trace store {store.url()}"))
    if prune_to_size_bytes is not None:
        # A size budget bounds *disk*, so for a tiered store the target
        # is the local tier (the remote keeps its copies); the tier's
        # spooled keys stay exempt because the local copy is the sole one.
        target = getattr(store, "local", None)
        if target is not None:
            report.checks.append(prune_store_to_size(
                target, prune_to_size_bytes,
                f"store {store.url()} local tier",
                exempt=set(store.spooled_keys())))
        else:
            report.checks.append(prune_store_to_size(
                store, prune_to_size_bytes, f"store {store.url()}"))
    report.checks.extend(check_result_store(store, fix=fix))
    report.checks.extend(check_trace_store(store, fix=fix))
    if not report.ok:
        resilience_warn("doctor-problems",
                        "store integrity audit found problems",
                        failed=sum(1 for c in report.checks if not c.ok))
    return report
