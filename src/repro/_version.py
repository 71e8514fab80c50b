"""The single source of the package version.

``repro --version`` and the service's ``health`` RPC both answer from
here.  An *installed* build reports what its package metadata says
(``importlib.metadata``), so a wheel's version is authoritative; a
source checkout run via ``PYTHONPATH=src`` has no installed
distribution and falls back to the pinned literal below (kept in sync
with ``pyproject.toml``).  The lookup scans the installed distributions,
so it runs once per process.
"""

from __future__ import annotations

from functools import lru_cache

#: Keep equal to ``[project] version`` in pyproject.toml.
FALLBACK_VERSION = "1.2.0"


@lru_cache(maxsize=None)
def package_version() -> str:
    """The installed distribution's version, or the source fallback."""
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover — stdlib since 3.8
        return FALLBACK_VERSION
    try:
        return version("repro")
    except PackageNotFoundError:
        return FALLBACK_VERSION
