"""Names a module binds on first access (PEP 562 ``__getattr__``).

A package that re-exports a layer only some callers run lists each such
name with its defining module instead of importing it, so importing the
package compiles only what its caller uses.  The first access imports
the defining module and binds the name in the package; later accesses
are plain attribute reads.  ``dir()`` and ``from package import *``
see the lazy names like any other.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_names(module: str, namespace: Dict[str, object],
               sources: Dict[str, str]
               ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``module``'s ``__getattr__`` and ``__dir__``, binding each name in
    ``sources`` (name -> defining module) on its first access."""

    def __getattr__(name: str) -> object:
        source = sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        loaded = import_module(source)
        # Importing a submodule binds it here under its own name; where
        # a lazy name shares it (``repro.coherence.snapshot``, the
        # function), the lazy name wins.
        for bound in {name, source.rpartition(".")[2]}:
            if sources.get(bound) == source:
                namespace[bound] = getattr(loaded, bound)
        return namespace[name]

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(sources))

    return __getattr__, __dir__
