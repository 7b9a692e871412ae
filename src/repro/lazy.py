"""Names a module imports on first use (PEP 562).

The CLI, the compile service and the program store import neither numpy
nor repro's compute modules; those load on the first compile, decode or
estimate.  A light module that re-exports a compute name, or calls one on
its compute path, lists it in a :class:`Deferred` table instead of
importing it at the top.  The name stays importable from the module as
before.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping, Sequence

__all__ = ["Deferred"]


class Deferred:
    """Names of a module namespace that are imported on first use.

    *namespace* is the module's ``globals()``; *table* maps each module,
    relative to the namespace's package, to the deferred names it defines.
    Install the hooks with
    ``__getattr__, __dir__ = deferred.getattr, deferred.dir``.  Code inside
    the module reads its globals directly, never through ``__getattr__``,
    so it calls :meth:`bind` on the path that uses the names.  A name
    already bound is kept: an earlier use bound it, or a caller replaced it
    (a wrapper or a test double).
    """

    def __init__(self, namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]) -> None:
        self._namespace = namespace
        self._sources = {name: module for module, names in table.items() for name in names}

    def getattr(self, name: str) -> Any:
        """The module's ``__getattr__``: import *name*, bind it, return it."""
        source = self._sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {self._namespace['__name__']!r} has no attribute {name!r}"
            )
        module = importlib.import_module(source, self._namespace["__package__"])
        return self._namespace.setdefault(name, getattr(module, name))

    def dir(self) -> List[str]:
        """The module's ``__dir__``: bound names plus the deferred ones."""
        return sorted(self._namespace.keys() | self._sources.keys())

    def bind(self) -> None:
        """Bind every deferred name that is not bound yet."""
        for name in self._sources:
            if name not in self._namespace:
                self.getattr(name)
