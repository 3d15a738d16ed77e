"""Lazy package exports (PEP 562): a public name resolves on first use.

A package ``__init__`` lists its public names in one table, each mapped to
the submodule that defines it, and installs the two hooks built here::

    _EXPORTS = {"FatTree": "topology", "Switch": "switch"}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Importing the package then imports none of its submodules, so a process
loads only what it names: a distributed worker that unpickles a job
imports the job's class module and that module's own imports.  A name
mapped to itself exports the submodule of that name, and every other
submodule stays reachable as an attribute (``repro.sim.queue`` after
``import repro.sim``).  A resolved value is cached in the package's
globals, so the hook runs once per name.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of *package* over *exports*."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        source = exports.get(name, name)
        target = f"{package}.{source}"
        missing = f"module {package!r} has no attribute {name!r}"
        # dunder probes (``__wrapped__``, ``__test__``) never name a module
        if name.startswith("__"):
            raise AttributeError(missing)
        try:
            module = import_module(target)
        except ModuleNotFoundError as exc:
            if name in exports or exc.name != target:
                raise
            raise AttributeError(missing) from None
        value = module if source == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
