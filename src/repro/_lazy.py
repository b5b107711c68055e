"""Lazy package surfaces (PEP 562).

A package that re-exports names from its submodules normally imports
every submodule when it is itself imported.  :func:`lazy_surface`
instead builds the module-level ``__getattr__`` and ``__dir__`` that
import a submodule only when one of its names is first looked up, so a
process pays only for the parts of the package it touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_surface"]


def lazy_surface(
    package: str,
    submodules: Iterable[str],
    exports: Mapping[str, Iterable[str]],
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``'s lazy re-exports.

    ``submodules`` are resolved as ``package.<name>``; ``exports`` maps
    each submodule to the names it re-exports.  A resolved name is
    stored on the package, so later lookups are plain attribute reads.
    """
    submodules = frozenset(submodules)
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
