"""Lazy package exports (PEP 562): a package's public names, each
imported from its module on first attribute access.

A package ``__init__`` lists where its names live and installs what
:func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "midas": ("detect_path", "detect_tree"),
        "schedule": ("PhaseSchedule",),
    })

so importing the package costs one small module, and a run loads only
the layers it touches (docs/API.md, "Import cost").  ``from pkg import
name``, ``from pkg import *`` and ``dir(pkg)`` see the names as before.
A resolved name is stored on the package, so the hook runs once a name.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module, relative to ``package``, to the names it
    exports, in ``__all__`` order; any other attribute raises
    :class:`AttributeError`, as on any module.
    """
    where = {name: f"{package}.{module}" for module, names in table.items()
             for name in names}

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
