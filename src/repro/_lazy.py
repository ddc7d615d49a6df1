"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` states which of its submodules defines each exported
name and gets back its ``__all__`` and the module-level ``__getattr__`` and
``__dir__`` that resolve a name on first access::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "simulator": ("SimConfig", "TabularClusterSimulator"),
    })

Importing a package then runs no submodule: ``import repro.tabsim.simulator``
loads ``repro`` and ``repro.tabsim`` as empty shells, not the emulated
cluster behind ``repro.AnorSystem`` (DESIGN.md §7, *Startup*).  A resolved
name is stored on the package, so the hook runs once per name.  Attribute
access to a submodule not imported yet (``repro.core.framework`` after
``import repro``) imports it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose
    ``exports`` maps a submodule, named relative to the package
    (``"simulator"``, ``"core.framework"``), to the names it exports."""
    where = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        sub = where.get(name)
        if sub is None:
            try:
                # A submodule import binds the name on the package itself.
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        namespace = vars(sys.modules[package])
        return sorted({*namespace, *namespace.get("__all__", ()), *where})

    return list(where), __getattr__, __dir__
