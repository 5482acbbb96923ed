"""Lazy package exports: a name re-exported by a package loads its module on first access.

A package ``__init__`` that re-exports names from its submodules calls
:func:`export_lazily` with a table from submodule to names.  Importing
the package then runs no submodule; ``package.name``, ``from package
import name`` and ``from package import *`` import the defining
submodule on first access (PEP 562's module ``__getattr__``) and cache
the value on the package.  So importing ``repro.flow.hybrid`` loads the
hybrid switch and what it imports, not the calibration sweep or the
experiment harness.

The package keeps its real imports under ``typing.TYPE_CHECKING`` for
static checkers, and its literal ``__all__``.  A new export goes into
both, and into the table.

One more case needs a module subclass.  The import system binds each
submodule on its package once it has loaded.  Where an export shares
its submodule's name (``repro.flow.calibrate``, the function, defined
in the module ``repro.flow.calibrate``), that binding would replace the
export with the module; the subclass's ``__setattr__`` keeps the
export.  Attribute reads stay ``ModuleType``'s own.  This module
imports only the standard library.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, List, Mapping, Sequence

__all__ = ["export_lazily"]


class _LazyPackage(ModuleType):
    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and vars(self)["_lazy_exports"].get(name) == f".{name}"
        ):
            value = getattr(value, name)
        ModuleType.__setattr__(self, name, value)


def export_lazily(package: str, table: Mapping[str, Sequence[str]]) -> None:
    """Make ``package`` resolve each name in ``table`` on first access.

    ``table`` maps a relative submodule name (``".model"``) to the
    names it defines that the package exports.  Call it from the
    package's own ``__init__`` as ``export_lazily(__name__, {...})``.
    """
    module = sys.modules[package]
    exports = {name: source for source, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source, package), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(exports))

    vars(module).update(
        __getattr__=__getattr__, __dir__=__dir__, _lazy_exports=exports
    )
    module.__class__ = _LazyPackage
