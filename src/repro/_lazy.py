"""Lazy package exports (PEP 562).

A package ``__init__`` declares which module defines each name it
exports instead of importing them all.  Importing the package then
costs only the package itself; a name's module is imported on the
name's first access::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        ".registry": ("get_policy", "create_policy"),
    })
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for the package ``namespace``.

    ``table`` maps a defining module, relative to the package (``".spec"``,
    ``".runtime.spec"``), to the names exported from it; ``__all__``
    lists them in table order.  A name is bound in the package on its
    first access, so later lookups are plain attribute reads.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return list(origin), __getattr__, __dir__
