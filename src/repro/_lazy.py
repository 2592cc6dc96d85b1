"""On-demand package exports (PEP 562).

A package keeps one name → module table of its public names; the module
behind a name is imported the first time the name is looked up on the
package, and the value is then cached in the package namespace. So
``import repro.cli`` (or any one submodule) no longer executes every
sibling subpackage, while ``__all__``, ``from package import name`` and
``from package import *`` behave exactly as with eager imports.

A table entry is ``"module"`` (the attribute has the exported name) or
``"module:attribute"`` (an export under another name).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    package: str, namespace: dict[str, Any], table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``table`` on demand."""

    def __getattr__(name: str) -> Any:
        try:
            source = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module, _, attribute = source.partition(":")
        value = getattr(importlib.import_module(module), attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
