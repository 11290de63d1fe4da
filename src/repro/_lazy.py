"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that imports every submodule it re-exports makes
each of its submodules cost all of them: ``import repro.core.transform``
would first load the codec, the streaming engine, the encoder and the
decoder.  :func:`lazy_exports` instead gives the package a module-level
``__getattr__`` that imports the submodule defining a name the first time
the name is read, and caches it on the package, so ``from repro.core
import GDCodec`` keeps working and a run loads only the layers it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, names)`` of ``package``.

    ``exports`` maps a submodule's name, relative to ``package``, to the
    names the package re-exports from it; ``submodules`` names submodules
    the package exports as attributes themselves.  ``names`` lists both, in
    that order, for the package's ``__all__``; ``__dir__`` lists the
    package's own globals and every exported name.
    """
    home = {name: module for module, names in exports.items() for name in names}
    exported = [*home, *submodules]

    def __getattr__(name: str) -> Any:
        if name in home:
            value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])).union(exported))

    return __getattr__, __dir__, exported
