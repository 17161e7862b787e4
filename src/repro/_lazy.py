"""Lazy package exports (PEP 562 module ``__getattr__``).

Every package ``__init__`` in this tree lists its public names per
submodule and resolves each one on first attribute access. Importing
``repro.memctrl.schedulers.base`` therefore executes ``memctrl/__init__``
(one table) and that module — not ``memctrl/controller.py`` — and a
command that only reads a result store never loads the simulator.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps a relative submodule (``".runner"``) to the public
    names it defines. A resolved name is stored on the package, so only
    the first lookup of each pays for the import.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
