"""repro: a reproduction of "Accelerating Function-Centric Applications by
Discovering, Distributing, and Retaining Reusable Context in Workflow
Systems" (Phung et al., HPDC '24).

Layers (bottom to top):

* :mod:`repro.serialize` / :mod:`repro.discover` / :mod:`repro.distribute`
  — the discover & distribute mechanisms.
* :mod:`repro.engine` — a real multi-process TaskVine-like execution
  engine with persistent library processes (the retain mechanism).
* :mod:`repro.sim` — a discrete-event simulator of the paper's
  180-machine cluster for paper-scale experiments.
* :mod:`repro.flow` — a miniature Parsl (dataflow futures) with a
  Vine executor.
* :mod:`repro.apps` — the two evaluation applications (LNNI, ExaMol).
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ReproError

__version__ = "1.0.0"
__all__ = ["ReproError", "__version__"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """PEP 562 hooks for a package whose public names live in submodules.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it provides.  Returns ``(__getattr__, __dir__, __all__)`` for the
    package to bind: a name is imported from its submodule on first
    access and then cached in the package, so ``from package import
    Name`` keeps working while ``import package.other`` runs none of the
    submodules it does not use.  Child processes on the start path
    (``task_runner``, ``library_main``, ``worker_main``) depend on that.
    """
    origin = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
