"""What the child entry points may import, by module set (not by time).

A worker, a task runner and the library template each import their own
submodule of ``repro.engine``; the package ``__init__`` files resolve
their public names lazily (``repro.lazy_exports``) so that none of them
executes the manager, the router, the policies, the fault injector, the
simulator or numpy on the way.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

ENTRY_POINTS = (
    "repro.engine.task_runner",
    "repro.engine.library_main",
    "repro.engine.worker_main",
)
BANNED = (
    "numpy",
    "repro.engine.manager",
    "repro.engine.router",
    "repro.engine.policies",
    "repro.engine.faults",
    "repro.sim",
)
LAZY_PACKAGES = (
    "repro.engine",
    "repro.util",
    "repro.obs",
    "repro.discover",
    "repro.serialize",
)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_stays_inside_its_import_budget(entry):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        f"import sys, {entry}\n"
        f"print(*[m for m in sys.modules for b in {BANNED!r}"
        " if m == b or m.startswith(b + '.')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_names_are_the_submodules_own_objects(package):
    pkg = importlib.import_module(package)
    submodules = [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
        if info.name != "__main__"
    ]
    assert pkg.__all__
    assert set(pkg.__all__) <= set(dir(pkg))
    for name in pkg.__all__:
        value = getattr(pkg, name)
        assert any(vars(sub).get(name) is value for sub in submodules), name


def test_existing_import_spellings_still_work():
    from repro.engine import (  # noqa: F401
        FunctionCall,
        LocalWorkerFactory,
        Manager,
        PythonTask,
        Router,
    )
    from repro.engine.manager import Manager as direct

    assert Manager is direct


def test_unknown_name_raises_attribute_error():
    import repro.engine

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.engine.no_such_name
    with pytest.raises(ImportError):
        from repro.engine import no_such_name  # noqa: F401
