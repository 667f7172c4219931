"""A real, multi-process, TaskVine-like execution engine.

This package implements the paper's execution-engine layer as genuine
OS processes on one machine:

* :class:`~repro.engine.manager.Manager` — the manager node: accepts
  worker connections over localhost TCP, schedules tasks and function
  calls, moves files, and retrieves results.
* worker processes (``python -m repro.engine.worker_main``) — execute
  regular tasks as fresh subprocesses and host persistent *library*
  processes that retain function contexts in memory.
* library processes (``python -m repro.engine.library_main``) — run the
  environment setup once, then serve invocations (direct or fork mode)
  per the protocol of paper §3.4; each holds its own link to the
  manager, on which direct invocations and their results travel.

The public API mirrors Figure 5 of the paper::

    m = Manager()
    lib = m.create_library_from_functions("lib", f, context=setup, context_args=[y])
    lib.add_input(m.declare_file("dataset.tar.gz", cache=True, peer_transfer=True))
    m.install_library(lib)
    m.submit(FunctionCall("lib", "f", 42))
    task = m.wait(timeout=30)
"""

from repro import lazy_exports

# Resolved on first access: the child entry points (``worker_main``,
# ``task_runner``, ``library_main``) import this package on their way to
# one submodule and must not pay for the manager, the router, the
# policies or the fault injector, none of which they run.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "manager": ("Manager",),
        "files": ("VineFile",),
        "resources": ("Resources",),
        "task": ("Task", "TaskState", "PythonTask", "LibraryTask", "FunctionCall"),
        "factory": ("LocalWorkerFactory",),
        "faults": ("FaultInjector",),
        "router": ("Router",),
    },
)
