"""Executors: where ready apps actually run.

:class:`VineExecutor` reproduces the paper's TaskVineExecutor (§3.6): a
service thread owns a :class:`repro.engine.Manager` plus a local worker
factory, receives "an arbitrary stream of function invocations", wraps
each as a ``FunctionCall`` (invocation mode — libraries are created and
installed on first use of each function) or ``PythonTask`` (task mode),
and resolves the caller's future when the engine returns the result.

:class:`LocalExecutor` runs apps on an in-process thread pool — handy
for tests and for the pure-Python portions of the example applications.
"""

from __future__ import annotations

import enum
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.engine.factory import LocalWorkerFactory
from repro.engine.manager import Manager
from repro.engine.task import FunctionCall, PythonTask, Task
from repro.errors import DataflowError


class ExecutionMode(enum.Enum):
    """How the executor maps apps onto the engine (paper §3.6)."""

    TASK = "task"              # L1/L2 style: self-contained PythonTask
    INVOCATION = "invocation"  # L3 style: FunctionCall via a library


class LocalExecutor:
    """Thread-pool executor satisfying the DataFlowKernel contract."""

    def __init__(self, max_workers: int = 4):
        self._pool = ThreadPoolExecutor(max_workers=max_workers)

    def submit_resolved(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> Future:
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "LocalExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


class VineExecutor:
    """The TaskVineExecutor analog: engine-backed app execution service.

    Parameters
    ----------
    workers / cores_per_worker:
        Size of the local worker pool the executor's factory spawns.
    mode:
        ``INVOCATION`` creates one library per distinct app function on
        first use (context reuse between calls of the same app);
        ``TASK`` wraps every call as a self-contained task.
    function_slots:
        Concurrent invocations one library instance serves.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cores_per_worker: int = 4,
        mode: ExecutionMode = ExecutionMode.INVOCATION,
        function_slots: int = 4,
        manager: Optional[Manager] = None,
    ):
        self.mode = mode
        self.function_slots = function_slots
        self._manager = manager or Manager()
        self._owns_manager = manager is None
        self._factory = LocalWorkerFactory(
            self._manager, count=workers, cores=cores_per_worker
        )
        self._factory.start()
        self._submissions: "queue.Queue[tuple]" = queue.Queue()
        self._futures: Dict[int, Future] = {}
        self._libraries: Dict[str, str] = {}  # function name -> library name
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._service_loop, daemon=True, name="vine-executor"
        )
        self._thread.start()

    # ------------------------------------------------------------------ API
    def submit_resolved(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> Future:
        if self._stop.is_set():
            raise DataflowError("executor is shut down")
        future: Future = Future()
        self._submissions.put((fn, args, kwargs, future))
        self._manager.loop.wake()  # the service thread drains at once
        return future

    def shutdown(self) -> None:
        """Stop the service thread, the workers, and the manager."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._manager.loop.wake()
        self._thread.join(timeout=30.0)
        self._factory.stop()
        if self._owns_manager:
            self._manager.close()

    def __enter__(self) -> "VineExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ----------------------------------------------------------- service loop
    def _service_loop(self) -> None:
        """The executor service: one thread owns the manager exclusively.

        Mirrors §3.6: "it waits for any invocation of any function coming
        in at any time, packages the invocation into either a TaskVine
        Task or FunctionCall, executes it, and returns the result."
        """
        while not self._stop.is_set() or self._futures:
            self._drain_submissions()
            task = self._manager.wait(timeout=0.05)
            if task is not None:
                self._finish(task)

    def _drain_submissions(self) -> None:
        while True:
            try:
                fn, args, kwargs, future = self._submissions.get_nowait()
            except queue.Empty:
                return
            try:
                task = self._package(fn, args, kwargs)
                self._manager.submit(task)
            except BaseException as exc:
                future.set_exception(exc)
                continue
            self._futures[task.id] = future

    def _package(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> Task:
        if self.mode is ExecutionMode.TASK:
            return PythonTask(fn, *args, **kwargs)
        name = getattr(fn, "__name__", None) or "app"
        library_name = self._libraries.get(name)
        if library_name is None:
            library_name = f"flowlib-{name}"
            library = self._manager.create_library_from_functions(
                library_name, fn, function_slots=self.function_slots
            )
            self._manager.install_library(library)
            self._libraries[name] = library_name
        return FunctionCall(library_name, name, *args, **kwargs)

    def _finish(self, task: Task) -> None:
        future = self._futures.pop(task.id, None)
        if future is None:
            return
        if task.exception is not None:
            future.set_exception(task.exception)
        else:
            future.set_result(task.result)
