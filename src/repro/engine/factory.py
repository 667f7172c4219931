"""Local worker factory: spawns and reaps worker processes.

The paper's executor "spawns ... a factory process to coordinate the
number of workers in a cluster" (§3.6).  On one machine this factory
launches ``python -m repro.engine.worker_main`` subprocesses, waits for
them to register, and guarantees teardown even on abnormal exits.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from repro.engine.manager import Manager
from repro.engine.sandbox import stderr_tail
from repro.errors import WorkerError

# Each worker's stderr, in its own workdir: a file never fills, so a
# chatty worker cannot block on a pipe nobody reads.
_WORKER_STDERR = "worker.stderr"


class LocalWorkerFactory:
    """Spawn ``count`` local workers attached to a manager.

    Use as a context manager::

        with Manager() as m, LocalWorkerFactory(m, count=2):
            ...
    """

    def __init__(
        self,
        manager: Manager,
        count: int = 1,
        *,
        cores: int = 4,
        memory: int = 4096,
        disk: int = 4096,
        workdir: Optional[str] = None,
        cache_capacity: Optional[int] = None,
        connect_timeout: float = 30.0,
        name_prefix: str = "worker",
        status_interval: float = 2.0,
    ):
        if count < 1:
            raise WorkerError("factory needs at least one worker")
        self.manager = manager
        self.count = count
        self.cores = cores
        self.memory = memory
        self.disk = disk
        self.cache_capacity = cache_capacity
        self.status_interval = status_interval
        self.connect_timeout = connect_timeout
        self.name_prefix = name_prefix
        self._owns_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-workers-")
        self.procs: List[subprocess.Popen] = []
        self._workdirs: List[str] = []  # one per proc, holding its stderr

    def start(self) -> None:
        preexisting = len(self.manager.connected_workers())
        for i in range(self.count):
            name = f"{self.name_prefix}-{i}"
            wdir = os.path.join(self.workdir, name)
            cmd = [
                sys.executable,
                "-m",
                "repro.engine.worker_main",
                "--manager",
                self.manager.address,
                "--name",
                name,
                "--cores",
                str(self.cores),
                "--memory",
                str(self.memory),
                "--disk",
                str(self.disk),
                "--workdir",
                wdir,
            ]
            if self.cache_capacity is not None:
                cmd.extend(["--cache-capacity", str(self.cache_capacity)])
            if self.status_interval != 2.0:
                cmd.extend(["--status-interval", str(self.status_interval)])
            os.makedirs(wdir, exist_ok=True)
            with open(os.path.join(wdir, _WORKER_STDERR), "wb") as stderr:
                self.procs.append(
                    subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=stderr)
                )
            self._workdirs.append(wdir)
        # Until all register, the timeout passes, or every one has exited.
        procs = self.procs[-self.count:]
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                return self.manager.wait_for_workers(preexisting + self.count, timeout=0.1)
            except WorkerError:
                if time.monotonic() < deadline and any(p.poll() is None for p in procs):
                    continue
            details = self._collect_stderr()
            self.stop()
            raise WorkerError(f"workers failed to connect:\n{details}") from None

    def _collect_stderr(self) -> str:
        chunks = [stderr_tail(wdir, _WORKER_STDERR) for wdir in self._workdirs]
        return "\n---\n".join(filter(None, chunks)) or "(no worker stderr)"

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self.procs.clear()
        self._workdirs.clear()
        if self._owns_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "LocalWorkerFactory":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
