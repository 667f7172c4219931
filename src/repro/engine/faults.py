"""Deterministic fault injection for engine tests and chaos benchmarks.

The *retain* mechanism makes workers stateful: a lost or hung worker
destroys warmed libraries and strands in-flight invocations, so the
failure paths (liveness deadlines, bounded retries, timeout kills) need
to be exercised deliberately, not just when CI gets unlucky.  This
module injects the faults those paths exist for:

* **stall** — SIGSTOP a worker process: the socket stays open and
  perfectly healthy, but heartbeats stop.  Only the manager's liveness
  deadline can detect this.
* **kill** — SIGKILL a worker process: the classic crash; detected by a
  socket error on the next receive/flush.
* **disconnect** — sever the manager-side socket without touching the
  worker process: simulates a network partition.
* **crash_library** — SIGKILL the library (retained-context) instances
  of a worker mid-invocation, found by walking ``/proc``; the template
  they were forked from is left alone.

Faults fire on a deterministic schedule relative to
:meth:`FaultInjector.start`, driven by :meth:`FaultInjector.tick` from
the same loop that drives the manager — no background threads, so a
test's interleaving is reproducible from its schedule alone::

    injector = FaultInjector(manager, factory)
    injector.at(0.5, "kill", 0)
    injector.at(1.0, "stall", 1)
    injector.start()
    while pending:
        manager.wait(timeout=0.1)
        injector.tick()
"""

from __future__ import annotations

import os
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.factory import LocalWorkerFactory
    from repro.engine.manager import Manager


def find_library_pids(worker_pid: int) -> List[int]:
    """PIDs of the library (retained-context) instances of a worker.

    Instances are forked from the worker's template, so they are the
    ``repro.engine.library_main`` processes whose parent is such a
    process whose parent is the worker — the template itself is never
    listed (killing it kills no context), nor are the fork-mode children
    of an instance.  One walk of ``/proc``, no psutil dependency.
    """
    parent_of: Dict[int, int] = {}  # every library_main process -> its ppid
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if b"repro.engine.library_main" not in fh.read():
                    continue
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("utf-8", "replace")
            # Field 4 (ppid) follows the parenthesised comm, which may
            # itself contain spaces — split after the last ')'.
            parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # process exited mid-walk
    return [
        pid for pid, ppid in parent_of.items() if parent_of.get(ppid) == worker_pid
    ]


@dataclass(order=True)
class _ScheduledFault:
    at: float
    seq: int
    action: str = field(compare=False)
    fire: Callable[[], None] = field(compare=False)


class FaultInjector:
    """Injects worker/library faults, immediately or on a schedule.

    ``manager`` is needed for ``disconnect`` (a manager-side socket
    severing); ``factory`` for the process-level faults (stall, resume,
    kill, crash_library).  Either may be ``None`` when unused.
    """

    ACTIONS = ("stall", "resume", "kill", "disconnect", "crash_library")

    def __init__(
        self,
        manager: Optional["Manager"] = None,
        factory: Optional["LocalWorkerFactory"] = None,
    ):
        self.manager = manager
        self.factory = factory
        self._schedule: List[_ScheduledFault] = []
        self._seq = 0
        self._t0: Optional[float] = None
        self.fired: List[str] = []  # audit log: "<t>s <action> <target>"

    # -- immediate faults ---------------------------------------------------
    def _worker_proc(self, index: int):
        if self.factory is None:
            raise EngineError("FaultInjector needs a factory for process faults")
        return self.factory.procs[index]

    def stall_worker(self, index: int) -> None:
        """SIGSTOP: the worker hangs with its socket still open."""
        os.kill(self._worker_proc(index).pid, signal.SIGSTOP)

    def resume_worker(self, index: int) -> None:
        """SIGCONT a previously stalled worker."""
        try:
            os.kill(self._worker_proc(index).pid, signal.SIGCONT)
        except ProcessLookupError:
            pass  # already reaped

    def kill_worker(self, index: int) -> None:
        """SIGKILL: abrupt crash, detected via the broken socket."""
        proc = self._worker_proc(index)
        if proc.poll() is None:
            proc.kill()

    def disconnect_worker(self, name: str) -> None:
        """Sever the manager-side socket; the worker process survives.

        Models a network partition: the manager sees EOF on the next
        receive and runs its worker-loss path, while the (healthy)
        worker notices on its next send and shuts down.
        """
        if self.manager is None:
            raise EngineError("FaultInjector needs a manager for disconnects")
        link = self.manager._workers.get(name)
        if link is None:
            return  # already gone
        try:
            link.conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def crash_libraries(self, index: int) -> int:
        """SIGKILL every library process of worker ``index``; returns
        how many were shot (0 if none were running yet)."""
        worker_pid = self._worker_proc(index).pid
        crashed = 0
        for pid in find_library_pids(worker_pid):
            try:
                os.kill(pid, signal.SIGKILL)
                crashed += 1
            except ProcessLookupError:
                pass
        return crashed

    # -- scheduling ---------------------------------------------------------
    def at(self, delay: float, action: str, target) -> None:
        """Schedule ``action`` on ``target`` ``delay`` seconds after start.

        ``target`` is a factory index for process faults and a worker
        name for ``disconnect``.
        """
        fire = {
            "stall": lambda: self.stall_worker(target),
            "resume": lambda: self.resume_worker(target),
            "kill": lambda: self.kill_worker(target),
            "disconnect": lambda: self.disconnect_worker(target),
            "crash_library": lambda: self.crash_libraries(target),
        }.get(action)
        if fire is None:
            raise EngineError(f"unknown fault action {action!r}; use {self.ACTIONS}")
        self._schedule.append(
            _ScheduledFault(at=delay, seq=self._seq, action=f"{action} {target}", fire=fire)
        )
        self._seq += 1
        self._schedule.sort()

    def start(self) -> None:
        """Stamp t0; ``at`` delays are measured from here."""
        self._t0 = time.monotonic()

    def tick(self) -> int:
        """Fire every due fault; returns how many fired.

        Call from the loop driving the manager.  Faults fire in schedule
        order; a fault whose target is already gone is a no-op.
        """
        if self._t0 is None or not self._schedule:
            return 0
        elapsed = time.monotonic() - self._t0
        fired = 0
        while self._schedule and self._schedule[0].at <= elapsed:
            fault = self._schedule.pop(0)
            fault.fire()
            self.fired.append(f"{fault.at:.2f}s {fault.action}")
            fired += 1
        return fired

    @property
    def pending(self) -> int:
        return len(self._schedule)

    def drive(self, tasks, timeout: float = 120.0) -> None:
        """Run manager.wait + tick until every task finishes.

        Convenience loop for tests/benchmarks: starts the schedule if
        not already started and raises on timeout.
        """
        from repro.engine.task import TaskState

        if self.manager is None:
            raise EngineError("drive() needs a manager")
        if self._t0 is None:
            self.start()
        pending = {t.id: t for t in tasks}
        deadline = time.monotonic() + timeout
        while pending:
            if time.monotonic() > deadline:
                raise EngineError(
                    f"chaos run timed out with {len(pending)} tasks pending "
                    f"(faults fired: {self.fired})"
                )
            done = self.manager.wait(timeout=0.1)
            self.tick()
            if done is not None:
                pending.pop(done.id, None)
            # Tasks consumed by wait() calls before drive() took over are
            # finished by state, not by coming out of the queue again.
            for tid in [
                tid
                for tid, t in pending.items()
                if t.state in (TaskState.DONE, TaskState.FAILED)
            ]:
                del pending[tid]
