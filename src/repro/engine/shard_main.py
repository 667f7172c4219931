"""Shard process entry: one manager + its worker fleet behind a router.

``python -m repro.engine.shard_main --router HOST:PORT --name shard-0
--workers 2`` starts a full single-manager engine (manager, local
workers, payload store) and connects *out* to the router, mirroring how
workers connect out to a manager.  The shard then serves the router's
frames:

* ``submit`` — deserialize the task, rewrite router-scoped declared
  arguments to shard-local payload handles, give it a shard-local id,
  and hand it to the manager.  Completions ship back as ``task_done``
  frames keyed by the router's id.
* ``install_library`` / ``stage_library`` — install a library blob (or
  just park it in the stage directory for a later re-home).  Staged
  blobs are served to *peer shards*, and fetched from them, on the
  shard's event loop, so a spanning-tree broadcast only crosses the
  router once.
* ``declare`` / ``release`` — mirror a declared argument into the
  shard's own payload store (segments are per-process, so every shard
  re-declares from the blob and keeps a digest → local-handle map).
* ``cancel`` — withdraw a queued task; answers ``cancel_result``.

The router connection is one more peer of the shard manager's event
loop (``repro.engine.loop``), next to the worker links: a submission
wakes an idle shard the moment it arrives, replies to the router are
queued and drained like any other send, and the ~1 Hz status frame is a
timer on the same loop.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from functools import partial
from typing import Any, Dict, Optional

from repro.engine import messages, payloads
from repro.engine.factory import LocalWorkerFactory
from repro.engine.manager import Manager
from repro.engine.task import FunctionCall, PythonTask, Task, TaskState
from repro.engine.transfer import fetch_file, serve_files
from repro.obs.statusd import shard_status_port, status_port
from repro.serialize.core import deserialize, serialize
from repro.serialize.source import FunctionCode
from repro.util.logging import get_logger


def _resolve_status_port(index: int) -> Optional[int]:
    """This shard's statusd port under the inherited REPRO_STATUS_PORT.

    Deterministic offset from the router's base port (see
    :func:`repro.obs.statusd.shard_status_port`); if the computed port
    is already bound — another process squatting the offset — fall back
    to an ephemeral port rather than crashing the shard at startup.
    The bound port travels back on the register_shard frame either way.
    """
    port = shard_status_port(status_port(), index)
    if port:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))
        except OSError:
            return 0
        finally:
            probe.close()
    return port


# A blob fetch from a peer shard that has not landed by then fails.
BLOB_FETCH_TIMEOUT = 30.0


class Shard:
    """The shard-side event loop bridging a router connection to a Manager."""

    def __init__(
        self,
        name: str,
        router_addr: str,
        *,
        workers: int,
        cores: int,
        memory: int,
        disk: int,
        workdir: str,
        policy: str = "",
        index: int = 0,
    ):
        self.name = name
        self.log = get_logger(f"shard.{name}")
        os.makedirs(workdir, exist_ok=True)
        self.stage_dir = os.path.join(workdir, "stage")
        os.makedirs(self.stage_dir, exist_ok=True)
        self.manager = Manager(
            workdir=os.path.join(workdir, "manager"),
            name=name,
            policy=policy or None,
            status_port=_resolve_status_port(index),
        )
        self.factory = LocalWorkerFactory(
            self.manager,
            count=workers,
            cores=cores,
            memory=memory,
            disk=disk,
            workdir=os.path.join(workdir, "workers"),
            name_prefix=f"{name}-worker",
        )
        self.blob_server = serve_files(self.manager.loop, self.stage_dir)
        host, port = router_addr.rsplit(":", 1)
        self.conn = messages.connect(host, int(port), name=f"shard-{name}")
        self.conn.send(
            {
                "type": "register_shard",
                "shard": name,
                "pid": os.getpid(),
                "blob_port": self.blob_server.getsockname()[1],
                "status_port": (
                    self.manager.status_server.port
                    if self.manager.status_server is not None
                    else None
                ),
            }
        )
        welcome, _ = self.conn.receive(timeout=10.0)
        messages.expect(welcome, "welcome")
        # Metrics federation: when the router asks for it, every status
        # frame carries this shard's full registry snapshot for the
        # router-level /metrics merge.
        self._federate = bool(welcome.get("federate"))
        # router task id -> shard-local task; local ids are reassigned so
        # router-side ids can never collide with shard-created ones
        # (library tasks draw from this process's counter too).
        self._tasks: Dict[int, Task] = {}
        self._router_ids: Dict[int, int] = {}  # local id -> router id
        self._trace_ctx: Dict[int, Dict[str, Any]] = {}  # local id -> trace ctx
        self._args: Dict[str, payloads.PayloadArg] = {}  # router digest -> local
        self._running = True

    # ------------------------------------------------------------ main loop
    def run(self) -> int:
        with self.manager, self.factory:
            self.manager.loop.add_connection(
                self.conn, self._on_router_frame, self._on_router_lost
            )
            self.manager.loop.call_every(1.0, self._send_status)
            while self._running:
                self.manager._advance(0.05)
                self._ship_completed()
            return 0

    def _send(self, message: dict, payload: bytes = b"") -> None:
        # Once the router is gone or has said shutdown it is owed nothing.
        if self._running:
            self.manager.loop.send(self.conn, message, payload)

    def _on_router_lost(self, reason: str) -> None:
        self.log.warning("router connection lost (%s); shutting down", reason)
        self._running = False

    def _on_router_frame(self, message: dict, payload: bytes) -> None:
        try:
            self._handle(message, payload)
        except Exception as exc:
            self.log.exception("error handling %s", message.get("type"))
            self._send({"type": "error", "error": str(exc)})

    def _handle(self, message: dict, payload: bytes) -> None:
        mtype = message.get("type")
        if mtype == "submit":
            self._on_submit(message, payload)
        elif mtype == "install_library":
            self._on_install(message, payload)
        elif mtype == "stage_library":
            self._on_stage(message, payload)
        elif mtype == "declare":
            self._on_declare(message, payload)
        elif mtype == "release":
            self._on_release(message)
        elif mtype == "cancel":
            self._on_cancel(message)
        elif mtype == "shutdown":
            self._running = False
        else:
            self._send({"type": "error", "error": f"unknown frame {mtype!r}"})

    # -------------------------------------------------------------- handlers
    def _on_submit(self, message: dict, payload: bytes) -> None:
        router_id = int(message["router_id"])
        task: Task = deserialize(payload)
        if isinstance(task, PythonTask) and isinstance(task.fn, FunctionCode):
            task.fn = task.fn.reconstruct()
        # Reset to a fresh local identity: the router already stamped
        # SUBMITTED on its authoritative copy, and local ids must come
        # from this process's counter to stay unique here.
        from repro.engine.task import _task_ids

        task.id = next(_task_ids)
        task.state = TaskState.CREATED
        task.worker = None
        self._rewrite_args(task)
        trace = message.get("trace")
        if trace is not None and self.manager.tracer.enabled:
            # Propagate the router's trace context: bind the *local* id
            # so every manager/worker/library event this task generates
            # is stamped with the cluster trace id, and open the shard
            # span with the measured router→shard hop.
            trace_id = str(trace["trace_id"])
            self.manager.tracer.bind_task(str(task.id), trace_id)
            self._trace_ctx[task.id] = dict(trace, trace_id=trace_id)
            hop = max(0.0, time.time() - float(trace.get("sent_ts", time.time())))
            task._router_hop_s = hop
            self.manager.tracer.record(
                "shard_queue",
                task_id=str(task.id),
                shard=self.name,
                attempt=int(trace.get("attempt", 0)),
                router_hop_s=hop,
            )
        self.manager.submit(task)
        self._tasks[task.id] = task
        self._router_ids[task.id] = router_id

    def _rewrite_args(self, task: Task) -> None:
        """Map router-scoped PayloadArg placeholders to shard-local ones."""
        if not hasattr(task, "args"):
            return

        def swap(value):
            if isinstance(value, payloads.PayloadArg):
                local = self._args.get(value.digest)
                if local is None:
                    raise ValueError(
                        f"task references undeclared argument {value.digest[:12]}"
                    )
                return local
            return value

        task.args = tuple(swap(a) for a in task.args)
        task.kwargs = {k: swap(v) for k, v in task.kwargs.items()}

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self.stage_dir, digest)

    def _stage_bytes(self, digest: str, blob: bytes) -> None:
        path = self._blob_path(digest)
        if os.path.exists(path):
            return
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)

    def _on_install(self, message: dict, payload: bytes) -> None:
        digest = str(message["digest"])
        if payload:
            self._stage_bytes(digest, payload)
        else:  # pre-staged here
            with open(self._blob_path(digest), "rb") as fh:
                payload = fh.read()
        library = deserialize(payload)
        if library.name not in self.manager._libraries:
            self.manager.install_library(library)
        self._send({"type": "library_ready", "name": library.name, "digest": digest})

    def _on_stage(self, message: dict, payload: bytes) -> None:
        """Stage the blob the frame carries, or fetch it from the peer
        shard named in ``source`` without blocking this loop; ``staged``
        follows once it is on disk."""
        digest = str(message["digest"])
        if message.get("source"):
            host, port = str(message["source"]).rsplit(":", 1)
            done = partial(self._staged, message.get("name"), digest)
            address = (host, int(port))
            fetch_file(self.manager.loop, address, digest, BLOB_FETCH_TIMEOUT, done)
        else:
            self._staged(message.get("name"), digest, payload)

    def _staged(self, name: Optional[str], digest: str, blob: Any) -> None:
        """Stage ``blob`` (or the error that stopped it) and answer."""
        if isinstance(blob, bytes):
            try:
                self._stage_bytes(digest, blob)
            except OSError as exc:
                blob = exc
        if isinstance(blob, Exception):
            self._send({"type": "error", "error": f"staging {digest[:12]}: {blob}"})
        else:
            self._send({"type": "staged", "name": name, "digest": digest})

    def _on_declare(self, message: dict, payload: bytes) -> None:
        digest = str(message["digest"])
        if digest not in self._args:
            value = deserialize(payload)
            self._args[digest] = self.manager.declare_argument(value)

    def _on_release(self, message: dict) -> None:
        local = self._args.pop(str(message["digest"]), None)
        if local is not None:
            self.manager.release_argument(local)

    def _on_cancel(self, message: dict) -> None:
        router_id = int(message["router_id"])
        local_id = next(
            (lid for lid, rid in self._router_ids.items() if rid == router_id), None
        )
        task = self._tasks.get(local_id) if local_id is not None else None
        ok = self.manager.cancel(task) if task is not None else False
        self._send({"type": "cancel_result", "router_id": router_id, "ok": ok})

    # ------------------------------------------------------------ completion
    def _ship_completed(self) -> None:
        while True:
            task = self.manager.wait(timeout=0.0)
            if task is None:
                return
            router_id = self._router_ids.pop(task.id, None)
            self._tasks.pop(task.id, None)
            ctx = self._trace_ctx.pop(task.id, None)
            if router_id is None:
                continue  # not a router task (defensive)
            if task.exception is not None:
                outcome: Dict[str, Any] = {"error": task.exception}
            else:
                outcome = {"value": task._result}
            outcome["timeline"] = dict(task.timeline)
            if ctx is not None and self.manager.tracer.enabled:
                # Ship the shard-merged timeline (manager + worker +
                # library events) up to the router, every event stamped
                # with the cluster trace id.  Worker/library events were
                # recorded remotely without a binding, so stamp them
                # here; setdefault keeps ids the binding already wrote.
                events = [
                    e.to_dict()
                    for e in self.manager.tracer.timeline(str(task.id))
                ]
                for d in events:
                    d.setdefault("trace_id", ctx["trace_id"])
                outcome["trace"] = events
                self.manager.tracer.unbind_task(str(task.id))
            try:
                blob = serialize(outcome)
            except Exception as exc:
                blob = serialize(
                    {"error": RuntimeError(f"unserializable outcome: {exc}")}
                )
            self._send(
                {"type": "task_done", "router_id": router_id, "shard": self.name},
                blob,
            )

    def _send_status(self) -> None:
        stats = {
            key: self.manager.stats[key]
            for key in (
                "submitted",
                "completed",
                "failed",
                "cancelled",
                "requeued",
                "invocations_dispatched",
                "tasks_dispatched",
                "workers_lost",
            )
        }
        stats["queued"] = self.manager.state.queued_count()
        stats["running"] = len(self.manager.state.running)
        stats["workers"] = len(self.manager.connected_workers())
        frame = {"type": "shard_status", "shard": self.name, "stats": stats}
        if self._federate:
            frame["metrics"] = self.manager._metrics_snapshot()
        self._send(frame)

    def close(self) -> None:
        self.blob_server.close()
        try:
            self.conn.close()
        except Exception:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--router", required=True, help="router HOST:PORT")
    parser.add_argument("--name", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--memory", type=int, default=4096)
    parser.add_argument("--disk", type=int, default=4096)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--policy",
        default="",
        help="scheduling policy name for this shard's manager "
        "(reactive/sticky/prewarm/fair; empty = REPRO_POLICY, else reactive)",
    )
    parser.add_argument(
        "--index",
        type=int,
        default=0,
        help="shard ordinal, used to offset a shared REPRO_STATUS_PORT "
        "so N shards don't collide on one bind",
    )
    args = parser.parse_args(argv)
    shard = Shard(
        args.name,
        args.router,
        workers=args.workers,
        cores=args.cores,
        memory=args.memory,
        disk=args.disk,
        workdir=args.workdir,
        policy=args.policy,
        index=args.index,
    )
    try:
        return shard.run()
    finally:
        shard.close()


if __name__ == "__main__":
    sys.exit(main())
