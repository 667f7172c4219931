"""Worker-side logic: task execution, library hosting, caching, peer serving.

A worker is a single-threaded event loop (``repro.engine.loop``, plus one
thread serving peer file transfers) that:

* maintains a content-addressed :class:`~repro.engine.cache.WorkerCache`;
* executes :class:`~repro.engine.task.PythonTask` work as fresh
  ``task_runner`` subprocesses (task mode — context reload every time);
* hosts library processes that retain function contexts, forwarding
  invocations to them over per-library Unix sockets (invocation mode).
  Instances are forked from one warm *template* process per worker
  (``library_main.Template``), started while the worker registers; the
  template reports each instance's pid and, once reaped, its exit;
* serves cached files to peer workers (Figure 3b spanning-tree transfers).

Messages are processed in arrival order, so a ``put_file`` that precedes
a ``task`` is guaranteed visible by execution time — the manager relies
on this to stage inputs without an extra round trip.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

import repro
from repro.discover.packaging import unpack_environment
from repro.engine import messages, payloads
from repro.engine.cache import WorkerCache
from repro.engine.loop import EventLoop, Timer
from repro.engine.resources import Resources
from repro.engine.sandbox import (
    ARGS_FILE,
    CODE_FILE,
    RESULT_FILE,
    STDERR_FILE,
    Sandbox,
)
from repro.errors import CacheError, EngineError, ProtocolError
from repro.obs.perflog import rss_bytes
from repro.obs.trace import get_tracer
from repro.util.logging import get_logger


def _child_env() -> Dict[str, str]:
    """Environment for spawned runner/library processes.

    Children run with ``cwd`` inside their sandbox, so any *relative*
    ``PYTHONPATH`` entry the worker inherited (e.g. ``src`` from the
    test harness) would no longer resolve.  Prepend the absolute parent
    directory of the installed ``repro`` package so subprocesses import
    the same code regardless of the caller's working directory.
    """
    env = dict(os.environ)
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    parts = [pkg_parent] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def _stderr_tail(directory: str) -> str:
    """The last 4000 bytes of the stderr file a child kept in ``directory``."""
    try:
        with open(os.path.join(directory, STDERR_FILE), "rb") as fh:
            fh.seek(max(0, fh.seek(0, os.SEEK_END) - 4000))
            return fh.read().decode("utf-8", "replace")
    except OSError:
        return ""


@dataclass
class _RunningTask:
    task_id: int
    proc: subprocess.Popen
    sandbox: Sandbox
    staging_time: float
    env_time: float
    started: float
    timeout: Optional[float] = None
    deadline: Optional[float] = None  # monotonic; None = unbounded


@dataclass
class _LibraryHandle:
    instance_id: int
    library_name: str
    sandbox_dir: str
    socket_path: str
    listener: socket.socket
    worker_overhead: float
    conn: Optional[messages.Connection] = None
    ready: bool = False
    # Process state, as the template reports it: the pid once forked,
    # ``exited`` once reaped.  ``orphaned`` when the template that would
    # report the exit is itself gone.
    pid: Optional[int] = None
    exited: bool = False
    orphaned: bool = False
    report_removed: bool = False  # the manager awaits ``library_removed``
    kill_timer: Optional[Timer] = None  # SIGKILL escalation while leaving
    pending: List[tuple] = field(default_factory=list)  # queued invokes
    # task_id -> sandbox of each in-flight invocation; None when the
    # invocation needed no staged inputs (the sandbox-less fast path).
    invocations: Dict[int, Optional[Sandbox]] = field(default_factory=dict)
    staging: Dict[int, float] = field(default_factory=dict)
    # task_id -> (monotonic deadline, requested timeout seconds), only
    # for direct-mode invocations: the worker enforces those by killing
    # the library process (fork-mode children are killed library-side).
    deadlines: Dict[int, tuple] = field(default_factory=dict)


class _TransferServer(threading.Thread):
    """Serves ``get``-by-hash requests to peer workers from the cache dir.

    Runs as a daemon thread: only ever *reads* completed (atomically
    renamed) cache files, so it needs no lock against the main loop.
    """

    def __init__(self, cache_root: str):
        super().__init__(daemon=True, name="peer-transfer-server")
        self.cache_root = cache_root
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.port = self.sock.getsockname()[1]
        self.bytes_served = 0
        self.requests_served = 0
        self._stop = threading.Event()

    def run(self) -> None:
        self.sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                client, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn = messages.Connection(client, name="peer")
                request, _ = conn.receive(timeout=5.0)
                digest = str(request.get("hash", ""))
                path = os.path.join(self.cache_root, digest)
                if request.get("type") == "get" and os.path.isfile(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    conn.send({"type": "data", "ok": True}, data)
                    self.bytes_served += len(data)
                    self.requests_served += 1
                else:
                    conn.send({"type": "data", "ok": False, "error": "not cached"})
            except Exception:
                pass
            finally:
                client.close()

    def stop(self) -> None:
        self._stop.set()
        try:
            self.sock.close()
        except OSError:
            pass


class Worker:
    """One worker node of the execution engine."""

    def __init__(
        self,
        manager_host: str,
        manager_port: int,
        *,
        name: str,
        cores: int = 4,
        memory: int = 4096,
        disk: int = 4096,
        workdir: str,
        cache_capacity: Optional[int] = None,
        status_interval: float = 2.0,
    ):
        self.name = name
        # Status reports double as liveness heartbeats: the manager
        # declares a worker silent past its deadline lost, so the
        # interval must stay well below Manager.liveness_deadline.
        self.status_interval = max(0.05, status_interval)
        self.resources = Resources(cores=cores, memory=memory, disk=disk)
        self.workdir = os.path.abspath(workdir)
        os.makedirs(self.workdir, exist_ok=True)
        # Forwarding tracer: every event (own and absorbed from hosted
        # libraries) is queued in an outbox that _send piggybacks onto
        # the next frame bound for the manager.
        self.tracer = get_tracer(f"worker.{name}")
        self.cache = WorkerCache(
            os.path.join(self.workdir, "cache"),
            cache_capacity,
            on_evict=self._report_eviction,
            tracer=self.tracer,
        )
        self.sandbox_root = os.path.join(self.workdir, "sandboxes")
        os.makedirs(self.sandbox_root, exist_ok=True)
        self.env_root = os.path.join(self.workdir, "envs")
        os.makedirs(self.env_root, exist_ok=True)
        # Library UNIX sockets live under the worker's own workdir so
        # parallel runs never collide and leftovers die with the workdir.
        # AF_UNIX paths are capped (~108 bytes); fall back to a private
        # short tempdir when the workdir is nested too deep.
        self.socket_root = os.path.join(self.workdir, "sockets")
        os.makedirs(self.socket_root, exist_ok=True)
        self._socket_fallback: Optional[str] = None
        self.transfer_server = _TransferServer(self.cache.root)
        self.manager = messages.connect(manager_host, manager_port, name="manager")
        self.tasks: Dict[int, _RunningTask] = {}
        self.libraries: Dict[int, _LibraryHandle] = {}
        # Instances told to stop whose exit the template has yet to report.
        self._leaving: Dict[int, _LibraryHandle] = {}
        self.template: Optional[messages.Connection] = None
        self._template_proc: Optional[subprocess.Popen] = None
        self.loop = EventLoop()
        self._task_poll: Optional[Timer] = None  # 20 ms, while tasks run
        self._running = True
        # Data-plane accounting mirrored to the manager in status
        # heartbeats: bytes relayed through sockets vs. handed off as
        # shared-memory descriptors.
        self.payload_copied = 0
        self.payload_mapped = 0
        # True once the welcome frame proves the manager shares this
        # host's shm domain; until then every result ships inline.
        self.shm_to_manager = False
        self.log = get_logger(f"worker.{name}")

    def _send(self, frame: Dict[str, Any], payload: bytes = b"") -> None:
        """Send one frame to the manager, piggybacking queued trace events.

        Results and failures therefore carry every worker/library event
        recorded for that task *on the frame itself*, so the manager has
        absorbed them before it consolidates the task's cost timeline.
        """
        self.loop.send(
            self.manager, messages.attach_trace(frame, self.tracer), payload
        )

    def _report_eviction(self, digest: str) -> None:
        """Keep the manager's replica map truthful when the LRU evicts."""
        try:
            self._send(
                {"type": "cache_update", "hash": digest, "present": False}
            )
        except ProtocolError:
            pass  # manager is already gone; shutdown will follow

    # -- lifecycle ----------------------------------------------------------
    def register(self) -> None:
        self.transfer_server.start()
        try:
            self._start_template()  # boots while the manager answers
        except OSError as exc:
            self.log.warning("library template failed to start: %s", exc)
        self._send(
            {
                "type": "register",
                "worker": self.name,
                "resources": self.resources.to_dict(),
                "transfer_host": "127.0.0.1",
                "transfer_port": self.transfer_server.port,
                # shm negotiation: descriptors only flow between peers in
                # the same shared-memory domain (same machine, same boot).
                "shm_host": payloads.host_token() if payloads.enabled() else "",
            }
        )
        reply, _ = self.manager.receive(timeout=30.0)
        messages.expect(reply, "welcome")
        self.shm_to_manager = bool(
            payloads.enabled()
            and reply.get("shm_host")
            and reply.get("shm_host") == payloads.host_token()
        )
        self.log.info(
            "registered with manager (%s, shm=%s)", self.resources, self.shm_to_manager
        )

    def run(self) -> None:
        """Main loop: serve until the manager says shutdown or disconnects."""
        self.register()
        try:
            self.loop.add_connection(
                self.manager, self._on_manager_frame, self._on_manager_lost
            )
            self.loop.call_every(self.status_interval, self._send_status)
            while self._running:
                self.loop.run_once(self.status_interval)
        except ProtocolError:
            pass  # manager went away; shut down quietly
        finally:
            self.shutdown()

    def _send_status(self) -> None:
        """Periodic resource-accounting report (§2.1.3): cache occupancy,
        in-flight tasks, and hosted libraries.

        The report doubles as the telemetry *resource heartbeat*: the
        ``HEARTBEAT_FIELDS`` extras (RSS, busy slots, per-instance
        library liveness) piggyback on this existing frame — no new
        round trips — and the manager folds them into per-worker gauges.
        """
        cache_stats = self.cache.stats()
        active_invocations = sum(
            len(h.invocations) for h in self.libraries.values()
        )
        report = {
            "cache": cache_stats,
            "running_tasks": len(self.tasks),
            "libraries": len(self.libraries),
            "ready_libraries": sum(1 for h in self.libraries.values() if h.ready),
            "active_invocations": active_invocations,
            "peer_bytes_served": self.transfer_server.bytes_served,
            # HEARTBEAT_FIELDS (messages.py): stable resource extras.
            "rss_bytes": rss_bytes(),
            "busy_slots": len(self.tasks) + active_invocations,
            "cache_bytes": int(cache_stats.get("bytes", 0)),
            "cache_pinned": int(cache_stats.get("pinned", 0)),
            "libraries_live": sum(
                1 for h in self.libraries.values() if not h.exited
            ),
            "payload_bytes_copied": self.payload_copied,
            "payload_bytes_mapped": self.payload_mapped,
            "libraries_detail": {
                str(h.instance_id): {
                    "library": h.library_name,
                    "ready": h.ready,
                    "alive": not h.exited,
                    "active_invocations": len(h.invocations),
                }
                for h in self.libraries.values()
            },
        }
        self._send({"type": "status", "report": report})

    def shutdown(self) -> None:
        self._running = False
        self.tracer.flush()
        for handle in list(self.libraries.values()):
            self._terminate_library(handle)
        for handle in list(self._leaving.values()):
            handle.report_removed = False  # nobody is left to tell
            self._library_gone(handle)
        if self.template is not None:
            # On EOF the template sees its instances off (SIGTERM, then
            # SIGKILL after 5 s) and exits; the loop runs no more.
            self.loop.remove(self.template)
            self.template.close()
            try:
                self._template_proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._template_proc.kill()
        for running in list(self.tasks.values()):
            if running.proc.poll() is None:
                running.proc.terminate()
        self.transfer_server.stop()
        self.manager.close()
        self.loop.close()
        if self._socket_fallback is not None:
            shutil.rmtree(self._socket_fallback, ignore_errors=True)
            self._socket_fallback = None

    # -- manager messages ------------------------------------------------------
    def _on_manager_frame(self, message: dict, payload: bytes) -> None:
        mtype = message["type"]
        handler = getattr(self, f"_on_{mtype}", None)
        if handler is None:
            raise ProtocolError(f"unknown manager message {mtype!r}")
        handler(message, payload)

    def _on_manager_lost(self, reason: str) -> None:
        self._running = False

    def _on_shutdown(self, message: dict, payload: bytes) -> None:
        self._running = False
        self.loop.remove(self.manager)  # nothing behind a shutdown is served

    def _on_put_file(self, message: dict, payload: bytes) -> None:
        digest = message["hash"]
        self.cache.insert_bytes(digest, payload)
        self._send({"type": "cache_update", "hash": digest, "present": True})

    def _on_transfer(self, message: dict, payload: bytes) -> None:
        """Fetch a file from a peer worker (synchronous; peers serve from a thread)."""
        digest = message["hash"]
        if digest in self.cache:
            self._send({"type": "cache_update", "hash": digest, "present": True})
            return
        try:
            peer = messages.connect(message["host"], int(message["port"]), name="peer")
            try:
                peer.send({"type": "get", "hash": digest})
                reply, data = peer.receive(timeout=60.0)
            finally:
                peer.close()
            if not reply.get("ok"):
                raise EngineError(reply.get("error", "peer refused"))
            self.cache.insert_bytes(digest, data)
            self._send({"type": "cache_update", "hash": digest, "present": True})
        except Exception as exc:
            self._send(
                {
                    "type": "cache_update",
                    "hash": digest,
                    "present": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )

    def _on_unlink(self, message: dict, payload: bytes) -> None:
        try:
            self.cache.remove(message["hash"])
        except CacheError:
            pass
        self._send({"type": "cache_update", "hash": message["hash"], "present": False})

    def _ensure_environment(self, env_hash: Optional[str]) -> tuple[Optional[str], float]:
        """Unpack a cached environment package once; return (dir, seconds_spent)."""
        if not env_hash:
            return None, 0.0
        dir_key = f"{env_hash}.unpacked"
        env_dir = os.path.join(self.env_root, env_hash)
        if dir_key in self.cache:
            self.cache.probe(dir_key)
            return env_dir, 0.0
        started = time.monotonic()
        package_path = self.cache.path_of(env_hash)
        unpack_environment(package_path, env_dir)
        size = sum(
            os.path.getsize(os.path.join(dp, f))
            for dp, _, fns in os.walk(env_dir)
            for f in fns
        )
        self.cache.register_dir(dir_key, env_dir, size)
        return env_dir, time.monotonic() - started

    def _stage_inputs(self, sandbox: Sandbox, inputs: List[dict]) -> float:
        started = time.monotonic()
        for item in inputs:
            sandbox.stage(self.cache.path_of(item["hash"]), item["name"])
        return time.monotonic() - started

    def _on_task(self, message: dict, payload: bytes) -> None:
        task_id = int(message["task_id"])
        sandbox = Sandbox(self.sandbox_root, f"task-{task_id}-{uuid.uuid4().hex[:6]}")
        try:
            env_dir, env_time = self._ensure_environment(message.get("env_hash"))
            staging = self._stage_inputs(sandbox, message.get("inputs", []))
            # Wire format: the memoized code blob leads the payload; args
            # follow inline or ride in shared memory.
            code_size = int(message.get("code_size", 0))
            if not 0 < code_size <= len(payload):
                raise ProtocolError(
                    f"task frame code_size={message.get('code_size')!r} "
                    f"is not within its {len(payload)}-byte payload"
                )
            sandbox.write(CODE_FILE, payload[:code_size])
            descriptor = message.get("args_shm")
            if descriptor is not None:
                args_blob = payloads.fetch(descriptor)  # store-owned; no unlink
                self.payload_mapped += len(args_blob)
            else:
                args_blob = payload[code_size:]
                self.payload_copied += len(args_blob)
            sandbox.write(ARGS_FILE, args_blob)
            cmd = [sys.executable, "-m", "repro.engine.task_runner", sandbox.path]
            if env_dir:
                cmd.append(env_dir)
            with open(os.path.join(sandbox.path, STDERR_FILE), "wb") as stderr:
                proc = subprocess.Popen(
                    cmd,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    cwd=sandbox.path,
                    env=_child_env(),
                )
        except Exception as exc:
            sandbox.destroy()
            self._send(
                {
                    "type": "task_failed",
                    "task_id": task_id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
            return
        timeout = message.get("timeout")
        started = time.monotonic()
        self.tasks[task_id] = _RunningTask(
            task_id,
            proc,
            sandbox,
            staging,
            env_time,
            started,
            timeout=timeout,
            deadline=started + timeout if timeout else None,
        )
        if self._task_poll is None:
            self._task_poll = self.loop.call_every(0.02, self._poll_tasks)
        self.tracer.record(
            "stage_done",
            task_id=str(task_id),
            kind="task",
            seconds=staging,
            env_seconds=env_time,
        )

    def _on_library(self, message: dict, payload: bytes) -> None:
        instance_id = int(message["instance_id"])
        started = time.monotonic()
        sandbox_dir = os.path.join(self.workdir, "libraries", f"inst-{instance_id}")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.makedirs(sandbox_dir)
            env_dir, _ = self._ensure_environment(message.get("env_hash"))
            for item in message.get("inputs", []):
                dest = os.path.join(sandbox_dir, item["name"])
                try:
                    os.link(self.cache.path_of(item["hash"]), dest)
                except OSError:
                    shutil.copyfile(self.cache.path_of(item["hash"]), dest)
            spec_path = os.path.join(sandbox_dir, message["spec_name"])
            socket_path = self._library_socket_path(instance_id)
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            listener.bind(socket_path)
            listener.listen(1)
            if self.template is None:
                self._start_template()  # it died, or never started
        except Exception as exc:
            listener.close()
            shutil.rmtree(sandbox_dir, ignore_errors=True)
            self._send(
                {
                    "type": "library_failed",
                    "instance_id": instance_id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
            return
        self.log.debug("starting library instance %d (%s)", instance_id, message["library_name"])
        handle = _LibraryHandle(
            instance_id=instance_id,
            library_name=message["library_name"],
            sandbox_dir=sandbox_dir,
            socket_path=socket_path,
            listener=listener,
            worker_overhead=time.monotonic() - started,
        )
        self.libraries[instance_id] = handle
        self.loop.add_listener(listener, partial(self._accept_library, handle))
        # Registered first: should the template turn out dead on this
        # send, ``_on_template_lost`` fails this instance with the rest.
        self.loop.send(
            self.template,
            {
                "type": "spawn",
                "instance_id": instance_id,
                "spec": spec_path,
                "socket": socket_path,
                "sandbox": sandbox_dir,
                "env_dir": env_dir,
            },
        )
        self.tracer.record(
            "library_spawn",
            library=handle.library_name,
            instance=instance_id,
            seconds=handle.worker_overhead,
        )

    # -- the template ---------------------------------------------------------
    def _start_template(self) -> None:
        """Start the warm process every instance of this worker is forked
        from, on one end of a socket pair that joins the loop."""
        ours, theirs = socket.socketpair()
        try:
            with open(os.path.join(self.workdir, STDERR_FILE), "wb") as stderr:
                self._template_proc = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.engine.library_main",
                        str(theirs.fileno()),
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    pass_fds=[theirs.fileno()],
                    env=_child_env(),
                )
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        self.template = messages.Connection(ours, name="template")
        self.loop.add_connection(
            self.template, self._on_template_frame, self._on_template_lost
        )

    def _on_template_frame(self, message: dict, payload: bytes) -> None:
        instance_id = int(message["instance_id"])
        handle = self.libraries.get(instance_id) or self._leaving[instance_id]
        mtype = message["type"]
        if mtype == "spawned":
            handle.pid = int(message["pid"])
            if instance_id in self._leaving:
                self._stop_instance(handle)  # told to stop before it was forked
        elif mtype == "exited":
            handle.exited = True
            if instance_id in self.libraries:  # not at our request: it crashed
                self.log.warning(
                    "library instance %d exited with code %s",
                    instance_id, message.get("code"),
                )
                self._library_died(
                    handle, message.get("error", "library process died")
                )
            self._library_gone(handle)
        else:
            raise ProtocolError(f"unexpected template message {mtype!r}")

    def _on_template_lost(self, reason: str) -> None:
        """The template died.  Its instances live on but nobody will
        report their exits; those it never got to fork have failed.  The
        next deploy starts a new one."""
        self.log.warning("library template lost: %s", reason)
        self.template.close()
        self.template = None
        self._template_proc.kill()
        self._template_proc.wait()
        for handle in [*self.libraries.values(), *self._leaving.values()]:
            handle.orphaned = True
            if handle.instance_id in self._leaving:
                self._stop_instance(handle)
            elif handle.pid is None:  # asked for, never forked
                self._library_died(
                    handle, "library template died", _stderr_tail(self.workdir)
                )

    def _library_socket_path(self, instance_id: int) -> str:
        path = os.path.join(self.socket_root, f"lib-{instance_id}.sock")
        if len(path.encode()) <= 100:
            return path
        if self._socket_fallback is None:
            import tempfile

            self._socket_fallback = tempfile.mkdtemp(prefix="repro-sock-")
        return os.path.join(self._socket_fallback, f"lib-{instance_id}.sock")

    def _accept_library(self, handle: _LibraryHandle, client: socket.socket) -> None:
        handle.conn = messages.Connection(client, name=f"library-{handle.instance_id}")
        self.loop.remove(handle.listener)
        handle.listener.close()
        self.loop.add_connection(
            handle.conn,
            partial(self._on_library_frame, handle),
            lambda reason: self._library_died(handle),
        )

    def _on_invocation(self, message: dict, payload: bytes) -> None:
        task_id = int(message["task_id"])
        instance_id = int(message["instance_id"])
        handle = self.libraries.get(instance_id)
        if handle is None:
            # The instance died (timeout kill, crash) while this dispatch
            # was in flight; hand the invocation back for a retry rather
            # than failing it — the retry budget bounds the loop.
            self._send(
                {
                    "type": "task_failed",
                    "task_id": task_id,
                    "kind": "requeue",
                    "error": f"no library instance {instance_id} on this worker",
                }
            )
            return
        staging_started = time.monotonic()
        mode = message.get("mode", "direct")
        inputs = message.get("inputs", [])
        descriptor = message.get("args_shm")
        # A sandbox exists only when the invocation actually needs the
        # filesystem: staged input files, or fork mode (whose child
        # reads/writes the classic args/result files).  The common
        # direct-mode no-inputs invocation skips mkdir/rmtree entirely
        # and its arguments travel on the invoke frame or in shm.
        sandbox: Optional[Sandbox] = None
        if inputs or mode == "fork":
            sandbox = Sandbox(
                self.sandbox_root, f"invoc-{task_id}-{uuid.uuid4().hex[:6]}"
            )
            for item in inputs:
                sandbox.stage(self.cache.path_of(item["hash"]), item["name"])
        lib_payload: bytes = b""
        if mode == "fork":
            if descriptor is not None:
                args_blob = payloads.fetch(descriptor)  # store-owned; no unlink
                self.payload_mapped += len(args_blob)
            else:
                args_blob = payload
                self.payload_copied += len(args_blob)
            sandbox.write(ARGS_FILE, args_blob)
        handle.invocations[task_id] = sandbox
        handle.staging[task_id] = time.monotonic() - staging_started
        if sandbox is not None:
            self.tracer.record(
                "stage_done",
                task_id=str(task_id),
                kind="invocation",
                seconds=handle.staging[task_id],
            )
        timeout = message.get("timeout")
        frame = {
            "type": "invoke",
            "task_id": task_id,
            "function": message["function"],
            "mode": mode,
        }
        if sandbox is not None:
            frame["sandbox"] = sandbox.path
        if mode != "fork":
            if descriptor is not None:
                # Library and worker always share a host: hand the
                # descriptor through untouched (zero bytes moved here).
                frame["args_shm"] = descriptor
                self.payload_mapped += int(descriptor.get("size", 0))
            else:
                lib_payload = payload
                self.payload_copied += len(payload)
        if timeout:
            # Direct-mode work shares the library process, so the worker
            # enforces the deadline by killing the instance; fork-mode
            # children are killed by the library itself, which needs the
            # timeout forwarded.
            if mode == "fork":
                frame["timeout"] = timeout
            else:
                entry = handle.deadlines[task_id] = (time.monotonic() + timeout, timeout)
                self.loop.call_at(
                    entry[0], partial(self._expire_invocation, handle, task_id, entry)
                )
        if handle.ready and handle.conn is not None:
            self.loop.send(handle.conn, frame, lib_payload)
        else:
            handle.pending.append((frame, lib_payload))

    def _on_invocation_batch(self, message: dict, payload: bytes) -> None:
        """Fan a coalesced dispatch round back out to library instances.

        The payload is the concatenation of each invocation's argument
        blob, length-prefixed (4-byte big-endian), in header order.
        """
        view = memoryview(payload)
        offset = 0
        for header in message.get("invocations", []):
            length = int.from_bytes(view[offset:offset + 4], "big")
            offset += 4
            self._on_invocation(header, bytes(view[offset:offset + length]))
            offset += length

    def _on_cancel(self, message: dict, payload: bytes) -> None:
        """Kill a running task subprocess at the manager's request."""
        task_id = int(message["task_id"])
        running = self.tasks.pop(task_id, None)
        if running is None:
            return  # already finished; the result message races the cancel
        if running.proc.poll() is None:
            running.proc.terminate()
            try:
                running.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                running.proc.kill()
        running.sandbox.destroy()
        self._send(
            {
                "type": "task_failed",
                "task_id": task_id,
                "error": "cancelled by the manager",
            }
        )

    def _on_remove_library(self, message: dict, payload: bytes) -> None:
        instance_id = int(message["instance_id"])
        handle = self.libraries.get(instance_id)
        if handle is not None:
            self._terminate_library(handle, report_removed=True)
        else:
            self._send({"type": "library_removed", "instance_id": instance_id})

    # -- library events -----------------------------------------------------------
    def _on_library_frame(
        self, handle: _LibraryHandle, message: dict, payload: bytes
    ) -> None:
        # Relay library-side trace events: absorb() on a forwarding
        # tracer re-queues them, so the next manager-bound frame (often
        # the result this message triggers) carries them upstream.
        piggyback = message.get(messages.TRACE_KEY)
        if piggyback:
            self.tracer.absorb(piggyback)
        mtype = message.get("type")
        if mtype == "ready":
            handle.ready = True
            self._send(
                {
                    "type": "library_ready",
                    "instance_id": handle.instance_id,
                    "times": {
                        "worker_overhead": handle.worker_overhead,
                        "library_overhead": float(message.get("setup_time", 0.0)),
                    },
                }
            )
            for frame, lib_payload in handle.pending:
                handle.conn.send_buffered(frame, lib_payload)
            handle.pending.clear()
            self.loop.flush(handle.conn)
        elif mtype == "startup_failed":
            self._send(
                {
                    "type": "library_failed",
                    "instance_id": handle.instance_id,
                    "error": message.get("error", "library startup failed"),
                    "traceback": message.get("traceback"),
                }
            )
            self._terminate_library(handle)
        elif mtype == "complete":
            self._finish_invocation(handle, message, payload)
        elif mtype == "bye":
            pass
        else:
            raise ProtocolError(f"unexpected library message {mtype!r}")

    def _relay_result(
        self,
        task_id: int,
        kind: str,
        times: Dict[str, Any],
        data: bytes = b"",
        descriptor: Optional[dict] = None,
    ) -> None:
        """Forward one outcome to the manager, by descriptor when possible.

        A shm-borne result from a library is handed to a shm-capable
        manager as its descriptor (zero result bytes on either socket
        hop); otherwise the bytes are materialized and shipped inline.
        Large inline results are promoted into a one-shot segment when
        the manager can attach it — the result then crosses the
        manager link as a ~100-byte descriptor no matter its size.
        """
        frame = {"type": "result", "task_id": task_id, "kind": kind, "times": times}
        if descriptor is not None and not self.shm_to_manager:
            try:
                data = payloads.fetch(descriptor, consume=True)
                descriptor = None
            except payloads.PayloadError as exc:
                self._send(
                    {
                        "type": "task_failed",
                        "task_id": task_id,
                        "error": f"result segment lost: {exc}",
                    }
                )
                return
        if (
            descriptor is None
            and data
            and self.shm_to_manager
            and len(data) >= payloads.threshold_bytes()
        ):
            try:
                descriptor = payloads.publish_once(bytes(data))
                data = b""
            except payloads.PayloadError:
                pass  # ship inline after all
        if descriptor is not None:
            frame["payload_shm"] = descriptor
            self.payload_mapped += int(descriptor.get("size", 0))
        else:
            self.payload_copied += len(data)
        self._send(frame, data)

    def _finish_invocation(
        self, handle: _LibraryHandle, message: dict, payload: bytes = b""
    ) -> None:
        task_id = int(message["task_id"])
        if task_id not in handle.invocations:
            return
        sandbox = handle.invocations.pop(task_id)
        handle.deadlines.pop(task_id, None)
        times = dict(message.get("times", {}))
        times["staging"] = handle.staging.pop(task_id, 0.0)
        times["worker_overhead"] = 0.0  # context was already resident
        descriptor = message.get("payload_shm")
        if message.get("kind") != "timeout" and (descriptor is not None or payload):
            # Direct mode: the outcome rode the complete frame (or shm).
            self._relay_result(
                task_id, "invocation", times, data=payload, descriptor=descriptor
            )
        elif (
            message.get("kind") != "timeout"
            and sandbox is not None
            and sandbox.exists(RESULT_FILE)
        ):
            # Fork mode: the child wrote the classic result file.
            self._relay_result(
                task_id, "invocation", times, data=sandbox.read(RESULT_FILE)
            )
        else:
            failure = {
                "type": "task_failed",
                "task_id": task_id,
                "error": message.get("error", "invocation produced no result"),
                "traceback": message.get("traceback"),
            }
            if message.get("kind") == "timeout":  # fork-mode child overran
                failure["kind"] = "timeout"
            self._send(failure)
        if sandbox is not None:
            sandbox.destroy()

    def _expire_invocation(
        self, handle: _LibraryHandle, task_id: int, entry: tuple
    ) -> None:
        """Loop timer at a direct-mode deadline: the invocation overran if
        ``entry`` is still its deadline on a live instance."""
        if handle.deadlines.get(task_id) is entry and handle.instance_id in self.libraries:
            self._kill_timed_out(handle, task_id)

    def _kill_timed_out(self, handle: _LibraryHandle, task_id: int) -> None:
        """Enforce a direct-mode wall-clock deadline.

        Direct execution shares the library process, so the only way to
        stop an overrunning invocation is to kill the whole instance.
        The victim is reported as a timeout; sibling invocations staged
        on the same instance are innocent, so the manager is asked to
        requeue (not fail) them; finally the instance itself is reported
        failed with a ``timeout`` kind so the manager does not poison
        the library's queue.
        """
        _, timeout = handle.deadlines.pop(task_id)
        self.log.warning(
            "invocation %d exceeded its %.1fs timeout; killing library %d",
            task_id, timeout, handle.instance_id,
        )
        self.tracer.record(
            "task_timeout", task_id=str(task_id), timeout=timeout
        )
        self.tracer.record(
            "task_kill",
            task_id=str(task_id),
            library=handle.library_name,
            instance=handle.instance_id,
        )
        self._signal(handle, signal.SIGKILL)
        sandbox = handle.invocations.pop(task_id, None)
        handle.staging.pop(task_id, None)
        self._send(
            {
                "type": "task_failed",
                "task_id": task_id,
                "kind": "timeout",
                "error": (
                    f"invocation exceeded its {timeout}s wall-clock timeout; "
                    "library instance killed"
                ),
            }
        )
        if sandbox is not None:
            sandbox.destroy()
        for sibling in list(handle.invocations):
            handle.deadlines.pop(sibling, None)
            handle.staging.pop(sibling, None)
            self._send(
                {
                    "type": "task_failed",
                    "task_id": sibling,
                    "kind": "requeue",
                    "error": "library instance killed (sibling invocation timed out)",
                }
            )
            sibling_sandbox = handle.invocations.pop(sibling)
            if sibling_sandbox is not None:
                sibling_sandbox.destroy()
        self._send(
            {
                "type": "library_failed",
                "instance_id": handle.instance_id,
                "kind": "timeout",
                "error": "library killed after an invocation timeout",
            }
        )
        self._terminate_library(handle)

    def _library_died(
        self,
        handle: _LibraryHandle,
        error: str = "library process died",
        stderr: Optional[str] = None,
    ) -> None:
        """A serving instance ended on its own (socket closed, or the
        template reaped it): fail what it was running and the instance."""
        if stderr is None:
            stderr = _stderr_tail(handle.sandbox_dir)
        for task_id in list(handle.invocations):
            self._send(
                {
                    "type": "task_failed",
                    "task_id": task_id,
                    "error": error,
                    "traceback": stderr,
                }
            )
            dead_sandbox = handle.invocations.pop(task_id)
            if dead_sandbox is not None:
                dead_sandbox.destroy()
        self._send(
            {
                "type": "library_failed",
                "instance_id": handle.instance_id,
                "error": error,
                "traceback": stderr,
            }
        )
        self._terminate_library(handle)

    def _signal(self, handle: _LibraryHandle, signum: int) -> None:
        if handle.pid is not None and not handle.exited:
            try:
                os.kill(handle.pid, signum)
            except ProcessLookupError:
                pass  # reaped a moment ago (``exited`` is on its way), or an orphan

    def _terminate_library(
        self, handle: _LibraryHandle, report_removed: bool = False
    ) -> None:
        """Stop serving ``handle`` and tell its process to end.  Nothing
        here waits: ``_library_gone`` runs when the template reports the
        exit, and only then does the manager hear ``library_removed``."""
        self.libraries.pop(handle.instance_id, None)
        self._leaving[handle.instance_id] = handle
        handle.report_removed = report_removed
        if handle.conn is not None:
            self.loop.dismiss(handle.conn, {"type": "shutdown"})
        else:
            self.loop.remove(handle.listener)
            handle.listener.close()
        for sandbox in handle.invocations.values():
            if sandbox is not None:
                sandbox.destroy()
        self._stop_instance(handle)

    def _stop_instance(self, handle: _LibraryHandle) -> None:
        """SIGTERM a leaving instance; SIGKILL follows if 5 s pass without
        its exit being reported.  An orphan's exit never will be, so it
        is killed outright and counted gone."""
        if handle.orphaned:
            self._signal(handle, signal.SIGKILL)
            self._library_gone(handle)
        elif handle.pid is not None:  # else not forked yet: ``spawned`` leads back here
            self._signal(handle, signal.SIGTERM)
            handle.kill_timer = self.loop.call_at(
                time.monotonic() + 5.0,
                partial(self._signal, handle, signal.SIGKILL),
            )

    def _library_gone(self, handle: _LibraryHandle) -> None:
        """The process of a leaving instance has ended: clear its traces."""
        del self._leaving[handle.instance_id]
        if handle.kill_timer is not None:
            handle.kill_timer.cancel()
        try:
            os.unlink(handle.socket_path)
        except OSError:
            pass
        shutil.rmtree(handle.sandbox_dir, ignore_errors=True)
        if handle.report_removed:
            self._send({"type": "library_removed", "instance_id": handle.instance_id})

    # -- task subprocess completion ---------------------------------------------
    def _poll_tasks(self) -> None:
        for task_id in list(self.tasks):
            running = self.tasks[task_id]
            code = running.proc.poll()
            if code is None:
                if (
                    running.deadline is not None
                    and time.monotonic() > running.deadline
                ):
                    self._kill_timed_out_task(running)
                continue
            del self.tasks[task_id]
            times: Dict[str, Any] = {
                "staging": running.staging_time,
                "worker_overhead": running.env_time,
                "wall": time.monotonic() - running.started,
            }
            if code == 0 and running.sandbox.exists(RESULT_FILE):
                self._relay_result(
                    task_id, "task", times, data=running.sandbox.read(RESULT_FILE)
                )
            else:
                self._send(
                    {
                        "type": "task_failed",
                        "task_id": task_id,
                        "error": f"task runner exited with code {code}",
                        "traceback": _stderr_tail(running.sandbox.path),
                    }
                )
            running.sandbox.destroy()
        if not self.tasks and self._task_poll is not None:
            self._task_poll.cancel()
            self._task_poll = None

    def _kill_timed_out_task(self, running: _RunningTask) -> None:
        """A plain task runs in its own subprocess — kill just that."""
        self.log.warning(
            "task %d exceeded its %.1fs timeout; killing its runner",
            running.task_id, running.timeout,
        )
        self.tracer.record(
            "task_timeout", task_id=str(running.task_id), timeout=running.timeout
        )
        running.proc.kill()
        try:
            running.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass
        del self.tasks[running.task_id]
        self._send(
            {
                "type": "task_failed",
                "task_id": running.task_id,
                "kind": "timeout",
                "error": (
                    f"task exceeded its {running.timeout}s wall-clock timeout"
                ),
            }
        )
        running.sandbox.destroy()
