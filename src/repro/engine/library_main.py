"""The library template and the library instances it forks
(``python -m repro.engine.library_main WORKER_FD``).

A library is the paper's retained-context daemon (§3.4).  Each worker
starts this module once, as its *template*: a single-threaded process
that imports what an instance needs, touches no environment directory,
user code, tracer or shared memory, and then forks one instance per
``spawn`` request from the worker (:class:`Template`).  An instance
costs a ``fork``, not an interpreter start, and shares with its
siblings the interpreter and the ``repro`` modules only — never user
context.  The forked instance (:class:`LibraryServer`)

1. reads its configuration (the serialized context spec),
2. reconstructs every function of the context into one shared namespace,
3. executes all context-setup functions,
4. notifies the worker that it is ready, and
5. loops serving invocations — *direct* (synchronous, in-process) or
   *fork* (child process per invocation) — until told to shut down.

State sharing contract: functions reconstructed from source share one
module namespace, so ``global model`` in the setup function is visible
to invocations.  If the setup function returns a mapping, its items are
merged into that namespace as well (the portable way for binary-captured
functions).
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import time
import traceback
from functools import partial
from typing import Any, Dict, Tuple

# Everything an instance needs is imported here, once, by the template.
import repro.serialize.source  # noqa: F401 - a context spec unpickles into FunctionCode
from repro.engine import payloads
from repro.engine.loop import EventLoop
from repro.engine.messages import Connection, attach_trace
from repro.engine.sandbox import ARGS_FILE, RESULT_FILE, STDERR_FILE
from repro.errors import SerializationError
from repro.obs.trace import get_tracer
from repro.serialize.core import (
    deserialize,
    deserialize_from_file,
    serialize,
    serialize_to_file,
)


def _serve_invocation_in(sandbox: str, fn, ns: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one fork-mode invocation whose args are staged in ``sandbox``.

    Returns the outcome dict and writes the result file, mirroring
    task_runner's format so the worker handles both identically.
    (Direct-mode invocations skip the filesystem entirely — see
    :meth:`LibraryServer._handle_invoke`.)
    """
    home = os.getcwd()
    os.chdir(sandbox)
    try:
        load_started = time.monotonic()
        try:
            spec = deserialize_from_file(os.path.join(sandbox, ARGS_FILE))
            args = spec.get("args", ())
            kwargs = spec.get("kwargs", {})
            args, kwargs = payloads.resolve_args(
                args, kwargs, payloads.ResolvedArgCache(), deserialize
            )
        except Exception as exc:
            outcome: Dict[str, Any] = {
                "ok": False,
                "error": f"bad arguments: {exc}",
                "traceback": traceback.format_exc(),
                "times": {"invoc_overhead": time.monotonic() - load_started, "exec_time": 0.0},
            }
            serialize_to_file(outcome, os.path.join(sandbox, RESULT_FILE))
            return outcome
        invoc_overhead = time.monotonic() - load_started
        exec_started = time.monotonic()
        try:
            value = fn(*args, **kwargs)
            outcome = {"ok": True, "value": value}
        except BaseException as exc:
            outcome = {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        outcome["times"] = {
            "invoc_overhead": invoc_overhead,
            "exec_time": time.monotonic() - exec_started,
        }
        serialize_to_file(outcome, os.path.join(sandbox, RESULT_FILE))
        return outcome
    finally:
        os.chdir(home)


class LibraryServer:
    """The daemon loop: context setup once, invocations many times."""

    def __init__(
        self,
        spec_path: str,
        socket_path: str,
        env_dir: str | None,
        instance_id: int = 0,
    ):
        self.spec_path = spec_path
        self.socket_path = socket_path
        self.env_dir = env_dir
        self.instance_id = instance_id
        self.library_name = ""
        # Forwarding tracer: events piggyback on the ready/complete
        # frames to the worker, which relays them to the manager.
        self.tracer = get_tracer(f"library.{instance_id or os.getpid()}")
        self.namespace: Dict[str, Any] = {}
        self.functions: Dict[str, Any] = {}
        self.children: Dict[int, int] = {}  # pid -> invocation task id
        # Fork-mode wall-clock timeouts: pid -> monotonic deadline.  An
        # overdue child is SIGKILLed and reported as a timeout — the
        # library itself survives, unlike direct mode where the worker
        # must kill the whole instance.
        self.child_deadlines: Dict[int, float] = {}
        self.timed_out: Dict[int, float] = {}  # pid -> requested timeout
        self.setup_time = 0.0
        # Deserialized declare_argument values, keyed by content digest.
        # A warm instance therefore pays neither the copy nor the
        # unpickle for a repeated large argument — the retained-context
        # principle applied to data.
        self.arg_cache = payloads.ResolvedArgCache()

    # -- context construction ---------------------------------------------
    def build_context(self) -> None:
        setup_started = time.monotonic()
        if self.env_dir:
            sys.path.insert(0, self.env_dir)
        spec = deserialize_from_file(self.spec_path)
        self.library_name = str(spec.get("name", ""))
        codes = spec["functions"]           # name -> FunctionCode
        for name in sorted(codes):
            self.functions[name] = codes[name].reconstruct(self.namespace)
        setup_code = spec.get("setup")
        if setup_code is not None:
            setup_fn = setup_code.reconstruct(self.namespace)
            returned = setup_fn(*spec.get("setup_args", ()))
            # Merge globals the setup created in ITS namespace (binary route)
            # plus any returned mapping into the shared namespace.
            own_globals = getattr(setup_fn, "__globals__", {})
            for key, value in own_globals.items():
                if not key.startswith("__") and key not in self.namespace:
                    self.namespace[key] = value
            if isinstance(returned, dict):
                self.namespace.update(returned)
        # Binary-captured functions carry their own globals dict; give them
        # visibility into the shared context namespace.
        for fn in self.functions.values():
            fn_globals = getattr(fn, "__globals__", None)
            if fn_globals is not None and fn_globals is not self.namespace:
                for key, value in self.namespace.items():
                    if not key.startswith("__"):
                        fn_globals.setdefault(key, value)
        self.setup_time = time.monotonic() - setup_started

    # -- main loop -----------------------------------------------------------
    def serve(self) -> int:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(self.socket_path)
        conn = Connection(sock, name="worker")
        try:
            self.build_context()
        except BaseException as exc:
            conn.send(
                {
                    "type": "startup_failed",
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
            return 1
        self.tracer.record(
            "library_warm",
            library=self.library_name,
            instance=self.instance_id,
            seconds=self.setup_time,
        )
        conn.send(
            attach_trace(
                {"type": "ready", "setup_time": self.setup_time}, self.tracer
            )
        )
        while True:
            self._reap_children(conn)
            try:
                message, payload = conn.receive(timeout=0.05)
            except TimeoutError:
                continue
            except Exception:
                return 0  # worker went away; nothing more to serve
            mtype = message.get("type")
            if mtype == "shutdown":
                self._drain_children(conn)
                conn.send({"type": "bye"})
                return 0
            if mtype == "invoke":
                self._handle_invoke(conn, message, payload)
            # unknown types are ignored: forward compatibility

    def _load_direct_args(self, message: Dict[str, Any], payload: bytes):
        """Materialize a direct invocation's (args, kwargs) from the frame.

        Arguments arrive either inline behind the invoke frame or as an
        ``args_shm`` descriptor, in which case they are deserialized
        straight out of the attached segment (zero copy).  Declared
        arguments (placeholders) resolve through the per-process cache.
        """
        descriptor = message.get("args_shm")
        if descriptor is not None:
            with payloads.attach(descriptor) as mapped:
                spec = deserialize(mapped.view)
        elif payload:
            spec = deserialize(payload)
        else:
            spec = {}
        args = spec.get("args", ())
        kwargs = spec.get("kwargs", {})
        return payloads.resolve_args(args, kwargs, self.arg_cache, deserialize)

    def _run_direct(
        self, message: Dict[str, Any], payload: bytes, fn
    ) -> Dict[str, Any]:
        """Execute a direct invocation without touching the filesystem.

        The pre-payload-plane path wrote an args file, read it back,
        wrote an fsync'd result file, and had the worker read that —
        five filesystem operations per invocation on the hottest path in
        the system.  Args now arrive on the invoke frame (or in shared
        memory) and the result returns on the complete frame (or as a
        one-shot segment); the sandbox is only entered when the
        invocation actually staged input files.
        """
        sandbox = message.get("sandbox")
        home = os.getcwd()
        if sandbox:
            os.chdir(sandbox)
        try:
            load_started = time.monotonic()
            try:
                args, kwargs = self._load_direct_args(message, payload)
            except Exception as exc:
                return {
                    "ok": False,
                    "error": f"bad arguments: {exc}",
                    "traceback": traceback.format_exc(),
                    "times": {
                        "invoc_overhead": time.monotonic() - load_started,
                        "exec_time": 0.0,
                    },
                }
            invoc_overhead = time.monotonic() - load_started
            exec_started = time.monotonic()
            try:
                value = fn(*args, **kwargs)
                outcome: Dict[str, Any] = {"ok": True, "value": value}
            except BaseException as exc:
                outcome = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            outcome["times"] = {
                "invoc_overhead": invoc_overhead,
                "exec_time": time.monotonic() - exec_started,
            }
            return outcome
        finally:
            if sandbox:
                os.chdir(home)

    def _handle_invoke(
        self, conn, message: Dict[str, Any], payload: bytes = b""
    ) -> None:
        task_id = message["task_id"]
        fname = message["function"]
        mode = message.get("mode", "direct")
        fn = self.functions.get(fname)
        if fn is None:
            conn.send(
                {
                    "type": "complete",
                    "task_id": task_id,
                    "ok": False,
                    "error": f"library has no function {fname!r}",
                }
            )
            return
        timeout = message.get("timeout")
        if mode == "fork":
            sandbox = message["sandbox"]  # fork mode stays file-based
            pid = os.fork()
            if pid == 0:
                # Child: run the invocation in the inherited (already set
                # up) context, write the result file, and exit without
                # running any parent cleanup.
                code = 0
                try:
                    _serve_invocation_in(sandbox, fn, self.namespace)
                except BaseException:
                    code = 1
                os._exit(code)
            self.children[pid] = task_id
            if timeout:
                self.child_deadlines[pid] = time.monotonic() + float(timeout)
            return
        outcome = self._run_direct(message, payload, fn)
        times = outcome.get("times", {})
        self.tracer.record(
            "library_invoke",
            task_id=str(task_id),
            ok=bool(outcome.get("ok")),
            mode="direct",
            seconds=times.get("exec_time", 0.0),
            invoc_overhead=times.get("invoc_overhead", 0.0),
        )
        frame = {
            "type": "complete",
            "task_id": task_id,
            "ok": bool(outcome.get("ok")),
            "times": times,
        }
        try:
            blob = serialize(outcome)
        except SerializationError as exc:
            frame["ok"] = False
            frame["error"] = str(exc)
            conn.send(attach_trace(frame, self.tracer))
            return
        if payloads.enabled() and len(blob) >= payloads.threshold_bytes():
            try:
                frame["payload_shm"] = payloads.publish_once(blob)
                blob = b""
            except payloads.PayloadError:
                pass  # shm creation failed; ship inline
        conn.send(attach_trace(frame, self.tracer), blob)

    def _kill_overdue_children(self) -> None:
        if not self.child_deadlines:
            return
        now = time.monotonic()
        for pid, deadline in list(self.child_deadlines.items()):
            if now > deadline:
                del self.child_deadlines[pid]
                self.timed_out[pid] = deadline
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def _complete_frame(self, pid: int, task_id: int, ok: bool) -> Dict[str, Any]:
        frame: Dict[str, Any] = {
            "type": "complete", "task_id": task_id, "ok": ok, "times": {},
        }
        if pid in self.timed_out:
            del self.timed_out[pid]
            frame["ok"] = False
            frame["kind"] = "timeout"
            frame["error"] = (
                "fork-mode invocation exceeded its wall-clock timeout"
            )
        # Fork-mode timings live in the child's result file; the parent
        # only knows the outcome, so the event carries no span.
        self.tracer.record(
            "library_invoke",
            task_id=str(task_id),
            ok=bool(frame["ok"]),
            mode="fork",
        )
        return attach_trace(frame, self.tracer)

    def _reap_children(self, conn) -> None:
        """Collect finished fork-mode invocations (the SIGCHLD path)."""
        self._kill_overdue_children()
        while self.children:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                self.children.clear()
                return
            if pid == 0:
                return
            task_id = self.children.pop(pid, None)
            self.child_deadlines.pop(pid, None)
            if task_id is None:
                continue
            ok = os.waitstatus_to_exitcode(status) == 0
            conn.send(self._complete_frame(pid, task_id, ok))

    def _drain_children(self, conn) -> None:
        while self.children:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:
                self.children.clear()
                return
            task_id = self.children.pop(pid, None)
            self.child_deadlines.pop(pid, None)
            if task_id is not None:
                ok = os.waitstatus_to_exitcode(status) == 0
                conn.send(self._complete_frame(pid, task_id, ok))


class Template:
    """The worker's fork server: one warm process, one instance per
    ``spawn`` frame.

    It speaks to the worker over the inherited ``AF_UNIX`` socket:
    ``spawn`` in; ``spawned`` (the instance's pid) and ``exited`` (its
    exit code, once reaped) out.  Instances are reaped with ``waitpid``
    so that their CPU time stays on this process's books.  When the
    worker goes away, so does everything forked here.
    """

    def __init__(self, sock: socket.socket):
        self.loop = EventLoop()
        self.worker = Connection(sock, name="worker")
        self.children: Dict[int, Tuple[int, int]] = {}  # pid -> (instance id, pidfd)
        self.worker_lost = False

    def run(self) -> int:
        self.loop.add_connection(self.worker, self._on_frame, self._on_worker_lost)
        while not self.worker_lost:
            self.loop.run_once(60.0)
        for pid in self.children:
            os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        while self.children and time.monotonic() < deadline:
            self.loop.run_once(deadline - time.monotonic())
        for pid in self.children:  # stuck outside the interpreter
            os.kill(pid, signal.SIGKILL)
        return 0

    def _on_worker_lost(self, reason: str) -> None:
        self.worker_lost = True

    def _on_frame(self, message: Dict[str, Any], payload: bytes) -> None:
        if message["type"] != "spawn":
            return  # unknown types are ignored: forward compatibility
        instance_id = int(message["instance_id"])
        try:
            pid = os.fork()
        except OSError as exc:
            self.loop.send(
                self.worker,
                {"type": "exited", "instance_id": instance_id, "error": f"fork: {exc}"},
            )
            return
        if pid == 0:
            self._become_instance(message)
        pidfd = os.pidfd_open(pid)
        self.children[pid] = (instance_id, pidfd)
        self.loop.add_reader(pidfd, partial(self._reap, pid))
        self.loop.send(
            self.worker, {"type": "spawned", "instance_id": instance_id, "pid": pid}
        )

    def _reap(self, pid: int) -> None:
        instance_id, pidfd = self.children.pop(pid)
        self.loop.remove(pidfd)
        os.close(pidfd)
        _, status = os.waitpid(pid, 0)
        if not self.worker_lost:
            self.loop.send(
                self.worker,
                {
                    "type": "exited",
                    "instance_id": instance_id,
                    "code": os.waitstatus_to_exitcode(status),
                },
            )

    def _become_instance(self, message: Dict[str, Any]) -> None:
        """In the forked child: shed the template, then serve.  Never
        returns, and never unwinds into the template's own frames."""
        code = 1
        try:
            sandbox = message["sandbox"]
            log = os.open(
                os.path.join(sandbox, STDERR_FILE),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            os.dup2(log, 2)
            os.close(log)
            self.loop.close()
            self.worker.close()
            for _, pidfd in self.children.values():
                os.close(pidfd)
            os.chdir(sandbox)
            signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
            code = LibraryServer(
                message["spec"],
                message["socket"],
                message.get("env_dir"),
                instance_id=int(message["instance_id"]),
            ).serve()
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                sys.stderr.flush()
            finally:
                os._exit(code)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1 or not argv[0].isdigit():
        sys.stderr.write("usage: library_main WORKER_FD\n")
        return 64
    return Template(socket.socket(fileno=int(argv[0]))).run()


if __name__ == "__main__":
    raise SystemExit(main())
