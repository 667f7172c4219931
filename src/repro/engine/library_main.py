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

1. connects to its worker's per-instance socket and attaches its own
   link to the manager (numeric address, per-instance token),
2. reads its configuration (the serialized context spec),
3. reconstructs every function of the context into one shared namespace,
4. executes all context-setup functions,
5. notifies the worker that it is ready, and
6. serves invocations from the manager's link — *direct* (synchronous,
   in-process) or *fork* (child process per invocation) — and answers
   each on that link, until the worker tells it to shut down.  A call
   with input files runs in a sandbox the instance stages itself, by
   hard links from its worker's cache directory.  The worker's link
   carries only ``ready``/``startup_failed`` out and ``shutdown`` in.

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
from typing import Any, Dict, Set, Tuple

# Everything an instance needs is imported here, once, by the template.
import repro.serialize.source  # noqa: F401 - a context spec unpickles into FunctionCode
from repro.engine import payloads
from repro.engine.loop import EventLoop, Timer
from repro.engine.messages import Connection, attach_trace, unpack_invocations
from repro.engine.sandbox import RESULT_FILE, STDERR_FILE, Sandbox
from repro.errors import SerializationError
from repro.obs.trace import get_tracer
from repro.serialize.core import deserialize, deserialize_from_file, serialize


class LibraryServer:
    """One instance: context setup once, then invocations until the
    worker says ``shutdown``.

    Its one event loop watches two peers.  The manager's link carries
    every invocation, and every answer goes back on it.  The worker's
    link carries the lifecycle frames; a loss of either link ends the
    instance.
    """

    def __init__(
        self,
        spec_path: str,
        socket_path: str,
        env_dir: str | None,
        instance_id: int = 0,
        *,
        manager: Tuple[str, int],
        token: str,
        shm: bool = False,
        cache: str = "",
    ):
        self.spec_path = spec_path
        self.cache = cache  # the worker's cache directory: inputs link from it
        self.socket_path = socket_path
        self.env_dir = env_dir
        self.instance_id = instance_id
        self.manager_address = manager  # numeric (host, port)
        self.token = token
        # A big direct result goes to the manager as a one-shot segment
        # only when the manager can attach it; otherwise inline.
        self.shm_to_manager = shm and payloads.enabled()
        self.library_name = ""
        # Forwarding tracer: events piggyback on whichever frame leaves
        # next — an answer to the manager, or ``ready`` to the worker,
        # which relays them.
        self.tracer = get_tracer(f"library.{instance_id or os.getpid()}")
        self.namespace: Dict[str, Any] = {}
        self.functions: Dict[str, Any] = {}
        self.loop = EventLoop()
        self.worker: Connection | None = None
        self.manager: Connection | None = None
        self.serving = True
        # Fork-mode children: pid -> (task id, pidfd, deadline timer,
        # sandbox, staging seconds).  An overdue child is SIGKILLed and
        # reported as a timeout — the library itself survives, unlike
        # direct mode where the worker must kill the whole instance.
        self.children: Dict[
            int, Tuple[int, int, Timer | None, Sandbox, float]
        ] = {}
        self.timed_out: Set[int] = set()
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
        self.worker = Connection(sock, name="worker")
        try:
            self.manager = self._attach()
            self.build_context()
        except BaseException as exc:
            self.worker.send(
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
        self.worker.send(
            attach_trace(
                {"type": "ready", "setup_time": self.setup_time}, self.tracer
            )
        )
        self.loop.add_connection(self.worker, self._on_worker_frame, self._on_lost)
        self.loop.add_connection(self.manager, self._on_manager_frame, self._on_lost)
        while self.serving:
            self.loop.run_once(60.0)
        self._end_children()
        return 0

    def _attach(self) -> Connection:
        """Dial the manager and present this instance's token.

        The address is numeric and dialled with a plain ``connect``.  A
        helper that resolves it first loads the C library's name-service
        machinery into the freshly forked process: over 3 ms of CPU per
        instance, against 0.12 ms for the connect (ci.sh keeps them out
        of this file).
        """
        host, port = self.manager_address
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.connect((host, port))
        except OSError:
            sock.close()
            raise
        conn = Connection(sock, name="manager")
        conn.send({"type": "attach", "instance_id": self.instance_id, "token": self.token})
        return conn

    def _on_lost(self, reason: str) -> None:
        self.serving = False  # either peer gone: nothing more to serve

    def _on_worker_frame(self, message: Dict[str, Any], payload: bytes) -> None:
        if message["type"] == "shutdown":
            self.serving = False
        # unknown types are ignored: forward compatibility

    def _on_manager_frame(self, message: Dict[str, Any], payload: bytes) -> None:
        for header, blob in unpack_invocations(message, payload):
            self._invoke(header, blob)

    def _answer(self, frame: Dict[str, Any], blob: bytes = b"") -> None:
        self.loop.send(self.manager, attach_trace(frame, self.tracer), blob)

    def _invoke(self, message: Dict[str, Any], payload: bytes) -> None:
        """Run one invocation and answer it on the manager's link: a
        direct one at once, a fork-mode one once its child exits.  One
        with input files, and every fork-mode one (its child leaves the
        outcome in a file), runs in a sandbox of its own."""
        task_id = message["task_id"]
        fn = self.functions.get(message["function"])
        if fn is None:
            self._answer(
                {
                    "type": "task_failed",
                    "task_id": task_id,
                    "error": f"library has no function {message['function']!r}",
                }
            )
            return
        fork = message.get("mode") == "fork"
        sandbox = None
        staging = 0.0
        if fork or "inputs" in message:
            started = time.monotonic()
            try:
                sandbox = self._stage(task_id, message.get("inputs", ()))
            except Exception as exc:
                frame = {
                    "type": "task_failed",
                    "task_id": task_id,
                    "error": f"staging failed: {type(exc).__name__}: {exc}",
                }
                if isinstance(exc, FileNotFoundError):
                    # Evicted from the worker's cache after the worker
                    # confirmed it: the manager hands the call back.
                    frame["kind"] = "requeue"
                self._answer(frame)
                return
            staging = time.monotonic() - started
            self.tracer.record(
                "stage_done", task_id=str(task_id), kind="invocation", seconds=staging
            )
        if fork:
            self._fork_invocation(message, payload, fn, sandbox, staging)
            return
        try:
            outcome = self._run_direct(message, payload, fn, sandbox)
        finally:
            if sandbox is not None:
                sandbox.destroy()
        times = outcome["times"]
        self.tracer.record(
            "library_invoke",
            task_id=str(task_id),
            ok=bool(outcome.get("ok")),
            mode="direct",
            seconds=times["exec_time"],
            invoc_overhead=times["invoc_overhead"],
        )
        try:
            blob = serialize(outcome)
        except SerializationError as exc:
            self._answer({"type": "task_failed", "task_id": task_id, "error": str(exc)})
            return
        self._send_result(
            task_id, blob, dict(times, staging=staging, worker_overhead=0.0)
        )

    def _send_result(self, task_id: int, blob: bytes, times: Dict[str, Any]) -> None:
        """A serialized outcome to the manager: a big one as a one-shot
        segment when the manager can attach it, otherwise inline."""
        frame: Dict[str, Any] = {
            "type": "result",
            "task_id": task_id,
            "kind": "invocation",
            "times": times,
        }
        if self.shm_to_manager and len(blob) >= payloads.threshold_bytes():
            try:
                frame["payload_shm"] = payloads.publish_once(blob)
                blob = b""
            except payloads.PayloadError:
                pass  # shm creation failed; ship inline
        self._answer(frame, blob)

    def _stage(self, task_id: int, inputs) -> Sandbox:
        """A fresh sandbox in this instance's directory, with each input
        hard-linked from the worker's cache (same host, same filesystem).
        A link outlives a later eviction of its cache entry."""
        sandbox = Sandbox(os.path.dirname(self.spec_path), f"invoc-{task_id}")
        try:
            for item in inputs:
                sandbox.stage(os.path.join(self.cache, item["hash"]), item["name"])
        except BaseException:
            sandbox.destroy()
            raise
        return sandbox

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
        self, message: Dict[str, Any], payload: bytes, fn, sandbox: Sandbox | None
    ) -> Dict[str, Any]:
        """Execute an invocation, in ``sandbox`` when it has one.

        Args arrive on the invocation frame (or in shared memory) and the
        outcome is returned for the caller to ship: nothing here reads or
        writes a file.
        """
        if sandbox is not None:
            home = os.getcwd()
            os.chdir(sandbox.path)
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
            if sandbox is not None:
                os.chdir(home)

    def _fork_invocation(
        self,
        message: Dict[str, Any],
        payload: bytes,
        fn,
        sandbox: Sandbox,
        staging: float,
    ) -> None:
        """Run one invocation in a forked child — the same ``_run_direct``,
        in the sandbox, its serialized outcome left in the result file; a
        pidfd in the loop reports its exit, a timer its deadline."""
        pid = os.fork()
        if pid == 0:
            # Child: run the invocation in the inherited (already set up)
            # context, without the instance's links (its death must stay
            # visible to both peers), and exit without any parent cleanup.
            code = 0
            try:
                self.loop.close()
                self.worker.close()
                self.manager.close()
                outcome = self._run_direct(message, payload, fn, sandbox)
                sandbox.write(RESULT_FILE, serialize(outcome))
            except BaseException:
                code = 1
            os._exit(code)
        pidfd = os.pidfd_open(pid)
        timeout = message.get("timeout")
        timer = None
        if timeout:
            timer = self.loop.call_at(
                time.monotonic() + float(timeout), partial(self._kill_child, pid)
            )
        self.children[pid] = (message["task_id"], pidfd, timer, sandbox, staging)
        self.loop.add_reader(pidfd, partial(self._reap, pid))

    def _kill_child(self, pid: int) -> None:
        self.timed_out.add(pid)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _reap(self, pid: int) -> None:
        """A fork-mode child exited: answer its invocation the way a
        direct one is answered, from the result file it left."""
        task_id, pidfd, timer, sandbox, staging = self.children.pop(pid)
        self.loop.remove(pidfd)
        os.close(pidfd)
        _, status = os.waitpid(pid, 0)
        if timer is not None:
            timer.cancel()
        timed_out = pid in self.timed_out
        self.timed_out.discard(pid)
        ok = not timed_out and os.waitstatus_to_exitcode(status) == 0
        # Fork-mode timings live in the child's outcome; the parent only
        # knows how the child ended, so the event carries no span.
        self.tracer.record("library_invoke", task_id=str(task_id), ok=ok, mode="fork")
        if ok:
            self._send_result(
                task_id,
                sandbox.read(RESULT_FILE),
                {"staging": staging, "worker_overhead": 0.0},
            )
        elif timed_out:
            self._answer(
                {
                    "type": "task_failed",
                    "task_id": task_id,
                    "kind": "timeout",
                    "error": "fork-mode invocation exceeded its wall-clock timeout",
                }
            )
        else:
            self._answer(
                {
                    "type": "task_failed",
                    "task_id": task_id,
                    "error": "invocation produced no result",
                }
            )
        sandbox.destroy()

    def _end_children(self) -> None:
        """Leaving: results have nowhere to go, so no child outlives us."""
        for pid, (_, pidfd, _, sandbox, _) in self.children.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(pidfd)
            sandbox.destroy()
        self.children.clear()


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
                manager=tuple(message["manager"]),
                token=message["token"],
                shm=bool(message.get("shm")),
                cache=message["cache"],
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
