"""Multi-manager sharding behind a consistent-hash router.

One manager process is a hard scalability ceiling: every submission,
dispatch decision, and completion funnels through a single event loop,
so the paper's context-reuse wins stop at one core.  The router lifts
that ceiling the way funcX federates endpoints — N autonomous manager
processes ("shards"), each owning its own :class:`ShardState`, worker
fleet, and payload store, behind one submission interface with the
:class:`~repro.engine.manager.Manager` API (``submit`` / ``wait`` /
``wait_all`` / ``cancel`` / ``declare_argument``).

Placement across shards is a consistent-hash decision over the same
:class:`~repro.engine.scheduling.HashRing` the manager uses across
workers: a library hashes to one *home* shard and every invocation of
it routes there, so its warm instances stay sticky to one shard (the
StickyInvoc argument — context affinity drives placement) while
independent libraries and plain tasks fan out across shards.

Fault model, reusing the blame-set retry semantics of the single
manager:

* A shard that dies takes its workers with it.  The router keeps the
  authoritative :class:`~repro.engine.task.Task` objects, so every
  in-flight task on the dead shard is retried on a surviving shard
  with ``retries += 1`` and ``"shard:<name>"`` appended to its blame
  set (never re-routed to a blamed shard), raising
  :class:`~repro.errors.TaskRetryExhausted` past the budget.
* Libraries homed on the dead shard are re-homed by walking the ring.
  Library code blobs are *pre-staged* on every shard at install time
  via :func:`repro.distribute.plan.plan_broadcast`'s spanning tree —
  the home shard seeds its peers shard-to-shard (each staged shard
  serves further peers from its blob server, ``peer_cap`` bounding
  fan-out) — so a re-home normally installs from the local stage and
  only falls back to a direct router send when the blob never arrived.

Declared arguments broadcast to every shard once (the value crosses
the wire one time per shard, not per task); each shard re-declares the
blob into its own payload store and rewrites incoming placeholders to
shard-local handles by digest.
"""

from __future__ import annotations

import collections
import itertools
import os
import socket
import subprocess
import sys
import tempfile
import time
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set

from repro.discover.context import DataBinding, discover_context
from repro.distribute.plan import plan_broadcast
from repro.distribute.topology import Topology, TransferMode
from repro.engine import messages, payloads
from repro.engine.loop import EventLoop
from repro.engine.policies import SchedulingPolicy, resolve_policy
from repro.engine.resources import Resources
from repro.engine.sandbox import stderr_tail
from repro.engine.scheduling import HashRing
from repro.engine.task import (
    ExecMode,
    FunctionCall,
    LibraryTask,
    PythonTask,
    Task,
    TaskState,
)
from repro.errors import (
    EngineError,
    LibraryError,
    TaskFailure,
    TaskRetryExhausted,
)
from repro.obs.metrics import (
    MetricsRegistry,
    StatsShim,
    federate_snapshots,
    shard_stats,
)
from repro.obs.statusd import StatusServer
from repro.obs.statusd import status_port as _env_status_port
from repro.obs.trace import TraceEvent, get_tracer, merge_task_timeline
from repro.util.logging import get_logger
from repro.serialize.core import serialize
from repro.serialize.source import capture_function
from repro.util.hashing import hash_bytes

_SHARD_STDERR = "shard.stderr"  # each shard's stderr, in its own directory


class _ShardLink:
    """Router-side record of one connected shard process."""

    __slots__ = (
        "name",
        "conn",
        "proc",
        "pid",
        "blob_port",
        "status_port",
        "status",
        "metrics",
        "inflight",
    )

    def __init__(self, name: str, conn: messages.Connection, proc=None):
        self.name = name
        self.conn = conn
        self.proc = proc
        self.pid: Optional[int] = None
        self.blob_port: Optional[int] = None
        self.status_port: Optional[int] = None  # shard's bound statusd port
        self.status: Dict[str, Any] = {}
        # Most recent full registry snapshot pushed on a shard_status
        # frame (federation mode only); the router's /metrics merges it.
        self.metrics: Dict[str, Any] = {}
        self.inflight: Set[int] = set()  # router-side task ids

    @property
    def blob_addr(self) -> Optional[str]:
        if self.blob_port is None:
            return None
        return f"127.0.0.1:{self.blob_port}"


class _LibraryRecord:
    """Authoritative record of an installed library and where its blob is."""

    __slots__ = ("library", "blob", "digest", "home", "installed", "staged")

    def __init__(self, library: LibraryTask, blob: bytes, digest: str):
        self.library = library
        self.blob = blob
        self.digest = digest
        self.home: Optional[str] = None
        self.installed: Set[str] = set()  # shards running it
        self.staged: Set[str] = set()     # shards holding the blob on disk


class Router:
    """A stateless front-end sharding contexts across N manager processes.

    ::

        with Router(shards=2, workers_per_shard=2) as router:
            lib = router.create_library_from_functions("m", f)
            router.install_library(lib)
            calls = [FunctionCall("m", "f", i) for i in range(100)]
            for c in calls:
                router.submit(c)
            router.wait_all(calls)

    The router holds no scheduling state of its own — queues, placement,
    and payload pins all live shard-side — only the authoritative Task
    objects, the library records, and the ring.

    Shards are started by policy *name* (``--policy <name>``), so the
    constructor parameters of a policy instance passed as ``policy``
    govern the router tier only; each shard builds its own instance with
    that policy's defaults.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        workers_per_shard: int = 1,
        worker_cores: int = 4,
        worker_memory: int = 4096,
        worker_disk: int = 4096,
        workdir: Optional[str] = None,
        max_retries: int = 3,
        peer_cap: int = 3,
        connect_timeout: float = 60.0,
        spawn: bool = True,
        policy: "str | SchedulingPolicy | None" = None,
        status_port: Optional[int] = None,
    ):
        if shards < 1:
            raise EngineError("router needs at least one shard")
        if max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.peer_cap = peer_cap
        # Serving-layer policy, applied at two levels: the router itself
        # consults it for shard-level affinity (plain tasks follow the
        # shard that last completed the same function), and every shard
        # subprocess is started with the same policy name so manager-level
        # routing matches.  FunctionCalls are already sticky to their
        # library's home shard regardless of policy.
        self.policy = resolve_policy(policy)
        self._owns_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-router-")
        os.makedirs(self.workdir, exist_ok=True)
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=16)
        self.loop = EventLoop()
        self.loop.add_listener(
            self._listener, lambda sock: self.loop.await_hello(sock, self._on_hello)
        )
        self.loop.call_every(1.0, self._reap_exited_shards)
        self.ring = HashRing(replicas=64)
        self._shards: Dict[str, _ShardLink] = {}
        self._libraries: Dict[str, _LibraryRecord] = {}
        self._declared: Dict[str, bytes] = {}  # digest -> blob (for late shards)
        self._inflight: Dict[int, Task] = {}
        self._task_shard: Dict[int, str] = {}
        self._completed: Deque[Task] = collections.deque()
        self._acks: Dict[tuple, Any] = {}  # (kind, key) -> value
        self._closed = False
        # Per-shard instruments are namespaced counters on one registry
        # ("shard.<name>.completed", ...); `router.shard_stats(name)`
        # returns the per-shard view, `router.stats` the router's own.
        self.metrics = MetricsRegistry()
        self.stats = StatsShim(self.metrics)
        self.log = get_logger("router")
        # Cluster trace root (no-op unless REPRO_TRACE is set): the
        # router stamps every submission with a trace id, records the
        # router-side spans itself, and absorbs the shard-stamped
        # timeline shipped back on each task_done frame — so this
        # tracer's ring holds the merged router+shard+worker+library
        # view of the whole cluster.
        self.tracer = get_tracer("router")
        self._trace_seq = itertools.count()
        # router task id -> trace id; kept after completion so callers
        # can ask for a finished task's merged timeline.
        self._trace_ids: Dict[int, str] = {}
        # Metrics federation: shards push full registry snapshots on
        # their status frames and the router's own /metrics + /status
        # serve the merged per-shard + cluster-rollup view.  On exactly
        # when the router runs a status server.
        resolved_port = (
            status_port if status_port is not None else _env_status_port()
        )
        self.federate = resolved_port is not None
        self.status_server: Optional[StatusServer] = None
        if resolved_port is not None:
            self.status_server = StatusServer(
                self._metrics_snapshot, self._status_document, port=resolved_port
            ).start()
        if spawn:
            try:
                self._spawn_shards(
                    shards,
                    workers_per_shard,
                    worker_cores,
                    worker_memory,
                    worker_disk,
                    connect_timeout,
                )
            except Exception:
                self.close()
                raise

    # ---------------------------------------------------------------- setup
    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()
        return f"{host}:{port}"

    def shard_names(self) -> List[str]:
        return sorted(self._shards)

    def shard_stats(self, name: str) -> StatsShim:
        """The ``shard.<name>.*`` counter namespace as a mapping."""
        return shard_stats(self.metrics, name)

    def _spawn_shards(
        self,
        count: int,
        workers: int,
        cores: int,
        memory: int,
        disk: int,
        connect_timeout: float,
    ) -> None:
        procs = []
        for i in range(count):
            name = f"shard-{i}"
            wdir = os.path.join(self.workdir, name)
            cmd = [
                sys.executable,
                "-m",
                "repro.engine.shard_main",
                "--router",
                self.address,
                "--name",
                name,
                "--workers",
                str(workers),
                "--cores",
                str(cores),
                "--memory",
                str(memory),
                "--disk",
                str(disk),
                "--workdir",
                wdir,
                "--index",
                str(i),
            ]
            cmd.extend(["--policy", self.policy.name])
            # A file never fills, so a chatty shard cannot block on it.
            os.makedirs(wdir, exist_ok=True)
            with open(os.path.join(wdir, _SHARD_STDERR), "wb") as stderr:
                procs.append(
                    (name, subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=stderr))
                )
        pending = {name: proc for name, proc in procs}
        deadline = time.monotonic() + connect_timeout
        while pending:
            if time.monotonic() > deadline:
                details = self._collect_stderr(pending)
                for proc in pending.values():
                    proc.terminate()
                raise EngineError(
                    f"shards failed to register: {sorted(pending)}\n{details}"
                )
            self.loop.run_once(0.1)
            for name in list(pending):
                if name in self._shards:
                    self._shards[name].proc = pending.pop(name)
                elif pending[name].poll() is not None:
                    details = self._collect_stderr([name])
                    raise EngineError(f"shard {name} exited at startup:\n{details}")

    def _collect_stderr(self, names: Iterable[str]) -> str:
        chunks = [
            stderr_tail(os.path.join(self.workdir, name), _SHARD_STDERR)
            for name in names
        ]
        return "\n---\n".join(filter(None, chunks)) or "(no shard stderr)"

    # ------------------------------------------------------------- libraries
    def create_library_from_functions(
        self,
        name: str,
        *functions: Callable[..., Any],
        context: Callable[..., Any] | None = None,
        context_args: Iterable[Any] = (),
        function_slots: int = 1,
        resources: Resources | None = None,
        exec_mode: ExecMode = ExecMode.DIRECT,
        extra_imports: Iterable[str] = (),
        data: Iterable[DataBinding] = (),
    ) -> LibraryTask:
        """Discover a context and wrap it, mirroring the manager API."""
        ctx = discover_context(
            name,
            list(functions),
            setup=context,
            setup_args=context_args,
            extra_imports=extra_imports,
            scan_dependencies=False,
            data=data,
        )
        return LibraryTask(
            ctx,
            function_slots=function_slots,
            resources=resources,
            exec_mode=exec_mode,
        )

    def install_library(self, library: LibraryTask) -> None:
        """Install on the library's home shard and pre-stage the blob
        everywhere else via the spanning-tree transfer plan."""
        self._check_open()
        if library.name in self._libraries:
            raise LibraryError(f"library {library.name!r} already installed")
        blob = serialize(library)
        record = _LibraryRecord(library, blob, hash_bytes(blob))
        self._libraries[library.name] = record
        self._ensure_home(record)
        self._stage_everywhere(record)

    def _ensure_home(self, record: _LibraryRecord) -> None:
        """(Re)assign the home shard by ring walk and install there."""
        if not self._shards:
            raise EngineError("no live shards")
        for name in self.ring.walk(record.library.name):
            if name in self._shards:
                record.home = name
                break
        else:  # pragma: no cover - ring and _shards stay in sync
            raise EngineError("no live shards on the ring")
        link = self._shards[record.home]
        frame = {
            "type": "install_library",
            "name": record.library.name,
            "digest": record.digest,
        }
        if record.home in record.staged:
            # The blob is already on the shard's disk from pre-staging;
            # install locally without re-shipping it.
            self._send(link, dict(frame, from_stage=True))
        else:
            self._send(link, frame, record.blob)
        self._await_ack(("library", record.home, record.digest))
        record.installed.add(record.home)
        record.staged.add(record.home)

    def _stage_everywhere(self, record: _LibraryRecord) -> None:
        """Spanning-tree pre-stage of the library blob to non-home shards.

        The plan's topology treats shards as the "workers": the home
        shard (already holding the blob) is the root, and each transfer
        whose source is another shard resolves to that shard's blob
        server — a true manager-to-manager peer copy that never crosses
        the router again.
        """
        others = [n for n in self.shard_names() if n != record.home]
        if not others:
            return
        topo = Topology()
        for n in others:
            topo.add_worker(n)
        plan = plan_broadcast(
            topo,
            record.library.name,
            len(record.blob),
            TransferMode.PEER,
            peer_cap=self.peer_cap,
        )
        for transfer in plan.transfers:
            link = self._shards.get(transfer.dest)
            if link is None:
                continue  # lost mid-staging; re-homing handles it
            frame = {
                "type": "stage_library",
                "name": record.library.name,
                "digest": record.digest,
            }
            if transfer.source == "manager":
                # "manager" in the plan is the blob holder: the home
                # shard.  Prefer a peer fetch from it; fall back to a
                # direct router send when it has no blob server.
                source = self._shards.get(record.home) if record.home else None
            else:
                source = self._shards.get(transfer.source)
            if source is not None and source.blob_addr is not None:
                self._send(link, dict(frame, source=source.blob_addr))
            else:
                self._send(link, frame, record.blob)
            self._await_ack(("staged", transfer.dest, record.digest))
            record.staged.add(transfer.dest)

    # ------------------------------------------------------------- arguments
    def declare_argument(self, value: Any) -> payloads.PayloadArg:
        """Serialize once, broadcast to every shard's payload store.

        The returned handle is router-scoped (``shm=None`` — segments
        are per-shard); shards rewrite it by digest to their local
        handle on submission.
        """
        self._check_open()
        blob = serialize(value)
        digest = hash_bytes(blob)
        arg = payloads.PayloadArg(digest, len(blob), None)
        if digest not in self._declared:
            self._declared[digest] = blob
            for name in self.shard_names():
                self._send(
                    self._shards[name],
                    {"type": "declare", "digest": digest, "size": len(blob)},
                    blob,
                )
        return arg

    def release_argument(self, arg: payloads.PayloadArg) -> None:
        """Drop a declared argument on every shard."""
        if self._declared.pop(arg.digest, None) is None:
            return
        for name in self.shard_names():
            self._send(self._shards[name], {"type": "release", "digest": arg.digest})

    # ------------------------------------------------------------ submission
    def submit(self, task: Task) -> int:
        """Route a task to its shard; returns its (router-global) id."""
        self._check_open()
        if task.state is not TaskState.CREATED:
            raise EngineError(f"task {task.id} was already submitted")
        if isinstance(task, LibraryTask):
            raise EngineError("libraries are installed, not submitted")
        if isinstance(task, FunctionCall):
            record = self._libraries.get(task.library_name)
            if record is None:
                raise LibraryError(f"no installed library named {task.library_name!r}")
            if not record.library.provides(task.function_name):
                raise LibraryError(
                    f"library {task.library_name!r} has no function "
                    f"{task.function_name!r}"
                )
        task.state = TaskState.SUBMITTED
        task.mark("submitted", time.monotonic())
        if self.tracer.enabled:
            # Open the cluster trace: one id per logical submission, no
            # matter how many shards (or retries) it crosses.  The
            # router pid makes ids unique across router restarts that
            # share a trace dir.
            trace_id = f"tr-{os.getpid():x}-{next(self._trace_seq):x}"
            self._trace_ids[task.id] = trace_id
            self.tracer.bind_task(str(task.id), trace_id)
            self.tracer.record(
                "router_submit", task_id=str(task.id), kind=type(task).__name__
            )
        self._dispatch(task)
        self.stats["submitted"] += 1
        return task.id

    def _dispatch(self, task: Task) -> None:
        shard = self._route(task)
        link = self._shards[shard]
        frame: Dict[str, Any] = {"type": "submit", "router_id": task.id}
        trace_id = self._trace_ids.get(task.id)
        if trace_id is not None:
            # Trace context crosses the wire with the submission: the
            # shard binds its local task id to this trace id, measures
            # the router→shard hop from sent_ts, and stamps every event
            # it ships back.  attempt disambiguates retry re-dispatches.
            frame["trace"] = {
                "trace_id": trace_id,
                "attempt": task.retries,
                "sent_ts": time.time(),
            }
            self.tracer.record(
                "router_hop",
                task_id=str(task.id),
                shard=shard,
                attempt=task.retries,
            )
        self._send(link, frame, self._task_blob(task))
        self._inflight[task.id] = task
        self._task_shard[task.id] = shard
        link.inflight.add(task.id)
        # "routed" is router-owned; the rest of the shard.<name>.*
        # namespace is overwritten by shard_status frames, so the two
        # sources never fight over a key.
        shard_stats(self.metrics, shard)["routed"] += 1

    def _route(self, task: Task) -> str:
        """Consistent-hash shard choice honoring stickiness and blame."""
        if not self._shards:
            raise EngineError("no live shards")
        if isinstance(task, FunctionCall):
            # Stickiness: every invocation of a library goes to its home
            # shard, where the warm instances are.
            record = self._libraries[task.library_name]
            if record.home not in self._shards:
                self._ensure_home(record)
            assert record.home is not None
            return record.home
        blamed = {
            b[len("shard:"):]
            for b in task.workers_lost_on
            if b.startswith("shard:")
        }
        candidates = [
            name
            for name in self.ring.walk(f"task-{task.id}")
            if name in self._shards
        ]
        # Shard-level affinity: sticky prefers the shard that last
        # completed this function (its workers hold the warm context and
        # cached code blob).  The blame filter below still runs after
        # the policy, so a retry never lands on a blamed shard while an
        # unblamed one is alive.
        fallback = None
        for name in self.policy.shard_order(self._affinity_key(task), candidates):
            if fallback is None:
                fallback = name
            if name not in blamed:
                return name
        if fallback is None:
            raise EngineError("no live shards on the ring")
        return fallback  # every shard blamed: better to retry than wedge

    @staticmethod
    def _affinity_key(task: Task) -> str:
        """Router-level affinity key for a plain task: its function name."""
        fn = getattr(task, "fn", None)
        return getattr(fn, "__name__", None) or type(task).__name__

    @staticmethod
    def _task_blob(task: Task) -> bytes:
        """Serialize a task for the wire.

        A PythonTask's raw callable is swapped for its source-captured
        :class:`~repro.serialize.source.FunctionCode` so the shard can
        rebuild it without importing the submitter's module.
        """
        if isinstance(task, PythonTask):
            fn = task.fn
            try:
                task.fn = capture_function(fn)
                return serialize(task)
            finally:
                task.fn = fn
        return serialize(task)

    # ------------------------------------------------------------ completion
    def empty(self) -> bool:
        return not self._inflight and not self._completed

    def wait(self, timeout: float = 5.0) -> Optional[Task]:
        """Drive the router until a task completes or ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while True:
            if self._completed:
                return self._completed.popleft()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self.loop.run_once(min(remaining, 0.05))

    def wait_all(self, tasks: Iterable[Task], timeout: float = 60.0) -> List[Task]:
        """Wait until every task reaches a terminal state."""
        wanted = list(tasks)
        deadline = time.monotonic() + timeout
        settled = 0  # wanted[:settled] are terminal, which they stay
        while True:
            while settled < len(wanted) and wanted[settled].state in (
                TaskState.DONE,
                TaskState.FAILED,
            ):
                settled += 1
            if settled == len(wanted):
                # Consume their completion records so wait() doesn't
                # hand back tasks the caller already holds.
                ids = {t.id for t in wanted}
                self._completed = collections.deque(
                    t for t in self._completed if t.id not in ids
                )
                return wanted
            if time.monotonic() > deadline:
                raise EngineError("wait_all timed out")
            self.loop.run_once(0.05)

    def cancel(self, task: Task, timeout: float = 10.0) -> bool:
        """Best-effort cancellation, same contract as ``Manager.cancel``:
        withdrawn-from-queue tasks return True; a dispatched invocation
        (already on a library's input queue or executing) returns False."""
        if task.id not in self._inflight:
            return False
        shard = self._task_shard.get(task.id)
        link = self._shards.get(shard) if shard else None
        if link is None:
            return False
        self._send(link, {"type": "cancel", "router_id": task.id})
        ok = bool(self._await_ack(("cancel", task.id), timeout=timeout))
        if ok:
            # The shard finalized it as cancelled; the terminal state
            # arrives on the task_done frame driven by _await_ack.
            self.stats["cancelled"] += 1
        return ok

    # ------------------------------------------------------------ event loop
    def _reap_exited_shards(self) -> None:
        """Lose shards whose process died without a clean socket close."""
        for link in list(self._shards.values()):
            if link.proc is not None and link.proc.poll() is not None:
                self._shard_lost(link, f"process exited {link.proc.returncode}")

    def _on_hello(
        self, conn: messages.Connection, hello: Dict[str, Any], payload: bytes
    ) -> None:
        try:
            messages.expect(hello, "register_shard")
            name = str(hello["shard"])
            if name in self._shards:
                conn.send({"type": "error", "error": f"duplicate shard {name!r}"})
                conn.close()
                return
            link = _ShardLink(name, conn)
            link.pid = hello.get("pid")
            link.blob_port = hello.get("blob_port")
            link.status_port = hello.get("status_port")
            conn.send(
                {
                    "type": "welcome",
                    "router": self.address,
                    "federate": self.federate,
                }
            )
        except Exception as exc:
            self.log.warning("shard handshake failed: %s", exc)
            conn.close()
            return
        self._shards[name] = link
        self.ring.add(name)
        self.loop.add_connection(
            conn, partial(self._on_shard_frame, link), partial(self._shard_lost, link)
        )
        self.log.info("shard %s joined (pid %s)", name, link.pid)
        # Late joiner: give it the declared arguments so routing there
        # is always legal.
        for digest, blob in self._declared.items():
            self._send(link, {"type": "declare", "digest": digest, "size": len(blob)}, blob)

    def _on_shard_frame(self, link: _ShardLink, message: dict, payload: bytes) -> None:
        try:
            self._handle_frame(link, message, payload)
        except Exception:
            self.log.exception("error handling %s from %s", message.get("type"), link.name)

    def _handle_frame(self, link: _ShardLink, message: dict, payload: bytes) -> None:
        mtype = message.get("type")
        if mtype == "task_done":
            self._on_task_done(link, message, payload)
        elif mtype == "library_ready":
            self._acks[("library", link.name, str(message["digest"]))] = True
        elif mtype == "staged":
            self._acks[("staged", link.name, str(message["digest"]))] = True
        elif mtype == "cancel_result":
            self._acks[("cancel", int(message["router_id"]))] = bool(message["ok"])
        elif mtype == "shard_status":
            link.status = dict(message.get("stats", {}))
            stats = shard_stats(self.metrics, link.name)
            for key, value in link.status.items():
                try:
                    stats[key] = float(value)
                except (TypeError, ValueError):
                    pass
            metrics = message.get("metrics")
            if metrics is not None:
                link.metrics = metrics
        elif mtype == "error":
            self.log.warning("shard %s error: %s", link.name, message.get("error"))
        else:
            self.log.warning("unknown frame %r from shard %s", mtype, link.name)

    def _on_task_done(self, link: _ShardLink, message: dict, payload: bytes) -> None:
        from repro.serialize.core import deserialize

        router_id = int(message["router_id"])
        link.inflight.discard(router_id)
        task = self._inflight.pop(router_id, None)
        shard = self._task_shard.pop(router_id, None)
        if task is None:
            return
        outcome = deserialize(payload)
        # The shard ships its merged (manager+worker+library) timeline
        # for this task, every event stamped with the trace id; absorbed
        # here the router ring holds the full cluster view.
        self.tracer.absorb(outcome.get("trace"))
        if "error" in outcome:
            task.set_exception(outcome["error"])
            self.stats["failed"] += 1
        else:
            task.set_result(outcome.get("value"))
            self.stats["completed"] += 1
            if shard is not None and isinstance(task, PythonTask):
                self.policy.note_shard_result(self._affinity_key(task), shard)
        for event, t in outcome.get("timeline", {}).items():
            task.timeline.setdefault(event, t)
        task.mark("completed", time.monotonic())
        self._completed.append(task)

    def _await_ack(self, key: tuple, timeout: float = 30.0) -> Any:
        deadline = time.monotonic() + timeout
        while key not in self._acks:
            if time.monotonic() > deadline:
                raise EngineError(f"shard did not acknowledge {key!r}")
            self.loop.run_once(0.05)
            if key[0] in ("library", "staged") and key[1] not in self._shards:
                raise EngineError(f"shard {key[1]} lost before acknowledging {key!r}")
        return self._acks.pop(key)

    # -------------------------------------------------------- observability
    def trace_events(self) -> List[TraceEvent]:
        """Every trace event in the router's merged cluster ring."""
        return self.tracer.events()

    def trace_id_of(self, task: "Task | int") -> Optional[str]:
        """The cluster trace id stamped on a submission (None untraced)."""
        task_id = task if isinstance(task, int) else task.id
        return self._trace_ids.get(task_id)

    def task_timeline(self, task: "Task | int") -> List[TraceEvent]:
        """Causally-ordered cluster-wide timeline for one submission.

        Selected by trace id, not task id: shards reassign task ids
        locally, so the trace id is the only key that survives the
        router → shard → worker → library crossing (and shard-loss
        retries, whose re-dispatches share the submission's trace).
        """
        trace_id = self.trace_id_of(task)
        if trace_id is None:
            return []
        return merge_task_timeline(self.tracer.events(), trace_id=trace_id)

    def _metrics_snapshot(self) -> Dict[str, Any]:
        """Federated snapshot for /metrics; runs on the status thread.

        The event loop may mutate the registry or shard table mid-read;
        retry the cheap snapshot on the resulting RuntimeError instead
        of locking the routing path (same pattern as the manager).
        """
        for _ in range(5):
            try:
                shards = {
                    name: link.metrics
                    for name, link in self._shards.items()
                    if link.metrics
                }
                return federate_snapshots(self.metrics.snapshot(), shards)
            except RuntimeError:
                continue
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def _status_document(self) -> Dict[str, Any]:
        """Cluster JSON for /status; runs on the status-server thread."""
        for _ in range(5):
            try:
                return {
                    "role": "router",
                    "address": self.address,
                    "federate": self.federate,
                    "shards": {
                        name: {
                            "pid": link.pid,
                            "blob_port": link.blob_port,
                            "status_port": link.status_port,
                            "inflight": len(link.inflight),
                            "status": dict(link.status),
                        }
                        for name, link in sorted(self._shards.items())
                    },
                    "libraries": {
                        name: {
                            "home": record.home,
                            "installed": sorted(record.installed),
                            "staged": sorted(record.staged),
                        }
                        for name, record in sorted(self._libraries.items())
                    },
                    "tasks": {
                        "inflight": len(self._inflight),
                        "completed_buffered": len(self._completed),
                    },
                }
            except RuntimeError:
                continue
        return {"role": "router", "error": "state snapshot raced; retry"}

    # ------------------------------------------------------------ shard loss
    def _shard_lost(self, link: _ShardLink, reason: str) -> None:
        if link.name not in self._shards:
            return
        self.log.warning("shard %s lost: %s", link.name, reason)
        del self._shards[link.name]
        if link.name in self.ring:
            self.ring.remove(link.name)
        self.loop.remove(link.conn)
        link.conn.close()
        if link.proc is not None and link.proc.poll() is None:
            link.proc.terminate()
        self.stats["shards_lost"] += 1
        # Re-home libraries whose warm state died with the shard.  The
        # blob is normally already staged on the new home; _ensure_home
        # falls back to a direct send when it is not.
        for record in self._libraries.values():
            record.installed.discard(link.name)
            record.staged.discard(link.name)
            if record.home == link.name:
                record.home = None
                if self._shards:
                    self._ensure_home(record)
                    self._stage_everywhere(record)
        # Blame-set retry for every task that was on the dead shard.
        for router_id in sorted(link.inflight):
            task = self._inflight.pop(router_id, None)
            self._task_shard.pop(router_id, None)
            if task is None:
                continue
            task.retries += 1
            task.workers_lost_on.append(f"shard:{link.name}")
            if task.retries > self.max_retries or not self._shards:
                task.set_exception(
                    TaskRetryExhausted(
                        f"task {task.id} lost its shard {task.retries} times "
                        f"(retry budget {self.max_retries}); "
                        f"lost on: {task.workers_lost_on}",
                        losses=task.workers_lost_on,
                        retries=task.retries,
                    )
                )
                task.mark("completed", time.monotonic())
                self._completed.append(task)
                self.stats["retry_exhausted"] += 1
                self.stats["failed"] += 1
                continue
            task.state = TaskState.SUBMITTED
            self.tracer.record(
                "task_retry",
                task_id=str(task.id),
                blame=f"shard:{link.name}",
                retries=task.retries,
            )
            self._dispatch(task)
            self.stats["requeued"] += 1

    # -------------------------------------------------------------- plumbing
    def _send(self, link: _ShardLink, message: dict, payload: bytes = b"") -> None:
        """Queue a frame for ``link``; never blocks on a slow shard.  A
        send the kernel refuses outright loses the shard on the spot."""
        self.loop.send(link.conn, message, payload)
        if link.name not in self._shards:
            raise EngineError(f"shard {link.name} lost while sending")

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("router is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.status_server is not None:
            self.status_server.stop()
            self.status_server = None
        for link in list(self._shards.values()):
            self.loop.dismiss(link.conn, {"type": "shutdown"})
        deadline = time.monotonic() + 10.0
        for link in list(self._shards.values()):
            if link.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                link.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                link.proc.terminate()
                try:
                    link.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    link.proc.kill()
                    link.proc.wait(timeout=5.0)
        self._shards.clear()
        self.loop.close()
        self._listener.close()
        if self._owns_workdir:
            import shutil

            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
