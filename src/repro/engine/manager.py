"""The manager: scheduling, file staging, library deployment, result retrieval.

This is the engine-layer counterpart of ``vine.Manager`` in Figure 5.
A single-threaded event loop (driven by :meth:`Manager.wait`) accepts
worker connections, dispatches queued tasks/invocations, streams input
files (directly or via peer transfers per the configured
:class:`~repro.distribute.topology.TransferMode`), and collects results.

Scheduling follows §3.5.2:

* invocations are matched to ready library instances with free slots,
  via the placement layer's per-library free-slot index;
* when no instance has a slot, a new instance is placed on the first
  worker with resources;
* when nothing fits, an *empty library* of another function is evicted
  and its resources reclaimed.

The dispatch hot path is event-driven rather than scan-driven: queued
invocations live in per-library pending deques and a library is only
visited when a *capacity event* (instance ready, invocation finished,
worker joined, library evicted/failed, task finished) marks it dirty.
Dispatch work per tick therefore does not scale with the number of
queued-but-unplaceable invocations (`stats["queue_scan_len"]` stays flat
while a queue is blocked).  Consecutive invocations bound for the same
link in one round are coalesced into a single ``invocation_batch``
frame, and all control frames of a round share one buffered socket
flush per link.

Every library instance keeps its own framed link to the manager
(``attach`` with a per-instance token, before it reports ready), and
every invocation goes down that link and its result comes straight
back; the worker keeps instance lifecycle and the file cache.  An
invocation with input files is held until its worker confirms each
input present (``cache_update``), since the instance stages them from
that worker's cache itself; so is a task or library frame whose file is
still on its way from a peer.  The worker link stays the failure
authority: a result is applied only if its task is still bound to the
instance that sent it, and a lost instance link only takes the instance
out of scheduling until the worker reports its exit.

Failure semantics (see DESIGN.md "Failure semantics"):

* workers heartbeat via their periodic ``status`` reports; one silent
  past ``liveness_deadline`` is declared lost even with a healthy
  socket (a SIGSTOP'd worker produces no socket error);
* a task requeued after a worker loss carries a retry budget
  (``max_retries``), an exponential backoff gate, and a blame set of
  workers it was lost on (never redispatched there); exhaustion fails
  it with :class:`~repro.errors.TaskRetryExhausted`;
* per-task wall-clock timeouts surface as
  :class:`~repro.errors.TaskTimeout` plus ``stats["timeouts"]``; a
  direct-mode deadline runs in this loop and asks the worker to
  ``expire`` the instance, every other kind is enforced where the work
  runs.
"""

from __future__ import annotations

import collections
import hmac
import os
import secrets
import socket
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set

from repro.discover.context import FunctionContext, discover_context
from repro.discover.data import DataBinding
from repro.discover.packaging import pack_environment
from repro.distribute.topology import TransferMode
from repro.engine import messages, payloads
from repro.engine.files import FileStore, VineFile
from repro.engine.loop import EventLoop
from repro.engine.policies import SchedulingPolicy, resolve_policy
from repro.engine.resources import Resources
from repro.engine.scheduling import LibraryInstance, Placement, ShardState
from repro.engine.task import (
    ExecMode,
    FunctionCall,
    LibraryTask,
    PythonTask,
    Task,
    TaskState,
    failure_from_message,
)
from repro.errors import (
    EngineError,
    LibraryError,
    SerializationError,
    TaskFailure,
    TaskRetryExhausted,
    WorkerError,
)
from repro.obs.metrics import MetricsRegistry, StatsShim
from repro.obs.perflog import get_perflog, make_sample
from repro.obs.statusd import StatusServer
from repro.obs.statusd import status_port as _env_status_port
from repro.obs.trace import get_tracer, merge_task_timeline
from repro.serialize.core import deserialize, frame_digest, serialize
from repro.util.logging import get_logger


def _reclaim_result_segment(message: Dict[str, Any]) -> None:
    """Nobody will read the one-shot segment of a result that is not
    applied; unlink it."""
    descriptor = message.get("payload_shm")
    if descriptor is not None:
        try:
            payloads.fetch(descriptor, consume=True)
        except payloads.PayloadError:
            pass


@dataclass
class _WorkerLink:
    name: str
    conn: messages.Connection
    resources: Resources
    transfer_host: str = ""
    transfer_port: int = 0
    cached: Set[str] = field(default_factory=set)       # confirmed holdings
    # In flight, digest -> monotonic send stamp, until its cache_update:
    assumed: Dict[str, float] = field(default_factory=dict)   # put_file sent
    fetching: Dict[str, float] = field(default_factory=dict)  # peer transfer
    status: Dict[str, Any] = field(default_factory=dict)  # last status report
    last_seen: float = 0.0  # monotonic stamp of the last received frame
    shm: bool = False  # worker shares the manager's shared-memory domain
    cache_capacity: Optional[int] = None  # bytes; None = unbounded
    # Frames waiting for files this worker has not confirmed: (key,
    # hashes, (header, payload)), key ("task", task id), ("library",
    # instance id) or ("invocation", task id, instance id).
    held: List[tuple] = field(default_factory=list)


@dataclass
class _InstanceRecord:
    instance: LibraryInstance
    library: LibraryTask
    token: str  # what the instance must present to attach its link
    deploy_times: Dict[str, float] = field(default_factory=dict)
    removing: bool = False
    conn: Optional[messages.Connection] = None  # the instance's own link
    worker_ready: bool = False  # the worker reported ``library_ready``


class Manager:
    """The TaskVine-like manager node.

    Parameters
    ----------
    port:
        TCP port to listen on (0 = ephemeral).
    workdir:
        Directory for the content-addressed file store; a temporary
        directory is created when omitted.
    transfer_mode:
        How context files reach workers: ``MANAGER_ONLY`` sends every
        copy from the manager; ``PEER`` redirects workers that already
        hold a file to serve their peers.  ``CLUSTER_AWARE`` (Fig 3c) is
        only planned and simulated (:mod:`repro.distribute`); the engine
        rejects it.
    liveness_deadline:
        Seconds of silence after which a connected worker is declared
        lost even though its socket is still open (a SIGSTOP'd or hung
        worker produces no socket error).  Workers heartbeat via their
        periodic ``status`` reports, so this must comfortably exceed the
        worker status interval (2 s by default).  ``None`` disables
        deadline-based loss detection.
    max_retries:
        How many times a task may be requeued after losing its worker
        before it is failed with
        :class:`~repro.errors.TaskRetryExhausted` — i.e. a task executes
        at most ``max_retries + 1`` times.
    retry_backoff / retry_backoff_max:
        Base and cap of the exponential redispatch backoff applied to a
        requeued task (``retry_backoff * 2**(retries-1)`` seconds,
        capped at ``retry_backoff_max``).
    perflog_dir:
        Directory for the live telemetry logs (``perflog-manager.jsonl``
        time series + ``txnlog-manager.jsonl`` state transitions).
        Defaults to ``REPRO_PERFLOG_DIR``; with neither set the sampler
        is a shared no-op (``NullPerfLog``) and costs one no-op call per
        event-loop tick.
    perflog_interval:
        Sampler cadence in seconds (default ``REPRO_PERFLOG_INTERVAL``
        or 0.25).
    status_port:
        Start the ``/metrics`` + ``/status`` HTTP status server on this
        port (0 = ephemeral; read ``manager.status_server.port``).
        Defaults to ``REPRO_STATUS_PORT``; with neither set no server
        thread is created.
    """

    def __init__(
        self,
        port: int = 0,
        *,
        workdir: str | None = None,
        transfer_mode: TransferMode = TransferMode.PEER,
        name: str = "manager",
        enable_library_eviction: bool = True,
        liveness_deadline: float | None = 30.0,
        max_retries: int = 3,
        retry_backoff: float = 0.25,
        retry_backoff_max: float = 5.0,
        perflog_dir: str | None = None,
        perflog_interval: float | None = None,
        status_port: int | None = None,
        policy: "str | SchedulingPolicy | None" = None,
    ):
        if transfer_mode not in (TransferMode.MANAGER_ONLY, TransferMode.PEER):
            raise EngineError(
                f"transfer_mode {transfer_mode!r} is not run by the engine; "
                "use TransferMode.MANAGER_ONLY or TransferMode.PEER"
            )
        self.name = name
        self.transfer_mode = transfer_mode
        self.enable_library_eviction = enable_library_eviction
        # Serving-layer scheduling strategy (repro.engine.policies);
        # None (and REPRO_POLICY unset) is the paper's reactive scheduler.
        self.policy = resolve_policy(policy)
        if liveness_deadline is not None and liveness_deadline <= 0:
            raise EngineError("liveness_deadline must be positive or None")
        if max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        self.liveness_deadline = liveness_deadline
        self.max_retries = max_retries
        self.retry_backoff = max(0.0, retry_backoff)
        self.retry_backoff_max = max(0.0, retry_backoff_max)
        if workdir is None:
            workdir = tempfile.mkdtemp(prefix="repro-manager-")
        self.workdir = workdir
        self.store = FileStore(os.path.join(workdir, "store"))
        # Every queue, dirty set, in-flight index, and the placement
        # table live behind the explicit per-shard state interface; the
        # router runs N managers, each owning one independent ShardState.
        self.state = ShardState(policy=self.policy)
        self.placement = self.state.placement
        self._listener = socket.create_server(("127.0.0.1", port), backlog=64)
        # Timers run after an iteration's I/O: a healthy worker always has
        # heartbeats queued on its socket, so even if the manager itself
        # stalled past the deadline, those refresh last_seen first and
        # only truly silent workers expire.
        self.loop = EventLoop()
        self.loop.add_listener(
            self._listener, lambda sock: self.loop.await_hello(sock, self._on_hello)
        )
        self.loop.call_every(0.2, self._maybe_prewarm)
        if liveness_deadline is not None:
            self.loop.call_every(
                min(1.0, liveness_deadline / 4.0), self._check_liveness
            )
        self._workers: Dict[str, _WorkerLink] = {}
        self._libraries: Dict[str, LibraryTask] = {}
        self._instances: Dict[int, _InstanceRecord] = {}
        # hash -> workers confirmed to hold the file, in confirmation
        # order (a dict: the peer source never follows the hash seed).
        self._file_holders: Dict[str, Dict[str, None]] = {}
        # instance link -> invocation frames accumulated during the
        # current dispatch round, coalesced into one frame per link on
        # flush.
        self._outbox: Dict[messages.Connection, List[tuple]] = {}
        self._completed: Deque[Task] = collections.deque()
        self._closed = False
        # Counters for experiments live in a metrics registry; the shim
        # preserves the historical mapping interface (stats["x"] += 1).
        self.metrics = MetricsRegistry()
        self.stats = StatsShim(self.metrics)
        # The A/B harness reads warm-hit ratio from these the same way
        # under the reactive baseline and under every strategy.
        self._policy_warm = self.metrics.counter("policy.warm_hits")
        self._policy_cold = self.metrics.counter("policy.cold_hits")
        self._policy_prewarms = self.metrics.counter("policy.prewarms")
        self._policy_prewarm_hits = self.metrics.counter("policy.prewarm_hits")
        self.policy.bind(self.metrics)
        # instance ids deployed speculatively by the prewarm tick; the
        # first invocation each one catches counts as a prewarm hit.
        self._prewarmed: Set[int] = set()
        # invocation task id -> instance id, for cold dispatches only:
        # lets task_cost attribute the instance's deploy overhead
        # (env_setup) to the invocation that paid the cold start.
        self._cold_instance: Dict[int, int] = {}
        # Zero-copy payload plane: big argument/result blobs live in the
        # content-addressed shared-memory store and cross the wire as
        # descriptors; None when shm is unavailable (pure inline mode).
        self.payloads = payloads.open_store(registry=self.metrics)
        self._shm_token = payloads.host_token() if self.payloads is not None else ""
        self._bytes_copied = self.metrics.counter("payload.bytes_copied")
        self._bytes_mapped = self.metrics.counter("payload.bytes_mapped")
        # Per-function memo of serialized code blobs, so submitting the
        # same function N times captures and pickles it once (the Task
        # double-serialization fix).  Identity-keyed and bounded.
        self._code_blobs: "collections.OrderedDict[Any, bytes]" = (
            collections.OrderedDict()
        )
        # declare_argument bookkeeping: digest -> original value, kept so
        # non-shm links can substitute the real value at dispatch.
        self._declared_args: Dict[str, Any] = {}
        # Structured lifecycle tracing (no-op unless REPRO_TRACE is set).
        # Remote events piggyback on worker frames and are absorbed in
        # _on_worker_frame, so this tracer's ring holds the
        # merged manager+worker+library view.
        self.tracer = get_tracer("manager")
        self.placement.tracer = self.tracer
        # Live telemetry (all off by default, see the perflog/statusd
        # docstrings): the perflog sampler is a loop timer, warm/cold
        # classification happens at dispatch, and worker heartbeats fold
        # into per-worker gauges on every status frame.
        # The component is the manager's *name* so that N shard managers
        # sharing one REPRO_PERFLOG_DIR write distinct, federatable
        # perflog-<shard>.jsonl files (the default name keeps the
        # historical perflog-manager.jsonl for single-manager runs).
        self.perflog = get_perflog(
            self.name, directory=perflog_dir, interval=perflog_interval
        )
        if self.perflog.enabled:
            self.loop.call_every(self.perflog.interval, self._sample_perflog)
        # context name -> {"warm": n, "cold": n}; an invocation is warm
        # when its instance has already served work (the retained-context
        # hit the paper's L3 exists for), cold on a fresh instance.
        # PythonTasks reload their context every time, hence always cold.
        self._warm_cold: Dict[str, Dict[str, int]] = {}
        self._perflog_prev: tuple[float, float] | None = None
        self._hist_execute = self.metrics.histogram("task.execute_seconds")
        self.status_server: StatusServer | None = None
        resolved_port = status_port if status_port is not None else _env_status_port()
        if resolved_port is not None:
            self.status_server = StatusServer(
                self._metrics_snapshot, self._status_document, port=resolved_port
            ).start()
        self.log = get_logger("manager")
        self.log.info("listening on %s", self.address)
        if self.status_server is not None:
            self.log.info("status server on %s", self.status_server.url)

    # ------------------------------------------------------------------ API
    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()
        return f"{host}:{port}"

    def declare_file(
        self,
        path: str,
        *,
        remote_name: str | None = None,
        cache: bool = True,
        peer_transfer: bool = True,
    ) -> VineFile:
        """Register a file for use as a task/library input (``vine.File``)."""
        return self.store.put_path(
            path, remote_name, cache=cache, peer_transfer=peer_transfer
        )

    def declare_buffer(
        self,
        data: bytes,
        remote_name: str,
        *,
        cache: bool = True,
        peer_transfer: bool = True,
    ) -> VineFile:
        """Register literal bytes as an input file."""
        return self.store.put_bytes(
            data, remote_name, cache=cache, peer_transfer=peer_transfer
        )

    def declare_argument(self, value: Any) -> payloads.PayloadArg:
        """Serialize a reusable argument once; pass the handle to many calls.

        The value lands in the manager's shared-memory payload store
        (pinned until :meth:`release_argument`) and every task or
        invocation that references the returned handle ships a ~100-byte
        placeholder instead of the bytes — receivers attach the segment
        and cache the deserialized value.  Without shared memory the
        handle still works: the manager substitutes the real value at
        dispatch, trading the zero-copy win for portability.
        """
        blob = serialize(value)
        digest = frame_digest(blob)
        if self.payloads is not None and len(blob) >= payloads.threshold_bytes():
            descriptor = self.payloads.put(blob, digest)
            self.payloads.pin(digest)
            arg = payloads.PayloadArg(digest, descriptor["size"], descriptor["shm"])
        else:
            # Below the shm threshold (or no store at all) the handle is
            # unbacked: no segment, no pin — the value substitutes inline
            # at dispatch.  Pinning tiny blobs would make them permanent
            # LRU squatters for no copy savings.
            arg = payloads.PayloadArg(digest, len(blob), None)
        self._declared_args[arg.digest] = value
        return arg

    def release_argument(self, arg: payloads.PayloadArg) -> None:
        """Drop a declared argument: unpin its segment and forget the value.

        Unpin mirrors :meth:`declare_argument` exactly — only segment-backed
        handles (``arg.shm is not None``) ever took a pin, so releasing an
        unbacked handle is pure dictionary cleanup.
        """
        if self._declared_args.pop(arg.digest, None) is None:
            return
        if self.payloads is not None and arg.shm is not None:
            self.payloads.unpin(arg.digest)

    def create_library_from_functions(
        self,
        name: str,
        *functions: Callable[..., Any],
        context: Callable[..., Any] | None = None,
        context_args: Iterable[Any] = (),
        function_slots: int = 1,
        resources: Resources | None = None,
        exec_mode: ExecMode = ExecMode.DIRECT,
        package_environment: bool = False,
        extra_imports: Iterable[str] = (),
        data: Iterable[DataBinding] = (),
    ) -> LibraryTask:
        """Discover a context for ``functions`` and wrap it as a library task.

        Mirrors lines 7-8 of Figure 5.  ``package_environment=True``
        additionally scans imports and builds a shippable environment
        package (the Poncho/conda-pack path); it is off by default
        because local test workers share the manager's interpreter.
        """
        ctx = discover_context(
            name,
            list(functions),
            setup=context,
            setup_args=context_args,
            extra_imports=extra_imports,
            scan_dependencies=package_environment,
            data=data,
        )
        return LibraryTask(
            ctx,
            function_slots=function_slots,
            resources=resources,
            exec_mode=exec_mode,
        )

    def install_library(self, library: LibraryTask) -> None:
        """Register a library so invocations may name it (Figure 5 line 12).

        Prepares the shippable artifacts once: the serialized context
        spec, the environment package (when the context has shippable
        modules), and the data bindings — all content-addressed files.
        """
        if library.name in self._libraries:
            raise LibraryError(f"library {library.name!r} already installed")
        ctx = library.context
        spec_blob = serialize(
            {
                "name": ctx.name,
                "functions": dict(ctx.functions),
                "setup": ctx.setup,
                "setup_args": ctx.setup_args,
            }
        )
        library._spec_file = self.store.put_bytes(  # type: ignore[attr-defined]
            spec_blob, f"context-{ctx.name}.spec"
        )
        library._env_file = None  # type: ignore[attr-defined]
        if ctx.environment.modules:
            pkg_path = os.path.join(self.workdir, f"env-{ctx.name}.tar.gz")
            pack_environment(ctx.environment, pkg_path)
            library._env_file = self.store.put_path(  # type: ignore[attr-defined]
                pkg_path, f"env-{ctx.name}.tar.gz"
            )
        data_files: List[VineFile] = []
        for binding in ctx.data:
            data_files.append(
                self.store.put_bytes(
                    binding.read(),
                    binding.remote_name,
                    cache=binding.cache,
                    peer_transfer=binding.peer_transfer,
                )
            )
        library._data_files = data_files  # type: ignore[attr-defined]
        self._libraries[library.name] = library

    def submit(self, task: Task) -> int:
        """Queue a task or invocation; returns its id."""
        if self._closed:
            raise EngineError("manager is closed")
        if task.state is not TaskState.CREATED:
            raise EngineError(f"task {task.id} was already submitted")
        if isinstance(task, FunctionCall):
            library = self._libraries.get(task.library_name)
            if library is None:
                raise LibraryError(f"no installed library named {task.library_name!r}")
            if not library.provides(task.function_name):
                raise LibraryError(
                    f"library {task.library_name!r} has no function "
                    f"{task.function_name!r}"
                )
        elif isinstance(task, LibraryTask):
            raise EngineError("libraries are installed, not submitted")
        task.state = TaskState.SUBMITTED
        now = time.monotonic()
        task.mark("submitted", now)
        self.state.enqueue(task)
        self.stats["submitted"] += 1
        if isinstance(task, FunctionCall):
            self.policy.note_arrival(task.library_name, now, tenant=task.tenant)
            self.perflog.transition(
                "task_submit",
                task=task.id,
                kind=type(task).__name__,
                library=task.library_name,
                tenant=task.tenant,
            )
        else:
            self.perflog.transition(
                "task_submit", task=task.id, kind=type(task).__name__
            )
        self.tracer.record(
            "task_submit", task_id=str(task.id), kind=type(task).__name__
        )
        return task.id

    def empty(self) -> bool:
        return self.state.empty() and not self._completed

    def wait(self, timeout: float = 5.0) -> Optional[Task]:
        """Advance the engine until a task completes or ``timeout`` passes.
        Returns None early when another thread calls ``loop.wake()``."""
        deadline = time.monotonic() + timeout
        while True:
            if self._completed:
                return self._completed.popleft()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if self._advance(min(remaining, 0.05)):
                return None

    def wait_all(self, tasks: Iterable[Task], timeout: float = 60.0) -> List[Task]:
        """Wait until every task in ``tasks`` is DONE or FAILED."""
        pending = {t.id: t for t in tasks}
        deadline = time.monotonic() + timeout
        finished: List[Task] = []
        # Tasks completed but not waited on are stashed aside, not pushed
        # back into _completed: wait() serves _completed before advancing
        # the engine, so a put-back would be re-returned immediately and
        # this loop would spin without ever dispatching.
        others: List[Task] = []
        # A task consumed by an earlier wait() call (or another wait_all)
        # never comes out of _completed again; finish it by state up front
        # so it can't wedge the loop.  Inside the loop every completion
        # flows through wait(), so one entry sweep suffices.
        done_ids = {
            tid
            for tid, t in pending.items()
            if t.state in (TaskState.DONE, TaskState.FAILED)
        }
        for tid in done_ids:
            finished.append(pending.pop(tid))
        if done_ids:
            # Drop their queued completions (if any) so a later wait()
            # doesn't deliver the same task twice.
            self._completed = collections.deque(
                t for t in self._completed if t.id not in done_ids
            )
        try:
            while pending:
                if time.monotonic() > deadline:
                    raise EngineError(f"timed out waiting on {len(pending)} tasks")
                task = self.wait(timeout=min(1.0, deadline - time.monotonic()))
                if task is not None and task.id in pending:
                    finished.append(pending.pop(task.id))
                elif task is not None:
                    others.append(task)
        finally:
            self._completed.extend(others)
        return finished

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are connected (the paper starts
        applications only when ≥95% of requested workers joined)."""
        deadline = time.monotonic() + timeout
        while len(self._workers) < count:
            if time.monotonic() > deadline:
                raise WorkerError(
                    f"only {len(self._workers)}/{count} workers connected"
                )
            self._advance(0.05)

    def connected_workers(self) -> List[str]:
        return sorted(self._workers)

    def cancel(self, task: Task) -> bool:
        """Best-effort cancellation.

        Queued (SUBMITTED) tasks and invocations are withdrawn
        immediately: removed from their queue, finalized with a
        :class:`TaskFailure`, and their bookkeeping (queue-depth gauges,
        any staged payload pin) settled — returns ``True``.  A
        DISPATCHED :class:`PythonTask` has its runner process killed on
        the worker (``True`` means the kill request was sent, not that
        the task had started).  A DISPATCHED :class:`FunctionCall`
        cannot be interrupted — once handed to a library it is on the
        instance's input queue or already executing (direct mode shares
        the library process; fork-mode children are only killable via
        :meth:`Task.set_timeout`) — so it returns ``False`` even when
        execution has not actually begun yet.
        """
        if task.state is TaskState.SUBMITTED:
            # Withdraw from the queue eagerly so depth gauges stay exact;
            # the dispatch loops' non-SUBMITTED tombstone skip remains as
            # a backstop if the task raced out of the deque.
            self.state.discard_queued(task)
            task.set_exception(TaskFailure("cancelled before dispatch"))
            task.mark("completed", time.monotonic())
            self._finish_bookkeeping(task)
            self._completed.append(task)
            self.stats["cancelled"] += 1
            return True
        if task.state is TaskState.DISPATCHED and isinstance(task, PythonTask):
            worker = task.worker
            if worker in self._workers:
                link = self._workers[worker]
                if any(key == ("task", task.id) for key, _, _ in link.held):
                    # Never sent: fail it here, and its held frame is dropped.
                    self._on_task_failed(
                        {"task_id": task.id, "error": "cancelled by the manager"}
                    )
                else:
                    self.loop.send(link.conn, {"type": "cancel", "task_id": task.id})
                self.stats["cancelled"] += 1
                return True
        return False

    def worker_status(self) -> Dict[str, Dict[str, Any]]:
        """The latest self-reported status of each connected worker:
        cache statistics, running task count, hosted libraries.  Workers
        report periodically (§2.1.3's resource accounting)."""
        return {name: dict(link.status) for name, link in self._workers.items()}

    # ------------------------------------------------------- live telemetry
    def _note_warm_cold(self, context: str, warm: bool) -> None:
        entry = self._warm_cold.get(context)
        if entry is None:
            entry = self._warm_cold[context] = {"warm": 0, "cold": 0}
        entry["warm" if warm else "cold"] += 1
        (self._policy_warm if warm else self._policy_cold).inc()

    def _context_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-context occupancy merged with cumulative warm/cold counts."""
        contexts = self.placement.occupancy_snapshot()
        for name, counts in self._warm_cold.items():
            ctx = contexts.setdefault(
                name,
                {"instances": 0, "ready": 0, "slots": 0, "used_slots": 0, "served": 0},
            )
            ctx["warm"] = counts["warm"]
            ctx["cold"] = counts["cold"]
        for ctx in contexts.values():
            ctx.setdefault("warm", 0)
            ctx.setdefault("cold", 0)
        return contexts

    def _perflog_snapshot(self) -> Dict[str, Any]:
        """One perflog sample from the manager's bookkeeping (cheap reads)."""
        now = time.monotonic()
        cache_bytes = cache_pinned = rss = 0
        for link in self._workers.values():
            report = link.status
            cache_bytes += int(report.get("cache_bytes", 0) or 0)
            cache_pinned += int(report.get("cache_pinned", 0) or 0)
            rss += int(report.get("rss_bytes", 0) or 0)
        dispatched = (
            self.stats["invocations_dispatched"] + self.stats["tasks_dispatched"]
        )
        rate = 0.0
        if self._perflog_prev is not None:
            prev_now, prev_dispatched = self._perflog_prev
            if now > prev_now:
                rate = (dispatched - prev_dispatched) / (now - prev_now)
        self._perflog_prev = (now, dispatched)
        return make_sample(
            tasks_waiting=self.state.queued_count(),
            tasks_running=len(self.state.running),
            tasks_done=self.stats["completed"],
            tasks_failed=self.stats["failed"],
            tasks_retried=self.stats["requeued"],
            workers_connected=len(self._workers),
            workers_lost=self.stats["workers_lost"],
            libraries_active=len(self._instances),
            cache_bytes=cache_bytes,
            cache_pinned=cache_pinned,
            rss_bytes=rss,
            busy_slots=len(self.state.running),
            dispatch_rate=rate,
            queue_depths=self.state.queue_depths(),
            contexts=self._context_snapshot(),
        )

    def _metrics_snapshot(self) -> Dict[str, Any]:
        """Registry snapshot for /metrics; runs on the status-server thread.

        The main loop may create instruments mid-iteration, so retry the
        (cheap, read-only) snapshot on the resulting RuntimeError instead
        of locking the hot path.
        """
        for _ in range(5):
            try:
                return self.metrics.snapshot()
            except RuntimeError:
                continue
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def _status_document(self) -> Dict[str, Any]:
        """JSON document for /status; runs on the status-server thread."""
        for _ in range(5):
            try:
                return {
                    "manager": self.name,
                    "address": self.address,
                    "workers": {
                        name: dict(link.status, last_seen_age_s=round(
                            time.monotonic() - link.last_seen, 3
                        ))
                        for name, link in self._workers.items()
                    },
                    "libraries": {
                        str(iid): {
                            "library": rec.library.name,
                            "worker": rec.instance.worker,
                            "ready": rec.instance.ready,
                            "slots": rec.instance.slots,
                            "used_slots": rec.instance.used_slots,
                            "total_served": rec.instance.total_served,
                        }
                        for iid, rec in self._instances.items()
                    },
                    "contexts": self._context_snapshot(),
                    "tasks": {
                        "running": len(self.state.running),
                        "completed": self.stats["completed"],
                        "failed": self.stats["failed"],
                    },
                    "last_sample": self.perflog.last_sample,
                }
            except RuntimeError:
                continue
        return {"manager": self.name, "error": "state snapshot raced; retry"}

    def library_deploy_times(self, library_name: str) -> List[Dict[str, float]]:
        """Per-instance deploy overheads (worker unpack + context setup) of
        every live instance of ``library_name`` — the Table 5 "L3 Library"
        row is measured from these."""
        return [
            dict(record.deploy_times)
            for record in self._instances.values()
            if record.library.name == library_name
        ]

    def trace_events(self, task_id: int | str | None = None) -> list:
        """Merged trace events absorbed so far (manager, workers, libraries)."""
        return self.tracer.events(None if task_id is None else str(task_id))

    def task_timeline(self, task_id: int | str) -> list:
        """Causally-ordered cross-process timeline for one task."""
        return merge_task_timeline(self.tracer.events(), str(task_id))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.tracer.flush()
        if self.perflog.enabled:
            # Final sample so short runs still record their end state.
            self.perflog.sample(self._perflog_snapshot())
            self.perflog.transition("manager_close")
        self.perflog.close()
        if self.status_server is not None:
            self.status_server.stop()
        for link in list(self._workers.values()):
            self.loop.dismiss(link.conn, {"type": "shutdown"})
        self._workers.clear()
        for record in self._instances.values():
            if record.conn is not None:
                record.conn.close()
        self.loop.close()
        self._listener.close()
        if self.payloads is not None:
            self.payloads.close()
        # Reclaim one-shot segments published by now-dead workers or
        # libraries that were never consumed (lost results, kills).
        payloads.reap_orphans()

    def __enter__(self) -> "Manager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----------------------------------------------------------- event loop
    def _advance(self, timeout: float) -> bool:
        """Dispatch, then one loop iteration; True when ``wake()`` ended it."""
        self._dispatch()
        return self.loop.run_once(timeout)

    def _note_backoff(self, not_before: float) -> None:
        if self.state.note_backoff(not_before):
            self.loop.call_at(not_before, self._backoff_due)

    def _backoff_due(self) -> None:
        # A timer left behind by a gate that moved earlier finds it
        # cleared or still ahead, and does nothing.
        if self.state.take_backoff_wakeup(time.monotonic()):
            self.state.wake_all()  # backed-off tasks are redispatchable again

    def _sample_perflog(self) -> None:
        self.perflog.maybe_sample(time.monotonic(), self._perflog_snapshot)

    def _check_liveness(self) -> None:
        deadline = self.liveness_deadline
        now = time.monotonic()
        expired = [
            link
            for link in self._workers.values()
            if now - link.last_seen > deadline
        ]
        for link in expired:
            self.log.warning(
                "worker %s silent for %.1fs (deadline %.1fs); declaring it lost",
                link.name,
                now - link.last_seen,
                deadline,
            )
            self.stats["liveness_expirations"] += 1
            self._worker_lost(link)

    def _on_hello(
        self, conn: messages.Connection, hello: Dict[str, Any], payload: bytes
    ) -> None:
        """A newcomer's first frame says what it is: ``register`` is a
        worker, ``attach`` a library instance; anything else is closed."""
        if hello["type"] == "register":
            self._register_worker(conn, hello)
        elif hello["type"] == "attach":
            self._attach_instance(conn, hello)
        else:
            conn.close()

    def _attach_instance(self, conn: messages.Connection, hello: Dict[str, Any]) -> None:
        """Bind an instance's own link, or close it unanswered: unknown
        or departing instance, wrong token, or already attached."""
        instance_id = hello.get("instance_id")
        record = self._instances.get(instance_id) if type(instance_id) is int else None
        if (
            record is None
            or record.removing
            or record.conn is not None
            or not hmac.compare_digest(
                str(hello.get("token", "")).encode(), record.token.encode()
            )
        ):
            conn.close()
            return
        record.conn = conn
        conn.name = f"library-{instance_id}"
        self.loop.add_connection(
            conn,
            partial(self._on_instance_frame, record),
            partial(self._instance_link_lost, record),
        )
        if record.worker_ready:
            self._library_ready(record)

    def _register_worker(self, conn: messages.Connection, hello: Dict[str, Any]) -> None:
        try:
            name = str(hello["worker"])
            if name in self._workers:
                conn.send({"type": "error", "error": f"duplicate worker {name!r}"})
                conn.close()
                return
            resources = Resources.from_dict(hello.get("resources", {}))
            link = _WorkerLink(
                name=name,
                conn=conn,
                resources=resources,
                transfer_host=str(hello.get("transfer_host", "")),
                transfer_port=int(hello.get("transfer_port", 0)),
                last_seen=time.monotonic(),
            )
            if hello.get("cache_capacity") is not None:
                link.cache_capacity = int(hello["cache_capacity"])
            conn.name = name
            link.shm = bool(
                self.payloads is not None
                and hello.get("shm_host")
                and hello.get("shm_host") == self._shm_token
            )
            conn.send(
                {"type": "welcome", "manager": self.name, "shm_host": self._shm_token}
            )
        except Exception:
            conn.close()
            return
        self._workers[name] = link
        self.placement.add_worker(name, resources)
        self.perflog.transition("worker_join", worker=name)
        self.log.info("worker %s joined (%s)", name, resources)
        self.state.wake_all()  # new capacity: every blocked queue is worth a visit
        # Handshake done: the link joins the event loop, where neither a
        # slow reader nor a peer stalled mid-frame can hold up the rest.
        self.loop.add_connection(
            conn,
            partial(self._on_worker_frame, link),
            lambda reason: self._worker_lost(link),
        )

    # -------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        if not self._workers:
            return
        if not self.state.tasks_dirty and not self.state.dirty_libraries:
            return
        self.stats["dispatch_rounds"] += 1
        try:
            if self.state.tasks_dirty:
                self.state.tasks_dirty = False
                self._dispatch_task_queue()
            while self.state.dirty_libraries:
                # Policy-ordered drain: the policy may pick which dirty
                # queue to serve (fair queueing picks the tenant with the
                # smallest virtual finish; otherwise the oldest mark goes
                # first) and may cap the visit with a quantum; a queue
                # stopped by its quantum re-marks itself dirty, so the
                # loop round-robins instead of draining one tenant to
                # exhaustion.  Each re-mark implies >=1 dispatch, so the
                # loop still terminates.
                name = self.state.take_dirty_library(self.policy)
                served = self._dispatch_library_queue(
                    name, limit=self.policy.quantum(name)
                )
                if served:
                    self.policy.note_service(self.policy.tenant_of(name), served)
        finally:
            self._flush_round()

    def _dispatch_task_queue(self) -> None:
        """Try every queued PythonTask (they have heterogeneous resource
        asks, so a later task may fit where an earlier one did not)."""
        now = time.monotonic()
        requeue: List[PythonTask] = []
        while self.state.ready_tasks:
            task = self.state.ready_tasks.popleft()
            if task.state is not TaskState.SUBMITTED:
                continue  # cancelled tombstone
            if task.not_before > now:
                self._note_backoff(task.not_before)
                requeue.append(task)  # still backing off after a requeue
                continue
            self.stats["queue_scan_len"] += 1
            if not self._dispatch_python_task(task):
                requeue.append(task)
        self.state.ready_tasks.extend(requeue)

    def _dispatch_library_queue(
        self, library_name: str, limit: Optional[int] = None
    ) -> int:
        """Drain one library's pending deque into free slots.

        When no instance has a free slot, grow capacity the way the old
        per-tick scan did — one deploy attempt per still-uncovered pending
        invocation, then one eviction attempt — and go dormant until the
        next capacity event re-marks this library dirty.

        ``limit`` caps dispatches for this visit (the fair-queueing
        quantum); a visit stopped by its limit with work left re-marks
        the queue dirty so the dispatch loop comes back after serving
        other tenants.  Returns the number of invocations dispatched.
        """
        queue = self.state.pending_invocations.get(library_name)
        library = self._libraries.get(library_name)
        if not queue or library is None:
            return 0
        now = time.monotonic()
        warming_slots = 0
        dispatched = 0
        deferred: List[FunctionCall] = []  # backing off; restored at the end
        while queue:
            if limit is not None and dispatched >= limit:
                self.state.mark_dirty(library_name)
                break
            head = queue[0]
            if head.state is not TaskState.SUBMITTED:
                queue.popleft()  # cancelled tombstone
                continue
            if head.not_before > now:
                self._note_backoff(head.not_before)
                deferred.append(queue.popleft())
                continue
            self.stats["queue_scan_len"] += 1
            inst = self.placement.find_invocation_slot(
                library_name, exclude=head.workers_lost_on or None
            )
            if inst is not None:
                queue.popleft()
                self._dispatch_invocation(head, inst)
                dispatched += 1
                continue
            if warming_slots >= len(queue):
                break  # instances already warming will cover the rest
            if not self.policy.may_deploy(
                library_name, library.resources, self.placement, self.state
            ):
                # Admission control: this tenant is at its fair share
                # while others wait.  Don't evict on its behalf either;
                # a capacity event (any instance going idle) re-wakes us.
                break
            if self._deploy_library_somewhere(library):
                warming_slots += max(1, library.function_slots)
                continue
            if self._evict_empty_library(library_name):
                break  # resources free when the removal ack arrives
            break  # saturated; a capacity event will wake us
        if deferred:
            self._restore_deferred(queue, deferred)
        return dispatched

    @staticmethod
    def _restore_deferred(
        queue: Deque[FunctionCall], deferred: List[FunctionCall]
    ) -> None:
        """Put backed-off tasks back at the queue head, original order."""
        for task in reversed(deferred):
            queue.appendleft(task)

    def _flush_round(self) -> None:
        """Coalesce this round's invocations into one frame per instance
        link and drain every link's buffered control
        traffic with vectored writes (the batch frame, its length
        prefixes, and each argument blob go out as separate iovecs of one
        ``sendmsg`` — no joins)."""
        outbox, self._outbox = self._outbox, {}
        for conn, entries in outbox.items():
            if conn.closed:
                continue  # lost mid-round; the loss path requeues its work
            conn.send_buffered(*messages.pack_invocations(entries))
            if len(entries) > 1:
                self.stats["batched_invocations"] += len(entries)
        # A failed flush runs a loss handler, which may close other links.
        for conn in [*outbox, *(link.conn for link in self._workers.values())]:
            if conn.pending_out and not conn.closed:
                self.loop.flush(conn)

    def _link_for(self, worker: str) -> _WorkerLink:
        link = self._workers.get(worker)
        if link is None:
            raise WorkerError(f"worker {worker!r} is gone")
        return link

    def _ensure_file(self, link: _WorkerLink, f: VineFile, peer: bool = True) -> None:
        """Start ``f`` on its way to ``link``'s cache unless it is there or
        under way: a ``transfer`` from the earliest-confirmed holder, else
        a ``put_file``.  The worker handles its link in order, so a frame
        sent behind a ``put_file`` finds the file in place; one that needs
        a transfer, and any invocation, waits on ``link.held`` for the
        ``cache_update`` instead (``_hold_or_send``, ``_settle_held``)."""
        if f.hash in link.cached or f.hash in link.assumed or f.hash in link.fetching:
            return
        holder = None
        if peer and f.peer_transfer and self.transfer_mode is not TransferMode.MANAGER_ONLY:
            for wname in self._file_holders.get(f.hash, ()):
                candidate = self._workers.get(wname)
                if wname != link.name and candidate and candidate.transfer_port:
                    holder = candidate
                    break
        if holder is not None:
            link.conn.send_buffered(
                {
                    "type": "transfer",
                    "hash": f.hash,
                    "host": holder.transfer_host,
                    "port": holder.transfer_port,
                    "size": f.size,
                }
            )
            link.fetching[f.hash] = time.monotonic()
            self.stats["peer_transfers"] += 1
        else:
            data = self.store.read(f.hash)
            link.conn.send_buffered(
                {"type": "put_file", "hash": f.hash, "name": f.remote_name, "size": f.size},
                data,
            )
            link.assumed[f.hash] = time.monotonic()
            self.stats["manager_sends"] += 1
            self.stats["bytes_sent"] += len(data)

    def _hold_or_send(
        self, link: _WorkerLink, key: tuple, files: List[VineFile], frame: tuple
    ) -> None:
        """Send a task or library frame down ``link`` behind its files,
        or hold it while one of them is still on its way from a peer."""
        fetching = {f.hash for f in files if f.hash in link.fetching}
        if fetching:
            link.held.append((key, fetching, frame))
        else:
            link.conn.send_buffered(*frame)

    # ------------------------------------------------------- payload plane
    def _code_blob_for(self, fn: Callable[..., Any]) -> bytes:
        """The serialized code blob for ``fn``, memoized by identity.

        Capture via source when possible (works regardless of what's
        importable on the worker), falling back to cloudpickle-by-value
        for lambdas and closures.  The memo holds strong references, so
        entries stay identity-stable; it is bounded LRU-style.
        """
        try:
            blob = self._code_blobs.get(fn)
        except TypeError:  # unhashable callable: no memo
            blob = None
        if blob is not None:
            self._code_blobs.move_to_end(fn)
            return blob
        from repro.serialize.source import capture_function

        blob = serialize({"code": capture_function(fn)})
        try:
            self._code_blobs[fn] = blob
            while len(self._code_blobs) > 256:
                self._code_blobs.popitem(last=False)
        except TypeError:
            pass
        return blob

    def _serialize_args(self, task: Task, link: _WorkerLink) -> bytes:
        """Serialize a task's (args, kwargs), handling declared arguments.

        On a shm-capable link the ~100-byte placeholders serialize as-is
        and resolve worker-side from the store's segments; on any other
        link the real values are substituted so the handle degrades to
        plain inline bytes.
        """
        args, kwargs = task.args, task.kwargs
        if not link.shm:
            args, kwargs = payloads.substitute_args(
                args, kwargs, self._declared_args.__getitem__
            )
        else:
            # Unbacked handles (below-threshold declares, shm=None) have
            # no segment for the worker to attach; inline them even on a
            # shm link.  Backed handles ship as placeholders.
            args, kwargs = payloads.substitute_args(
                args,
                kwargs,
                self._declared_args.__getitem__,
                when=lambda a: a.shm is None,
            )
            for value in (*args, *kwargs.values()):
                if isinstance(value, payloads.PayloadArg):
                    self._count_payload(task, value.size, copied=False)
        return serialize({"args": args, "kwargs": kwargs})

    def _stage_args_blob(
        self, task: Task, blob: bytes, link: _WorkerLink
    ) -> Optional[dict]:
        """Put a large argument blob in the store; returns its descriptor.

        Returns ``None`` (ship inline) for small blobs or non-shm links.
        The segment is transient and keyed by the digest ``serialize()``
        already embedded: it lives while a call in flight pins it and is
        unlinked when the last one completes, fails, or is requeued
        (:meth:`_unpin_task_payload`).
        """
        if (
            not link.shm
            or self.payloads is None
            or len(blob) < payloads.threshold_bytes()
        ):
            self._count_payload(task, len(blob), copied=True)
            return None
        digest = frame_digest(blob)
        descriptor = self.payloads.put(blob, digest, transient=True)
        self.payloads.pin(digest)
        task._payload_digest = digest
        self._count_payload(task, len(blob), copied=False)
        return descriptor

    def _count_payload(self, task: Task, n: int, *, copied: bool) -> None:
        """Attribute ``n`` payload bytes to ``task`` and the global counters."""
        if copied:
            self._bytes_copied.inc(n)
            task.payload_bytes["copied"] += n
        else:
            self._bytes_mapped.inc(n)
            task.payload_bytes["mapped"] += n

    def _unpin_task_payload(self, task: Task) -> None:
        """Release the dispatch-time pin on a task's argument blob; the
        last release unlinks its segment."""
        digest = task._payload_digest
        if digest is None:
            return
        task._payload_digest = None
        if self.payloads is not None:
            self.payloads.unpin(digest)

    def _fail_if_inputs_fit_nowhere(self, task: Task) -> bool:
        """Fail ``task`` at dispatch when its input files together exceed
        every connected worker's cache: no worker could stage them, and
        sending them would only spend the retry budget on cache misses."""
        need = sum(f.size for f in task.inputs)
        capacities = [link.cache_capacity for link in self._workers.values()]
        if any(c is None or need <= c for c in capacities):
            return False
        sizes = ", ".join(f"{f.remote_name} {f.size} B" for f in task.inputs)
        # Worded as the worker words the same miss ("CacheError: ...").
        task.set_exception(
            TaskFailure(
                f"CacheError: the inputs of task {task.id} ({sizes}) total {need} B, "
                f"more than any connected worker's cache holds "
                f"(largest {max(capacities)} B)"
            )
        )
        task.mark("completed", time.monotonic())
        self._completed.append(task)
        self.stats["failed"] += 1
        return True

    def _dispatch_python_task(self, task: PythonTask) -> bool:
        if task.inputs and self._fail_if_inputs_fit_nowhere(task):
            return True
        worker = self.placement.place_task(
            str(task.id), task.resources, exclude=task.workers_lost_on or None
        )
        if worker is None:
            # Reclaim an idle library's resources (empty-library eviction
            # applies to task scheduling too) and retry on a later round.
            self._evict_empty_library(None)
            return False
        link = self._link_for(worker)
        transfer_started = time.monotonic()
        files = list(task.inputs)
        if task.environment is not None:
            files.append(task.environment)
        for f in files:
            self._ensure_file(link, f)
        task.mark("overhead.manager_transfer", time.monotonic() - transfer_started)
        # A task carries its code with it (Table 1), but code and
        # arguments are serialized separately: the code blob is memoized
        # per function and a large argument blob rides the payload store
        # instead of being re-copied into every task's frame.
        serialize_started = time.monotonic()
        code_blob = self._code_blob_for(task.fn)
        args_blob = self._serialize_args(task, link)
        task.mark("overhead.code_serialize", time.monotonic() - serialize_started)
        header = {
            "type": "task",
            "task_id": task.id,
            "code_size": len(code_blob),
            "inputs": [
                {"hash": f.hash, "name": f.remote_name} for f in task.inputs
            ],
            "env_hash": task.environment.hash if task.environment else None,
        }
        if task.timeout is not None:
            header["timeout"] = task.timeout
        parts: List[bytes] = [code_blob]
        descriptor = self._stage_args_blob(task, args_blob, link)
        if descriptor is not None:
            header["args_shm"] = descriptor
        else:
            parts.append(args_blob)
        self._count_payload(task, len(code_blob), copied=True)
        self._hold_or_send(link, ("task", task.id), files, (header, parts))
        task.state = TaskState.DISPATCHED
        task.worker = worker
        task.mark("dispatched", time.monotonic())
        self.state.running[task.id] = task
        self.state.task_worker_key[task.id] = worker
        self.stats["tasks_dispatched"] += 1
        # Task mode reloads its context on every execution: always cold.
        self._note_warm_cold("<tasks>", warm=False)
        self.perflog.transition(
            "task_dispatch", task=task.id, worker=worker, kind="task"
        )
        self.tracer.record(
            "task_dispatch", task_id=str(task.id), worker=worker, kind="task"
        )
        return True

    def _dispatch_invocation(self, task: FunctionCall, inst: LibraryInstance) -> None:
        """Bind ``task`` to ``inst`` and stage its frame for the instance's
        own link.

        The frame is not written to the socket here: ``_flush_round``
        coalesces every invocation bound for the same link in this
        dispatch round into a single ``invocation_batch`` message.  One
        with input files the worker has not yet confirmed waits on its
        link's hold list instead (``_settle_held``): the instance stages
        inputs from the worker's cache itself, so the ``put_file`` must
        have landed first.
        """
        library = self._libraries[task.library_name]
        link = self._link_for(inst.worker)
        header: Dict[str, Any] = {"task_id": task.id, "function": task.function_name}
        if task.inputs:  # per-invocation input files
            if self._fail_if_inputs_fit_nowhere(task):
                return
            transfer_started = time.monotonic()
            for f in task.inputs:
                self._ensure_file(link, f)
            task.mark("overhead.manager_transfer", time.monotonic() - transfer_started)
            header["inputs"] = [
                {"hash": f.hash, "name": f.remote_name} for f in task.inputs
            ]
        serialize_started = time.monotonic()
        payload = self._serialize_args(task, link)
        task.mark("overhead.code_serialize", time.monotonic() - serialize_started)
        fork = (task.exec_mode or library.exec_mode) is ExecMode.FORK
        if fork:
            header["mode"] = "fork"
        if task.timeout is not None:
            if fork:  # the library kills just the overdue child
                header["timeout"] = task.timeout
            else:  # only the worker can stop it: by killing the instance
                self.loop.call_at(
                    time.monotonic() + task.timeout,
                    partial(self._expire_invocation, task.id, inst.instance_id),
                )
        descriptor = self._stage_args_blob(task, payload, link)
        if descriptor is not None:
            header["args_shm"] = descriptor
            payload = b""
        if task.inputs and not all(f.hash in link.cached for f in task.inputs):
            inputs = {f.hash for f in task.inputs}
            key = ("invocation", task.id, inst.instance_id)
            link.held.append((key, inputs, (header, payload)))
        else:
            conn = self._instances[inst.instance_id].conn
            self._outbox.setdefault(conn, []).append((header, payload))
        # Warm/cold classification, before start_invocation mutates the
        # slot counts: a warm invocation lands on an instance that has
        # already served or is concurrently serving work (its context is
        # resident); a cold one pays the instance's first-use setup.  An
        # instance the prewarm tick staged ahead of the forecast arrival
        # is warm by construction — its context was resident before the
        # invocation existed — and counts into prewarm precision.
        warm = inst.total_served > 0 or inst.used_slots > 0
        if not warm and inst.instance_id in self._prewarmed:
            warm = True
            self._policy_prewarm_hits.inc()
        self._prewarmed.discard(inst.instance_id)
        if not warm and self.tracer.enabled:
            # Attribute this instance's deploy overhead (env_setup) to
            # the invocation paying the cold start, for task_cost.
            self._cold_instance[task.id] = inst.instance_id
        self._note_warm_cold(task.library_name, warm=warm)
        self.placement.start_invocation(inst)
        task.state = TaskState.DISPATCHED
        task.worker = inst.worker
        dispatched_at = time.monotonic()
        task.mark("dispatched", dispatched_at)
        self.policy.note_dispatch(task.library_name, inst.worker, dispatched_at)
        self.policy.note_queue_wait(
            task.tenant or task.library_name,
            dispatched_at - task.timeline.get("submitted", dispatched_at),
        )
        self.state.running[task.id] = task
        self.state.invocation_instance[task.id] = inst.instance_id
        self.stats["invocations_dispatched"] += 1
        self.perflog.transition(
            "task_dispatch",
            task=task.id,
            worker=inst.worker,
            kind="invocation",
            library=task.library_name,
            warm=warm,
        )
        self.tracer.record(
            "task_dispatch",
            task_id=str(task.id),
            worker=inst.worker,
            kind="invocation",
            library=task.library_name,
            instance=inst.instance_id,
        )

    def _maybe_prewarm(self) -> None:
        """Pre-stage library instances ahead of forecast demand.

        Runs on the policy tick (a 0.2 s loop timer): whatever
        the active policy forecasts as imminent-but-undeployed gets one
        speculative deploy, counted in ``policy.prewarms``; the first
        invocation such an instance catches counts a prewarm hit, so
        precision = prewarm_hits / prewarms.

        Speculation yields to demand: while any library has queued
        invocations, free capacity belongs to the dispatch path — a
        prewarm grabbing a just-evicted slot would displace the very
        deploy the eviction was made for and churn the pool.
        """
        if any(self.state.pending_invocations.values()):
            return
        for name in self.policy.prewarm_candidates(
            self.placement, self._libraries, time.monotonic()
        ):
            library = self._libraries.get(name)
            if library is None:
                continue
            if self._deploy_library_somewhere(library, prewarm=True):
                self._policy_prewarms.inc()

    def _deploy_library_somewhere(
        self, library: LibraryTask, *, prewarm: bool = False
    ) -> bool:
        """Place and send one new instance of ``library``; False if nothing fits."""
        placed = self.placement.place_library(
            library.name, library.function_slots, library.resources
        )
        if placed is None:
            return False
        worker, instance_id = placed
        link = self._link_for(worker)
        spec_file: VineFile = library._spec_file  # type: ignore[attr-defined]
        env_file: Optional[VineFile] = library._env_file  # type: ignore[attr-defined]
        data_files: List[VineFile] = library._data_files  # type: ignore[attr-defined]
        inputs = [spec_file] + data_files + list(library.inputs)
        files = inputs + ([env_file] if env_file is not None else [])
        for f in files:
            self._ensure_file(link, f)
        token = secrets.token_hex(16)
        frame = {
            "type": "library",
            "instance_id": instance_id,
            "library_name": library.name,
            "spec_name": spec_file.remote_name,
            "env_hash": env_file.hash if env_file else None,
            "inputs": [{"hash": f.hash, "name": f.remote_name} for f in inputs],
            "slots": library.function_slots,
            "token": token,
        }
        self._hold_or_send(link, ("library", instance_id), files, (frame, b""))
        slot = self.placement.workers[worker]
        record = _InstanceRecord(
            instance=slot.libraries[instance_id], library=library, token=token
        )
        self._instances[instance_id] = record
        if prewarm:
            self._prewarmed.add(instance_id)
        self.stats["libraries_deployed"] += 1
        self.log.debug("deployed library %s#%d on %s", library.name, instance_id, worker)
        return True

    def _evict_empty_library(self, wanted_library: Optional[str]) -> bool:
        if not self.enable_library_eviction:
            return False
        victim = self.placement.find_evictable_library(
            wanted_library, now=time.monotonic()
        )
        if victim is None:
            return False
        record = self._instances.get(victim.instance_id)
        if record is None or record.removing:
            return False
        self._request_removal(record)
        self.stats["libraries_evicted"] += 1
        self.log.debug(
            "evicting idle library %s#%d on %s",
            victim.library_name, victim.instance_id, victim.worker,
        )
        return True

    def _request_removal(self, record: _InstanceRecord) -> None:
        """Take an instance out of scheduling and stage ``remove_library``
        on its worker's link; the seat is freed when the worker answers
        ``library_removed``."""
        record.removing = True
        self.placement.mark_removing(record.instance)
        self._link_for(record.instance.worker).conn.send_buffered(
            {"type": "remove_library", "instance_id": record.instance.instance_id}
        )

    def _forget_instance(self, instance_id: int) -> Optional[_InstanceRecord]:
        """Drop an instance's record and close its link."""
        record = self._instances.pop(instance_id, None)
        if record is not None and record.conn is not None:
            self.loop.remove(record.conn)
            record.conn.close()
            record.conn = None
        return record

    # -------------------------------------------------------- instance links
    def _on_instance_frame(
        self, record: _InstanceRecord, message: Dict[str, Any], payload: bytes
    ) -> None:
        """A result (or a failure) straight from an instance — applied
        only while its task is still bound to that instance: one that was
        requeued or settled by the worker link meanwhile is dropped."""
        piggyback = message.get(messages.TRACE_KEY)
        if piggyback:
            self.tracer.absorb(piggyback)
        task_id = int(message["task_id"])
        if self.state.invocation_instance.get(task_id) != record.instance.instance_id:
            _reclaim_result_segment(message)
        elif message["type"] == "task_failed":
            self._on_task_failed(message)
        else:
            self._on_result(message, payload)

    def _instance_link_lost(self, record: _InstanceRecord, reason: str) -> None:
        """An instance's link closed.  Nothing is dispatched to it from
        now on, and nothing else happens here: a lost link ends the
        instance's ``serve()``, so its worker reports the exit, and that
        ``library_failed`` (or ``_worker_lost``, if the worker link goes
        too) settles whatever was bound to it."""
        record.conn.close()
        record.conn = None
        if self._instances.get(record.instance.instance_id) is not record or record.removing:
            return
        self.log.warning(
            "lost the link of library instance %d: %s",
            record.instance.instance_id, reason,
        )
        record.removing = True
        self.placement.mark_removing(record.instance)

    def _expire_invocation(self, task_id: int, instance_id: int) -> None:
        """Loop timer at a direct-mode deadline: an invocation still bound
        to its instance overran, and only the worker can stop it."""
        record = self._instances.get(instance_id)
        task = self.state.running.get(task_id)
        if (
            record is None
            or task is None
            or self.state.invocation_instance.get(task_id) != instance_id
        ):
            return  # finished, requeued, or its instance is already gone
        self.loop.send(
            self._link_for(record.instance.worker).conn,
            {
                "type": "expire",
                "instance_id": instance_id,
                "task_id": task_id,
                "timeout": task.timeout,
            },
        )

    # ---------------------------------------------------------- worker events
    def _on_worker_frame(
        self, link: _WorkerLink, message: Dict[str, Any], payload: bytes
    ) -> None:
        link.last_seen = time.monotonic()
        piggyback = message.get(messages.TRACE_KEY)
        if piggyback:
            self.tracer.absorb(piggyback)
        mtype = message.get("type")
        if mtype == "status":
            link.status = report = message.get("report", {})
            if "rss_bytes" in report:
                self._fold_heartbeat(link.name, report)
        elif mtype == "cache_update":
            self._on_cache_update(link, message)
        elif mtype == "library_ready":
            self._on_library_ready(message)
        elif mtype == "library_failed":
            self._on_library_failed(message)
        elif mtype == "library_removed":
            self._on_library_removed(message)
        elif mtype == "result":
            self._on_result(message, payload)
        elif mtype == "task_failed":
            self._on_task_failed(message)
        # unknown worker messages are tolerated for forward compatibility

    def _on_cache_update(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        """A file confirmed present or reported absent; a failed peer fetch
        falls back, once, to a ``put_file`` from the manager's store.  A
        transfer is timed from its send to this confirmation."""
        digest = message["hash"]
        fetched = link.fetching.pop(digest, None)
        sent = link.assumed.pop(digest, fetched)
        if sent is not None:
            elapsed = time.monotonic() - sent
            self.stats["transfer_seconds"] += elapsed
            self.tracer.record(
                "transfer_done",
                hash=digest,
                worker=link.name,
                seconds=elapsed,
                mode="manager" if fetched is None else "peer",
                present=bool(message.get("present")),
            )
        if message.get("present"):
            link.cached.add(digest)
            self._file_holders.setdefault(digest, {})[link.name] = None
        else:
            link.cached.discard(digest)
            self._drop_holder(digest, link.name)
            if fetched is not None:
                self._ensure_file(link, self.store.get(digest), peer=False)
        if link.held:
            self._settle_held(link, digest, message)
        if self._outbox or link.conn.pending_out:
            self._flush_round()

    def _settle_held(
        self, link: _WorkerLink, digest: str, message: Dict[str, Any]
    ) -> None:
        """Release what a ``cache_update`` for ``digest`` unblocks: a task
        or library frame once none of its files is still under way from a
        peer (a fallback ``put_file`` is queued ahead of it), an invocation
        once all its inputs are present; an invocation whose input is
        absent with no ``put_file`` on the way is requeued without blame.
        A frame no longer bound where it waits is dropped."""
        held, link.held = link.held, []
        for entry in held:
            key, needs, frame = entry
            if digest not in needs:
                link.held.append(entry)
            elif not self._held_bound(link, key):
                continue  # settled meanwhile: its task or instance failed or left
            elif key[0] != "invocation":
                if needs & link.fetching.keys():
                    link.held.append(entry)
                else:
                    link.conn.send_buffered(*frame)
            elif not message.get("present") and digest not in link.assumed:
                self._on_task_failed({
                    "type": "task_failed",
                    "task_id": key[1],
                    "kind": "requeue",
                    "error": message.get("error") or "input evicted before use",
                })
            elif not needs <= link.cached:
                link.held.append(entry)
            else:
                conn = self._instances[key[2]].conn
                if conn is not None:  # else lost: the exit report settles it
                    self._outbox.setdefault(conn, []).append(frame)

    def _held_bound(self, link: _WorkerLink, key: tuple) -> bool:
        """Whether a held frame's task or instance is still bound there."""
        if key[0] == "task":
            return self.state.task_worker_key.get(key[1]) == link.name
        if key[0] == "library":
            record = self._instances.get(key[1])
            return record is not None and not record.removing
        return self.state.invocation_instance.get(key[1]) == key[2]

    def _fold_heartbeat(self, worker: str, report: Dict[str, Any]) -> None:
        """Fold one worker's resource heartbeat into per-worker gauges.

        The heartbeat rides on the periodic status frame
        (``HEARTBEAT_FIELDS`` in messages.py); gauges land in the shared
        registry so /metrics exposes ``repro_worker_<name>_rss_bytes``
        and friends without any extra traffic.
        """
        for key in messages.HEARTBEAT_FIELDS:
            if key in report:
                self.metrics.gauge(f"worker.{worker}.{key}").set(
                    float(report[key] or 0)
                )

    def _on_library_ready(self, message: dict) -> None:
        record = self._instances.get(int(message["instance_id"]))
        if record is None:
            return
        record.deploy_times.update(message.get("times", {}))
        record.worker_ready = True
        if record.conn is not None:
            self._library_ready(record)

    def _library_ready(self, record: _InstanceRecord) -> None:
        """Both halves are in — the worker's ``library_ready`` and the
        instance's own link — so invocations may land on it."""
        self.placement.library_ready(record.instance.worker, record.instance.instance_id)
        self.perflog.transition(
            "library_ready",
            library=record.library.name,
            instance=record.instance.instance_id,
            worker=record.instance.worker,
        )
        # A fresh idle instance: its own library gained slots, and every
        # other starving library gained an eviction candidate.
        self.state.wake_all()

    def _on_library_failed(self, message: dict) -> None:
        instance_id = int(message["instance_id"])
        record = self._forget_instance(instance_id)
        if record is None:
            return
        inst = record.instance
        timeout_kill = message.get("kind") == "timeout"
        self.perflog.transition(
            "library_failed",
            library=record.library.name,
            instance=instance_id,
            worker=inst.worker,
            kind=message.get("kind"),
        )
        # Fail invocations currently bound to this instance.  On a
        # timeout kill the victim and its siblings were already resolved
        # by their own task_failed frames (sent before this one), so any
        # invocation still bound here was dispatched into the window
        # between the kill and this frame — requeue it, don't fail it.
        for task_id, iid in list(self.state.invocation_instance.items()):
            if iid != instance_id:
                continue
            task = self.state.running.pop(task_id, None)
            self.state.invocation_instance.pop(task_id, None)
            if task is not None:
                if timeout_kill:
                    self._requeue_task(
                        task, reason="its instance was killed when a sibling call timed out"
                    )
                else:
                    self._unpin_task_payload(task)
                    task.set_exception(failure_from_message(message))
                    task.mark("completed", time.monotonic())
                    self._completed.append(task)
            inst.used_slots = max(0, inst.used_slots - 1)
        try:
            self.placement.remove_library(inst.worker, instance_id)
        except Exception:
            pass
        # Mark the library broken so queued invocations fail fast instead
        # of redeploying forever: one drain of its pending deque, no
        # per-task deque removals.  A timeout kill is not a broken
        # library — one invocation overran and its instance was shot —
        # so queued invocations stay queued and redeploy normally.
        queue = None if timeout_kill else self.state.pending_invocations.get(
            record.library.name
        )
        if queue:
            for t in queue:
                if t.state is not TaskState.SUBMITTED:
                    continue  # cancelled tombstone, already finalized
                t.set_exception(failure_from_message(message))
                t.mark("completed", time.monotonic())
                self._completed.append(t)
            queue.clear()
        self.state.wake_all()  # the failed instance's resources are free again

    def _on_library_removed(self, message: dict) -> None:
        instance_id = int(message["instance_id"])
        record = self._forget_instance(instance_id)
        self._prewarmed.discard(instance_id)  # evicted unused = prewarm miss
        if record is None:
            return
        self.perflog.transition(
            "library_removed",
            library=record.library.name,
            instance=instance_id,
            worker=record.instance.worker,
            served=record.instance.total_served,
        )
        # The worker has confirmed the instance is gone, so anything
        # still bound to it was dispatched into the removal window and
        # never ran: requeue it and release its slot, or the instance
        # would fail ``remove_library``'s active-invocation guard and
        # its seat in the resource pool would leak forever.
        for task_id, iid in list(self.state.invocation_instance.items()):
            if iid != instance_id:
                continue
            task = self.state.running.pop(task_id, None)
            self.state.invocation_instance.pop(task_id, None)
            if task is not None:
                self._requeue_task(
                    task, reason="its instance was removed before the call ran"
                )
            record.instance.used_slots = max(0, record.instance.used_slots - 1)
        try:
            self.placement.remove_library(record.instance.worker, instance_id)
        except Exception:
            pass
        self.state.wake_all()  # reclaimed resources may unblock any queue

    def _finish_bookkeeping(self, task: Task) -> None:
        self._unpin_task_payload(task)
        if isinstance(task, FunctionCall):
            instance_id = self.state.invocation_instance.pop(task.id, None)
            if instance_id is not None:
                record = self._instances.get(instance_id)
                if record is not None:
                    self.placement.finish_invocation(record.instance)
                    # The freed slot only helps this library...
                    self.state.mark_dirty(task.library_name)
                    # ...but a now-idle instance is an eviction candidate
                    # for every other blocked queue.
                    if record.instance.used_slots == 0:
                        self.state.wake_all()
        elif isinstance(task, PythonTask):
            worker = self.state.task_worker_key.pop(task.id, None)
            if worker is not None and worker in self.placement.workers:
                self.placement.finish_task(worker, task.resources)
            self.state.wake_all()  # released worker resources may fit anything

    def _on_result(self, message: dict, payload: bytes) -> None:
        task_id = int(message["task_id"])
        task = self.state.running.pop(task_id, None)
        if task is None:
            _reclaim_result_segment(message)
            return
        self._finish_bookkeeping(task)
        descriptor = message.get("payload_shm")
        try:
            if descriptor is not None:
                # The result never crossed a socket: attach the one-shot
                # segment, deserialize in place, unlink.
                mapped = payloads.attach(descriptor)
                try:
                    outcome = deserialize(mapped.view)
                finally:
                    mapped.close(consume=True)
                self._count_payload(task, int(descriptor["size"]), copied=False)
            else:
                outcome = deserialize(payload)
                self._count_payload(task, len(payload), copied=True)
        except (payloads.PayloadError, SerializationError) as exc:
            task.set_exception(TaskFailure(f"result payload unreadable: {exc}"))
            task.mark("completed", time.monotonic())
            self._completed.append(task)
            self.stats["failed"] += 1
            return
        times = dict(message.get("times", {}))
        times.update(outcome.get("times", {}))
        task.timeline.update(
            {f"overhead.{k}": v for k, v in times.items() if isinstance(v, float)}
        )
        task.overheads = times  # type: ignore[attr-defined]
        cold_instance = self._cold_instance.pop(task.id, None)
        if self.tracer.enabled:
            self._record_task_cost(
                task, times, ok=bool(outcome.get("ok")), cold_instance=cold_instance
            )
        exec_time = times.get("exec_time")
        if isinstance(exec_time, (int, float)):
            # Feeds /metrics tail quantiles and the report's straggler
            # threshold; one bisect over ten bounds per result.
            self._hist_execute.observe(float(exec_time))
        self.perflog.transition(
            "task_done",
            task=task.id,
            worker=task.worker,
            ok=bool(outcome.get("ok")),
            execute=float(exec_time) if isinstance(exec_time, (int, float)) else None,
        )
        if outcome.get("ok"):
            task.set_result(outcome.get("value"))
        else:
            task.set_exception(
                TaskFailure(
                    outcome.get("error", "remote failure"),
                    remote_traceback=outcome.get("traceback"),
                )
            )
            task.state = TaskState.FAILED
        task.mark("completed", time.monotonic())
        self._completed.append(task)
        self.stats["completed"] += 1

    def _record_task_cost(
        self,
        task: Task,
        times: Dict[str, Any],
        ok: bool,
        cold_instance: Optional[int] = None,
    ) -> None:
        """Consolidate one finished task into the paper's six cost components.

        Sources: ``overhead.code_serialize`` / ``overhead.manager_transfer``
        are stamped manager-side at dispatch; ``staging`` /
        ``worker_overhead`` come from the worker; ``reload_overhead`` /
        ``deserialize`` / ``invoc_overhead`` / ``exec_time`` from the
        runner or library process.  Warm invocations show zero
        dependency-install and environment-setup cost — that amortization
        is the L3 claim this event exists to measure.  A *cold*
        invocation (first use of a fresh instance) is additionally
        charged its instance's deploy overhead as ``env_setup``, the way
        the paper bills context setup to the invocation that triggered
        it — so counting ``env_setup > 0`` events over a trace counts
        cold starts exactly (the warm-hit oracle test relies on this).

        Under a router the decomposition grows two cluster components:
        ``router_hop`` (router→shard frame transit, measured by the
        shard from the trace context's send stamp) and ``shard_queue``
        (submit→dispatch wait in this manager's queue).  Both are 0.0 in
        single-manager runs.
        """
        timeline = task.timeline
        # Only router-dispatched tasks (marked by the shard with their
        # measured hop) bill a queue component; a single manager's
        # submit→dispatch wait stays out of the breakdown so the paper's
        # six-column tables are bit-identical to previous PRs.
        router_hop = getattr(task, "_router_hop_s", None)
        shard_queue = 0.0
        if router_hop is not None:
            dispatched = timeline.get("dispatched")
            submitted = timeline.get("submitted")
            if dispatched is not None and submitted is not None:
                shard_queue = max(0.0, dispatched - submitted)
        env_setup = float(times.get("reload_overhead", 0.0) or 0.0)
        if cold_instance is not None:
            record = self._instances.get(cold_instance)
            if record is not None:
                env_setup += sum(
                    v for v in record.deploy_times.values()
                    if isinstance(v, (int, float))
                )
            env_setup = max(env_setup, 1e-9)  # a cold start is never free
        self.tracer.record(
            "task_cost",
            task_id=str(task.id),
            ok=ok,
            router_hop=router_hop if router_hop is not None else 0.0,
            shard_queue=shard_queue,
            code_fetch=timeline.get("overhead.code_serialize", 0.0),
            dependency_install=times.get("worker_overhead", 0.0),
            data_transfer=(
                timeline.get("overhead.manager_transfer", 0.0)
                + times.get("staging", 0.0)
            ),
            env_setup=env_setup,
            deserialization=times.get(
                "deserialize", times.get("invoc_overhead", 0.0)
            ),
            execute=times.get("exec_time", 0.0),
            payload_bytes_copied=task.payload_bytes["copied"],
            payload_bytes_mapped=task.payload_bytes["mapped"],
        )

    def _on_task_failed(self, message: dict) -> None:
        task_id = int(message["task_id"])
        task = self.state.running.pop(task_id, None)
        if task is None:
            return
        self._finish_bookkeeping(task)
        self._cold_instance.pop(task.id, None)
        kind = message.get("kind")
        if kind == "requeue":
            # The task was an innocent casualty (its library instance was
            # killed because a *sibling* invocation timed out, or an input
            # went missing before it ran).  No blame — the worker is
            # healthy — but the attempt still counts against the budget.
            self._requeue_task(task, reason=message.get("error") or "requeued")
            return
        if kind == "timeout":
            self.stats["timeouts"] += 1
        self.perflog.transition(
            "task_failed", task=task.id, worker=task.worker, kind=kind
        )
        task.set_exception(failure_from_message(message))
        task.mark("completed", time.monotonic())
        self._completed.append(task)
        self.stats["failed"] += 1

    def _drop_holder(self, digest: str, worker: str) -> None:
        holders = self._file_holders.get(digest)
        if holders is not None:
            holders.pop(worker, None)
            if not holders:
                del self._file_holders[digest]

    def _worker_lost(self, link: _WorkerLink) -> None:
        """Fault tolerance: requeue the lost worker's in-flight work."""
        self.loop.remove(link.conn)
        link.conn.close()
        if self._workers.pop(link.name, None) is None:
            return  # double loss (socket error racing a liveness expiry)
        self._outbox.pop(link.conn, None)
        for digest in link.cached:
            self._drop_holder(digest, link.name)
        self.log.warning("lost worker %s", link.name)
        # Requeue the worker's in-flight work BEFORE any placement-state
        # check: even if the placement entry is gone (double loss or a
        # registration race), the shard state's running/
        # invocation_instance/task_worker_key entries must never leak.
        lost_instances = {
            iid
            for iid, rec in self._instances.items()
            if rec.instance.worker == link.name
        }
        for iid in lost_instances:
            self._forget_instance(iid)
        for task_id, iid in list(self.state.invocation_instance.items()):
            if iid in lost_instances:
                self.state.invocation_instance.pop(task_id, None)
                self._requeue(task_id, blame=link.name)
        for task_id, worker in list(self.state.task_worker_key.items()):
            if worker == link.name:
                self.state.task_worker_key.pop(task_id, None)
                self._requeue(task_id, blame=link.name)
        if link.name in self.placement.workers:
            self.placement.remove_worker(link.name)
        self.stats["workers_lost"] += 1
        self.perflog.transition("worker_lost", worker=link.name)
        self.tracer.record("worker_lost", worker=link.name)
        # The dead worker's processes can no longer consume or unlink
        # their one-shot segments; reap anything whose owner is gone.
        payloads.reap_orphans()

    def _requeue(self, task_id: int, blame: Optional[str] = None) -> None:
        task = self.state.running.pop(task_id, None)
        if task is None:
            return
        self._requeue_task(task, blame=blame)

    def _requeue_task(
        self, task: Task, *, blame: Optional[str] = None, reason: str = ""
    ) -> None:
        """Give a task (already removed from ``state.running``) another try.

        Each requeue spends one unit of the task's retry budget, records
        ``blame`` (the worker it was lost on — never redispatched there),
        and arms an exponential backoff gate.  A blameless requeue says
        why in ``reason``.  Past ``max_retries`` the task fails with
        :class:`~repro.errors.TaskRetryExhausted` carrying the full loss
        history and naming what ended it: a worker loss or that reason.
        """
        self._unpin_task_payload(task)
        self._cold_instance.pop(task.id, None)
        task.retries += 1
        task.worker = None
        if blame is not None:
            task.workers_lost_on.append(blame)
        if task.retries > self.max_retries:
            budget = f"{task.retries} times (retry budget {self.max_retries})"
            if blame is not None:
                why = f"lost its worker {budget}; lost on: {task.workers_lost_on}"
            else:
                why = f"was requeued {budget}; last reason: {reason}"
            task.set_exception(
                TaskRetryExhausted(
                    f"task {task.id} {why}",
                    losses=task.workers_lost_on,
                    retries=task.retries,
                )
            )
            task.mark("completed", time.monotonic())
            self._completed.append(task)
            self.stats["retry_exhausted"] += 1
            self.stats["failed"] += 1
            return
        if self.retry_backoff > 0.0:
            backoff = min(
                self.retry_backoff * (2 ** (task.retries - 1)),
                self.retry_backoff_max,
            )
            task.not_before = time.monotonic() + backoff
            self._note_backoff(task.not_before)
        task.state = TaskState.SUBMITTED
        self.state.enqueue(task, front=True)
        self.stats["requeued"] += 1
        self.perflog.transition(
            "task_retry", task=task.id, retries=task.retries, blame=blame
        )
        self.tracer.record(
            "task_retry", task_id=str(task.id), retries=task.retries, blame=blame
        )
