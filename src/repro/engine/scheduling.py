"""Placement logic: hash ring, library placement, empty-library eviction.

Paper §3.5.2: "the manager sequentially checks a hash ring of connected
workers to see if any is available to run the library" and, when all
workers are saturated with other libraries, "when the manager is
scheduling an invocation from another library and finds a library on a
worker with no slots being actively used (an empty library), the manager
instructs the worker to remove that library and reclaim resources."

All classes here are pure bookkeeping — no sockets — so the policy is
unit-testable and shared by the real engine and the simulator.

Invocation placement is O(1) amortized: :class:`Placement` maintains an
exact per-library *free-slot index* (every ready instance with at least
one free slot) that is updated incrementally on every state transition
(ready, start, finish, removal, worker loss) instead of re-scanning all
workers per invocation.  ``free_index_snapshot`` exposes the index so
tests can assert it always agrees with a brute-force scan.

:class:`ShardState` bundles everything a *shard* of the engine owns —
the placement table plus every queue and in-flight index the manager
mutates while scheduling.  The manager holds exactly one; the shard
router (:mod:`repro.engine.router`) runs N manager processes, each with
its own independent ``ShardState``, and routes work between them by
consistent-hashing context names over the same :class:`HashRing`.
"""

from __future__ import annotations

import collections
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.engine.policies import SchedulingPolicy
from repro.engine.resources import ResourcePool, Resources
from repro.errors import SchedulingError
from repro.obs.trace import NULL_TRACER
from repro.util.hashing import content_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (task -> files)
    from repro.engine.task import FunctionCall, PythonTask, Task


class HashRing:
    """Consistent hash ring over worker names.

    ``walk(key)`` yields every worker once, starting from the ring
    position of ``key`` — the scan order the manager uses so different
    libraries start their placement search at different workers and
    spread load.

    ``replicas`` places that many virtual points per member.  One point
    (the default, and what the manager uses across its workers) keeps
    positions stable with historical behavior; small rings — the router
    hashing libraries over a handful of *shards* — need tens of virtual
    points per shard or the partition is badly skewed (with 4 members
    and 1 point each, one member routinely owns most of the keyspace).
    """

    def __init__(self, replicas: int = 1) -> None:
        if replicas < 1:
            raise SchedulingError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        self._names: set[str] = set()

    @staticmethod
    def _position(name: str) -> int:
        return int(content_hash("ring", name)[:16], 16)

    def _positions(self, name: str) -> List[int]:
        # Replica 0 hashes the bare name, so replicas=1 reproduces the
        # original single-point ring exactly.
        return [self._position(name)] + [
            self._position(f"{name}#{i}") for i in range(1, self.replicas)
        ]

    def add(self, name: str) -> None:
        if name in self._names:
            raise SchedulingError(f"worker {name!r} already on ring")
        for position in self._positions(name):
            insort(self._points, (position, name))
        self._names.add(name)

    def remove(self, name: str) -> None:
        if name not in self._names:
            raise SchedulingError(f"worker {name!r} not on ring")
        self._points = [(p, n) for (p, n) in self._points if n != name]
        self._names.discard(name)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def walk(self, key: str) -> Iterator[str]:
        """Yield every member once, in ring order from ``key``'s position."""
        if not self._points:
            return
        start = bisect_right(self._points, (self._position(key), chr(0x10FFFF)))
        n = len(self._points)
        seen: set[str] = set()
        for i in range(n):
            name = self._points[(start + i) % n][1]
            if name not in seen:
                seen.add(name)
                yield name


@dataclass
class LibraryInstance:
    """One deployed copy of a library on a worker."""

    library_name: str
    worker: str
    instance_id: int
    slots: int
    resources: Resources
    used_slots: int = 0
    ready: bool = False
    total_served: int = 0  # share value: invocations completed by this instance
    # An eviction is in flight: the worker owns a ``remove_library``
    # for this instance, so it must be invisible to dispatch and to
    # further victim searches until the removal ack frees its seat.
    removing: bool = False

    @property
    def free_slots(self) -> int:
        if not self.ready or self.removing:
            return 0
        return self.slots - self.used_slots

    @property
    def idle(self) -> bool:
        return self.used_slots == 0


@dataclass
class WorkerSlot:
    """Scheduler's view of one worker."""

    name: str
    pool: ResourcePool
    libraries: Dict[int, LibraryInstance] = field(default_factory=dict)
    running_tasks: int = 0

    def instances_of(self, library_name: str) -> List[LibraryInstance]:
        return [li for li in self.libraries.values() if li.library_name == library_name]


class Placement:
    """Cluster-wide placement state and decisions.

    ``policy`` is the :class:`repro.engine.policies.SchedulingPolicy`
    that *orders candidates* for every decision below (``None`` means
    the reactive base policy).  The commit logic — resource accounting,
    blame-set filtering, index maintenance — lives here, so a policy can
    only reorder work, never corrupt state.
    """

    def __init__(self, tracer=None, policy=None) -> None:
        self.ring = HashRing()
        self.workers: Dict[str, WorkerSlot] = {}
        # Placement decisions are traced (library_place/library_remove);
        # the owning manager swaps in its tracer after construction.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.policy = policy or SchedulingPolicy()
        self._next_instance = 1
        # library name -> {instance_id: instance} for every ready instance
        # with free_slots > 0.  Kept exact on every transition so
        # find_invocation_slot is O(1) instead of O(workers × instances).
        self._free_slots: Dict[str, Dict[int, LibraryInstance]] = {}

    # -- free-slot index ---------------------------------------------------
    def _reindex(self, inst: LibraryInstance) -> None:
        """Sync one instance's membership in the free-slot index."""
        bucket = self._free_slots.setdefault(inst.library_name, {})
        if inst.free_slots > 0:
            bucket[inst.instance_id] = inst
        else:
            bucket.pop(inst.instance_id, None)
            if not bucket:
                del self._free_slots[inst.library_name]

    def _unindex(self, inst: LibraryInstance) -> None:
        bucket = self._free_slots.get(inst.library_name)
        if bucket is not None:
            bucket.pop(inst.instance_id, None)
            if not bucket:
                del self._free_slots[inst.library_name]

    def free_index_snapshot(self) -> Dict[str, Set[int]]:
        """Copy of the free-slot index, for tests and introspection."""
        return {name: set(bucket) for name, bucket in self._free_slots.items()}

    # -- membership -------------------------------------------------------
    def add_worker(self, name: str, total: Resources) -> None:
        if name in self.workers:
            raise SchedulingError(f"worker {name!r} already known")
        self.workers[name] = WorkerSlot(name=name, pool=ResourcePool(total))
        self.ring.add(name)

    def remove_worker(self, name: str) -> WorkerSlot:
        slot = self.workers.pop(name, None)
        if slot is None:
            raise SchedulingError(f"worker {name!r} not known")
        self.ring.remove(name)
        for inst in slot.libraries.values():
            self._unindex(inst)
        return slot

    # -- library lifecycle --------------------------------------------------
    def place_library(
        self, library_name: str, slots: int, resources: Resources
    ) -> Optional[Tuple[str, int]]:
        """Choose a worker for a new library instance; commit resources.

        Returns (worker, instance_id) or ``None`` when nothing fits.
        """
        for wname in self.policy.library_worker_order(self, library_name, resources):
            slot = self.workers.get(wname)
            if slot is None:
                continue
            if slot.pool.can_allocate(resources):
                slot.pool.allocate(resources)
                iid = self._next_instance
                self._next_instance += 1
                slot.libraries[iid] = LibraryInstance(
                    library_name=library_name,
                    worker=wname,
                    instance_id=iid,
                    slots=slots,
                    resources=resources,
                )
                self.tracer.record(
                    "library_place",
                    library=library_name,
                    worker=wname,
                    instance=iid,
                    slots=slots,
                )
                return wname, iid
        return None

    def library_ready(self, worker: str, instance_id: int) -> None:
        inst = self.workers[worker].libraries[instance_id]
        inst.ready = True
        self._reindex(inst)

    def mark_removing(self, inst: LibraryInstance) -> None:
        """Take ``inst`` out of scheduling while its eviction is in flight.

        The instance keeps its seat in the worker's resource pool (the
        worker still holds the process until the removal ack), but it
        leaves the free-slot index and stops being an eviction
        candidate: a dispatch round between the ``remove_library`` send
        and its ack must neither route new invocations onto the dying
        instance nor pick it as a victim a second time.
        """
        inst.removing = True
        self._reindex(inst)

    def remove_library(self, worker: str, instance_id: int) -> LibraryInstance:
        slot = self.workers[worker]
        inst = slot.libraries.get(instance_id)
        if inst is None:
            raise SchedulingError(f"no library instance {instance_id} on {worker}")
        if inst.used_slots:
            raise SchedulingError("cannot remove a library with active invocations")
        del slot.libraries[instance_id]
        self._unindex(inst)
        slot.pool.release(inst.resources)
        self.tracer.record(
            "library_remove",
            library=inst.library_name,
            worker=worker,
            instance=instance_id,
            served=inst.total_served,
        )
        return inst

    # -- invocation placement ------------------------------------------------
    def find_invocation_slot(
        self, library_name: str, exclude: Optional[Iterable[str]] = None
    ) -> Optional[LibraryInstance]:
        """A ready instance of ``library_name`` with a free slot.

        Reads the per-library free-slot index (FIFO by when an instance
        last gained a free slot) instead of walking the ring and every
        worker's instance table; the policy orders it — reactive keeps
        index order, so instances fill in deployment order at O(1);
        sticky packs onto the warmest.
        ``exclude`` names workers to skip — the retry path's blame set,
        so a task is never redispatched to a worker it was just lost on.
        The blame filter is applied *after* the policy has spoken, so no
        policy can route a retry back onto a blamed worker.
        """
        bucket = self._free_slots.get(library_name)
        if not bucket:
            return None
        banned = set(exclude) if exclude else ()
        for inst in self.policy.instance_order(self, library_name, bucket.values()):
            if inst.worker not in banned:
                return inst
        return None

    def find_evictable_library(
        self, library_name: Optional[str], *, now: float = 0.0
    ) -> Optional[LibraryInstance]:
        """An idle library instance eligible for eviction.

        This is the paper's empty-library reclamation: the victim must be
        ready (otherwise it may be warming up for queued invocations) and
        serving zero invocations.  When scheduling an invocation,
        ``library_name`` excludes instances of the wanted library itself;
        when scheduling a regular task (``library_name=None``) any idle
        library may be reclaimed.

        The policy ranks the candidates: reactive takes the first in
        worker-then-instance table order; sticky/prewarm evict the
        *coldest* instance and defer libraries with recent or
        forecast-imminent arrivals, but always concede someone, so
        reclamation can defer a warm library yet never wedge the
        requester.
        """
        candidates = [
            inst
            for slot in self.workers.values()
            for inst in slot.libraries.values()
            if inst.library_name != library_name
            and inst.ready
            and inst.idle
            and not inst.removing
        ]
        if not candidates:
            return None
        return self.policy.select_victim(self, candidates, now)

    def start_invocation(self, inst: LibraryInstance) -> None:
        if inst.free_slots <= 0:
            raise SchedulingError("library instance has no free slot")
        inst.used_slots += 1
        self._reindex(inst)

    def finish_invocation(self, inst: LibraryInstance) -> None:
        if inst.used_slots <= 0:
            raise SchedulingError("no invocation in flight on this instance")
        inst.used_slots -= 1
        inst.total_served += 1
        if inst.worker in self.workers and (
            inst.instance_id in self.workers[inst.worker].libraries
        ):
            self._reindex(inst)

    # -- plain task placement -----------------------------------------------
    def place_task(
        self, key: str, resources: Resources, exclude: Optional[Iterable[str]] = None
    ) -> Optional[str]:
        """Choose a worker for a regular task; commit its resources.

        ``exclude`` names workers to skip (the retry blame set).  The
        blame filter runs after any policy ordering, so no policy can
        place a retry on a blamed worker.
        """
        banned = set(exclude) if exclude else ()
        for wname in self.policy.task_worker_order(self, key, resources):
            if wname in banned:
                continue
            slot = self.workers.get(wname)
            if slot is None:
                continue
            if slot.pool.can_allocate(resources):
                slot.pool.allocate(resources)
                slot.running_tasks += 1
                return wname
        return None

    def finish_task(self, worker: str, resources: Resources) -> None:
        slot = self.workers[worker]
        if slot.running_tasks <= 0:
            raise SchedulingError(f"no running task on {worker}")
        slot.running_tasks -= 1
        slot.pool.release(resources)

    # -- metrics --------------------------------------------------------------
    def deployed_library_count(self) -> int:
        return sum(len(w.libraries) for w in self.workers.values())

    def occupancy_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-library (per-context) occupancy rollup for telemetry.

        One dict per library name, aggregated across all its deployed
        instances: instance/ready counts, slot totals and in-use slots,
        and cumulative invocations served.  Pure reads over the same
        bookkeeping the scheduler maintains, so the perflog sampler and
        the /status endpoint get exact occupancy for free.
        """
        out: Dict[str, Dict[str, int]] = {}
        for slot in self.workers.values():
            for inst in slot.libraries.values():
                ctx = out.get(inst.library_name)
                if ctx is None:
                    ctx = out[inst.library_name] = {
                        "instances": 0,
                        "ready": 0,
                        "slots": 0,
                        "used_slots": 0,
                        "served": 0,
                    }
                ctx["instances"] += 1
                ctx["ready"] += 1 if inst.ready else 0
                ctx["slots"] += inst.slots
                ctx["used_slots"] += inst.used_slots
                ctx["served"] += inst.total_served
        return out

    def mean_share_value(self) -> float:
        served = [
            inst.total_served
            for w in self.workers.values()
            for inst in w.libraries.values()
        ]
        if not served:
            return 0.0
        return sum(served) / len(served)


class ShardState:
    """One shard's complete scheduling state: placement + queues + in-flight.

    This is the explicit interface between the manager's event loop and
    the state it schedules over.  Everything here is per-shard: a
    multi-manager deployment (:mod:`repro.engine.router`) gives every
    manager process its own ``ShardState`` and no state is shared across
    shards — a context's queue, placement entries, and in-flight indexes
    all live on the shard that context hashes to, which is what makes a
    shard independently restartable and its warm instances sticky.

    Fields:

    * ``placement`` — the cluster-wide :class:`Placement` table.
    * ``ready_tasks`` — queued :class:`PythonTask`\\ s awaiting dispatch.
    * ``pending_invocations`` — per-library deques of queued
      :class:`FunctionCall`\\ s (the indexed dispatch hot path).
    * ``dirty_libraries`` / ``tasks_dirty`` — the capacity-event wakeup
      sets: a queue is only visited when marked dirty.
    * ``running`` — task id → task, for everything dispatched.
    * ``invocation_instance`` — invocation task id → library instance id.
    * ``task_worker_key`` — plain-task id → worker name.
    * ``backoff_wakeup`` — earliest ``not_before`` among backed-off
      tasks (0.0 = none waiting).
    """

    def __init__(self, tracer=None, policy=None) -> None:
        self.placement = Placement(tracer, policy=policy)
        self.ready_tasks: "Deque[PythonTask]" = collections.deque()
        self.pending_invocations: "Dict[str, Deque[FunctionCall]]" = {}
        self.dirty_libraries: Set[str] = set()
        self.tasks_dirty = False
        self.running: "Dict[int, Task]" = {}
        self.invocation_instance: Dict[int, int] = {}
        self.task_worker_key: Dict[int, str] = {}
        self.backoff_wakeup = 0.0

    # -- queueing ---------------------------------------------------------
    def enqueue(self, task: "Task", *, front: bool = False) -> None:
        """Queue ``task`` for dispatch and mark its queue dirty.

        ``front=True`` requeues at the head (the retry path, which must
        not let a lost task starve behind fresh submissions).
        """
        from repro.engine.task import FunctionCall

        if isinstance(task, FunctionCall):
            queue = self.pending_invocations.setdefault(
                task.library_name, collections.deque()
            )
            queue.appendleft(task) if front else queue.append(task)
            self.dirty_libraries.add(task.library_name)
        else:
            if front:
                self.ready_tasks.appendleft(task)
            else:
                self.ready_tasks.append(task)
            self.tasks_dirty = True

    def discard_queued(self, task: "Task") -> bool:
        """Withdraw a queued task (cancellation).  O(queue length), but
        keeps ``queue_depths``/``empty`` exact — the dispatch loops still
        skip non-SUBMITTED tombstones as a backstop for races."""
        from repro.engine.task import FunctionCall

        queue: Optional[Deque] = (
            self.pending_invocations.get(task.library_name)
            if isinstance(task, FunctionCall)
            else self.ready_tasks
        )
        if queue is None:
            return False
        try:
            queue.remove(task)
        except ValueError:
            return False
        return True

    def wake_all(self) -> None:
        """Mark every non-empty queue dirty after a capacity-change event."""
        if self.ready_tasks:
            self.tasks_dirty = True
        for name, queue in self.pending_invocations.items():
            if queue:
                self.dirty_libraries.add(name)

    # -- backoff ----------------------------------------------------------
    def note_backoff(self, not_before: float) -> None:
        """Remember the earliest pending backoff expiry."""
        if not self.backoff_wakeup or not_before < self.backoff_wakeup:
            self.backoff_wakeup = not_before

    def take_backoff_wakeup(self, now: float) -> bool:
        """True (and clears the gate) when a backed-off task is due."""
        if self.backoff_wakeup and now >= self.backoff_wakeup:
            self.backoff_wakeup = 0.0
            return True
        return False

    # -- introspection ----------------------------------------------------
    def queued_count(self) -> int:
        return len(self.ready_tasks) + sum(
            len(q) for q in self.pending_invocations.values()
        )

    def queue_depths(self) -> Dict[str, int]:
        """Non-empty queue lengths, keyed by library (``<tasks>`` for the
        plain-task queue) — the perflog's ``queue_depths`` sample."""
        depths = {
            name: len(q) for name, q in self.pending_invocations.items() if q
        }
        if self.ready_tasks:
            depths["<tasks>"] = len(self.ready_tasks)
        return depths

    def empty(self) -> bool:
        """No queued and no in-flight work on this shard."""
        return not self.ready_tasks and not self.running and not any(
            self.pending_invocations.values()
        )
