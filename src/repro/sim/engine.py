"""The simulated workflow engine: manager, workers, libraries, three levels.

Execution structure mirrors the real engine in :mod:`repro.engine`:

* A *serial* manager dispatches one task/invocation at a time, paying a
  per-dispatch cost that depends on the reuse level (wrapping a whole
  task with serialized context is ~30× costlier than shipping an
  invocation's arguments — Table 2).  At 100k-task scale this serial
  cost is the dominant makespan term, which is exactly the paper's Q3
  finding (L3 barely benefits from more workers).
* Workers have ``slots_per_worker`` invocation slots.  At L1 every task
  reads its context from the shared filesystem (fair-share + heavy-tail
  contention).  At L2 the first task per worker fetches + unpacks the
  environment (manager NIC or peer transfer), later tasks hit the local
  disk cache but still rebuild in-memory state.  At L3 persistent
  libraries pay fetch + unpack + setup once, then serve invocations
  whose only costs are argument loading and execution.
* Idle libraries are reclaimed after ``library_idle_timeout`` — the
  mechanism behind Figure 10's settle-down.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.engine.policies import ArrivalHistory, POLICIES
from repro.errors import SimulationError
from repro.obs.perflog import make_sample, write_perflog
from repro.sim.calibration import CostModel, ReuseLevel, ServiceSampler
from repro.sim.des import EventQueue, FairShareResource
from repro.sim.machine import SimMachine
from repro.sim.trace import RunResult, TraceRecorder
from repro.sim.workload import InvocationSpec, Workload


@dataclass
class _SimLibrary:
    uid: int
    worker: "_SimWorker"
    slots: int = 1
    ready: bool = False
    busy_slots: int = 0
    removed: bool = False
    served: int = 0
    last_active: float = 0.0

    @property
    def idle(self) -> bool:
        return self.busy_slots == 0


@dataclass
class _SimWorker:
    machine: SimMachine
    slots: int
    free_slots: int = 0
    env_state: str = "cold"            # cold | warming | warm
    waiting: List[InvocationSpec] = field(default_factory=list)
    libraries: List[_SimLibrary] = field(default_factory=list)
    committed: int = 0  # slots of the libraries not yet removed

    def __post_init__(self) -> None:
        self.free_slots = self.slots

    @property
    def library_capacity_left(self) -> int:
        return self.slots - self.committed


class SimManager:
    """Run one workload at one reuse level over a simulated fleet."""

    def __init__(
        self,
        workload: Workload,
        fleet: List[SimMachine],
        model: CostModel,
        level: ReuseLevel,
        *,
        seed: int | str = 0,
        sample_every: Optional[int] = None,
        perflog_path: Optional[str] = None,
        perflog_every: float = 2.0,
        policy: str = "reactive",
    ):
        if not fleet:
            raise SimulationError("fleet is empty")
        # Serving-layer policy (mirrors repro.engine.policies, same
        # registry of names).  "reactive" keeps the historical LIFO token
        # pop; "sticky"/"prewarm" prefer the warmest free library token,
        # and "prewarm" additionally defers idle reclamation while the
        # arrival history forecasts imminent demand.  "fair" has no
        # meaning without tenants, so the sim treats it as reactive.
        name = (policy or "reactive").lower()
        if name not in POLICIES:
            raise SimulationError(
                f"unknown scheduling policy {policy!r}; choose from {sorted(POLICIES)}"
            )
        self.policy = name
        self._arrivals = ArrivalHistory() if name == "prewarm" else None
        workload.validate()
        self.workload = workload
        self.model = model
        self.level = level
        self.queue = EventQueue()
        self.sampler = ServiceSampler(model, seed=seed)
        self.trace = TraceRecorder(
            sample_every=sample_every or max(1, len(workload) // 500)
        )
        self.sharedfs = FairShareResource(
            self.queue, model.fs_capacity, per_job_cap=model.fs_per_reader, name="sharedfs"
        )
        self.mgr_nic = FairShareResource(
            self.queue, model.manager_nic, per_job_cap=model.worker_nic, name="mgr-nic"
        )
        self.workers = [
            _SimWorker(machine=m, slots=model.slots_per_worker) for m in fleet
        ]
        # DAG bookkeeping.
        self._dep_count: Dict[int, int] = {}
        self._dependents: Dict[int, List[int]] = collections.defaultdict(list)
        self._spec_by_id: Dict[int, InvocationSpec] = {}
        self.ready: Deque[InvocationSpec] = collections.deque()
        self._enqueued: set[int] = set()
        for spec in workload.invocations:
            self._spec_by_id[spec.uid] = spec
            self._dep_count[spec.uid] = spec.required_deps()
            for dep in spec.deps:
                self._dependents[dep].append(spec.uid)
            if self._dep_count[spec.uid] == 0:
                self.ready.append(spec)
                self._enqueued.add(spec.uid)
        self._mgr_busy = False
        self._mgr_busy_total = 0.0
        self._lib_uid = 0
        self._free_tokens: Deque[object] = collections.deque()
        if level is not ReuseLevel.L3:
            # At L1/L2 a dispatch token is simply a free worker slot;
            # round-robin across workers so load spreads like the hash ring.
            for slot in range(model.slots_per_worker):
                for worker in self.workers:
                    self._free_tokens.append(worker)
        self._completed_at = 0.0
        self._done = 0
        self._total = len(workload)
        self._env_holders = 0  # workers warm or warming (peer-transfer sources)
        self._rr_next = 0      # round-robin cursor for library placement
        self._waiting_started: Dict[int, float] = {}  # uid -> enqueue time
        # Incremental library accounting (Figures 10/11) — O(1) per event.
        self._active_libraries = 0
        self._active_served = 0
        # Live-telemetry emulation: the sim writes the same JSONL perflog
        # schema (make_sample) as the real manager, in *sim time*, so
        # ``python -m repro.obs report`` reads either.  Disabled (and
        # costless) unless perflog_path is given.
        self.perflog_path = perflog_path
        self.perflog_every = max(1e-6, perflog_every)
        self.perflog_samples: List[Dict[str, int]] = []
        self._perflog_next = 0.0
        self._inflight = 0
        self._dispatched = 0
        self._perflog_prev: tuple[float, int] = (0.0, 0)
        self._warm_workers = 0
        # context (function) -> {"warm": n, "cold": n}: warm means the
        # execution found its context resident (L2 warm worker, L3
        # already-serving library); L1 reloads everything, always cold.
        self._warm_cold: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------ run
    def run(self) -> RunResult:
        self._pump()
        # Generous cap: ~40 events per invocation plus library churn.
        self.queue.run(max_events=80 * self._total + 100_000)
        if self._done != self._total:
            raise SimulationError(
                f"simulation stalled: {self._done}/{self._total} completed"
            )
        if self.perflog_path is not None:
            self.perflog_samples.append(self._perflog_sample())  # end state
            write_perflog(self.perflog_path, self.perflog_samples)
        return RunResult(
            workload=self.workload.name,
            level=self.level.value,
            n_workers=len(self.workers),
            makespan=self._completed_at,
            trace=self.trace,
            manager_busy=self._mgr_busy_total,
            events=self.queue.events_processed,
        )

    # -------------------------------------------------------------- manager
    def _mgr_do(self, cost: float, then) -> None:
        """Occupy the serial manager for ``cost`` seconds, then run ``then``."""
        self._mgr_busy = True
        self._mgr_busy_total += cost

        def finish() -> None:
            self._mgr_busy = False
            then()
            self._pump()

        self.queue.schedule(cost, finish)

    def _pump(self) -> None:
        """Dispatch as much ready work as the manager and slots allow."""
        if self._mgr_busy or not self.ready:
            return
        token = self._pop_token()
        if token is None:
            if self.level is ReuseLevel.L3:
                self._maybe_deploy_library()
            return
        spec = self.ready.popleft()
        cost = self.model.mgr_dispatch[self.level]
        self._mgr_do(cost, lambda: self._send(spec, token))

    def _pop_token(self) -> Optional[object]:
        # Sticky/prewarm: prefer the *warmest* free library token (most
        # invocations served) rather than the most recently freed one, so
        # hot contexts absorb load and surplus cold libraries idle out.
        if self._arrivals is not None or self.policy == "sticky":
            best = None
            best_key: Optional[tuple] = None
            for i, token in enumerate(self._free_tokens):
                if not isinstance(token, _SimLibrary) or token.removed:
                    continue
                key = (token.served, i)
                if best_key is None or key > best_key:
                    best, best_key = i, key
            if best is not None:
                token = self._free_tokens[best]
                del self._free_tokens[best]
                return token
        # LIFO: reuse the most recently freed slot/library.  This mirrors
        # the manager "holding on to" a worker and filling its free slots
        # (§3.5.2), keeps hot contexts hot, and lets surplus libraries go
        # idle long enough for reclamation (the Figure 10 settle-down).
        while self._free_tokens:
            token = self._free_tokens.pop()
            if isinstance(token, _SimLibrary) and token.removed:
                continue
            return token
        return None

    def _send(self, spec: InvocationSpec, token: object) -> None:
        self._dispatched += 1
        self._inflight += 1
        if self._arrivals is not None:
            self._arrivals.record(spec.function, self.queue.now)
        if self.level is ReuseLevel.L3:
            assert isinstance(token, _SimLibrary)
            self._begin_invocation_l3(spec, token)
        else:
            assert isinstance(token, _SimWorker)
            self._begin_task(spec, token)

    # ------------------------------------------------------------ L1/L2 path
    def _begin_task(self, spec: InvocationSpec, worker: _SimWorker) -> None:
        # L2 is warm only once this worker's environment is resident;
        # L1 re-reads the context from the shared FS every time.
        self._note_warm_cold(
            spec.function,
            warm=self.level is ReuseLevel.L2 and worker.env_state == "warm",
        )
        start = self.queue.now + self.model.net_latency
        if self.level is ReuseLevel.L2 and worker.env_state != "warm":
            # First task(s) on a cold worker wait for the one-time context
            # fetch + unpack; their recorded runtime includes that wait —
            # this is the paper's L2-Cold case.
            if worker.env_state == "cold":
                self._start_env_fetch(worker)
            worker.waiting.append(spec)
            self._waiting_started[spec.uid] = start
            return
        self._run_task_body(spec, worker, start)

    def _start_env_fetch(self, worker: _SimWorker) -> None:
        """First task on a worker at L2: fetch the environment, then unpack."""
        worker.env_state = "warming"
        bytes_needed = self.model.env_tarball_bytes + self.model.data_bytes

        def after_fetch() -> None:
            unpack = self.sampler.fixed_time(
                self.model.unpack_time, worker.machine.speed_factor
            )
            self.queue.schedule(unpack, lambda: self._env_warm(worker))

        self._transfer(bytes_needed, after_fetch)
        self._env_holders += 1

    def _transfer(self, nbytes: float, on_done) -> None:
        """Context distribution: manager NIC fair-share, or peer spanning tree.

        Once at least ``peer_cap`` workers hold (or are fetching) the
        context, further fetches are served by peers at full line rate
        instead of sharing the manager's NIC — the Figure 3b regime.
        """
        if self.model.peer_transfer and self._env_holders >= self.model.peer_cap:
            duration = nbytes / self.model.worker_nic + self.model.net_latency
            self.queue.schedule(duration, on_done)
        else:
            self.mgr_nic.submit(nbytes, on_done)

    def _env_warm(self, worker: _SimWorker) -> None:
        worker.env_state = "warm"
        self._warm_workers += 1
        waiting, worker.waiting = worker.waiting, []
        for spec in waiting:
            started = self._waiting_started.pop(spec.uid, self.queue.now)
            self._run_task_body(spec, worker, started)

    def _base_exec(self, spec: InvocationSpec) -> float:
        if spec.exec_absolute is not None:
            return spec.exec_absolute
        return self.model.exec_base * spec.exec_units

    def _run_task_body(self, spec: InvocationSpec, worker: _SimWorker, started: float) -> None:
        """Worker-side service for L1/L2 after any environment warm-up."""
        speed = worker.machine.speed_factor
        exec_time = self.sampler.exec_time(
            self._base_exec(spec) + self.model.model_rebuild, speed
        )
        if self.level is ReuseLevel.L1:
            # Context comes from the shared filesystem on every execution.
            fs_work = self.model.l1_fs_bytes * self.sampler.fs_penalty()
            tail = self.sampler.fixed_time(self.model.deser_cold, speed) + exec_time

            def after_fs() -> None:
                self.queue.schedule(
                    tail, lambda: self._finish_task(spec, worker, started, exec_time)
                )

            self.sharedfs.submit(fs_work, after_fs)
        else:  # L2 warm path: local disk context, in-memory state rebuilt
            dur = (
                self.sampler.fixed_time(self.model.startup_local, speed)
                + self.sampler.fixed_time(self.model.deser_hot, speed)
                + exec_time
            )
            self.queue.schedule(
                dur, lambda: self._finish_task(spec, worker, started, exec_time)
            )

    def _finish_task(
        self, spec: InvocationSpec, worker: _SimWorker, started: float, exec_time: float
    ) -> None:
        runtime = self.queue.now - started
        self.trace.record_invocation(
            spec.function,
            runtime,
            {"exec": exec_time, "overhead": max(0.0, runtime - exec_time)},
        )
        self._free_tokens.append(worker)
        self._inflight -= 1
        self._complete(spec)

    # ------------------------------------------------------------------ L3 path
    def _maybe_deploy_library(self) -> None:
        """Deploy a new library when invocations are queued and capacity exists."""
        worker = self._pick_library_worker()
        if worker is None:
            return
        slots = min(self.model.library_slots, worker.library_capacity_left)
        lib = _SimLibrary(uid=self._lib_uid, worker=worker, slots=slots)
        self._lib_uid += 1
        worker.libraries.append(lib)
        worker.committed += slots
        self.trace.libraries_deployed_total += 1
        self._active_libraries += 1
        self._mgr_do(
            self.model.mgr_library_deploy, lambda: self._bring_up_library(lib)
        )

    def _pick_library_worker(self) -> Optional[_SimWorker]:
        n = len(self.workers)
        for i in range(n):
            worker = self.workers[(self._rr_next + i) % n]
            if worker.library_capacity_left >= 1:
                self._rr_next = (self._rr_next + i + 1) % n
                return worker
        return None

    def _bring_up_library(self, lib: _SimLibrary) -> None:
        worker = lib.worker
        speed = worker.machine.speed_factor

        def do_setup() -> None:
            setup = self.sampler.fixed_time(self.model.library_setup, speed)
            self.queue.schedule(setup, lambda: self._library_ready(lib))

        if worker.env_state == "warm":
            do_setup()
        elif worker.env_state == "warming":
            # Another library on this worker is already fetching the
            # environment; approximate by waiting one unpack period.
            delay = self.sampler.fixed_time(self.model.unpack_time, speed)
            self.queue.schedule(delay, do_setup)
        else:
            worker.env_state = "warming"
            self._env_holders += 1
            nbytes = self.model.env_tarball_bytes + self.model.data_bytes

            def after_fetch() -> None:
                unpack = self.sampler.fixed_time(self.model.unpack_time, speed)

                def after_unpack() -> None:
                    worker.env_state = "warm"
                    self._warm_workers += 1
                    do_setup()

                self.queue.schedule(unpack, after_unpack)

            self._transfer(nbytes, after_fetch)

    def _library_ready(self, lib: _SimLibrary) -> None:
        if lib.removed:
            return
        lib.ready = True
        lib.last_active = self.queue.now
        for _ in range(lib.slots):
            self._free_tokens.append(lib)
        self._pump()

    def _begin_invocation_l3(self, spec: InvocationSpec, lib: _SimLibrary) -> None:
        # Same rule as the real manager: cold only for the first
        # invocation landing on a fresh instance; once the library is
        # serving, its retained context makes every arrival warm.
        self._note_warm_cold(
            spec.function, warm=lib.served > 0 or lib.busy_slots > 0
        )
        lib.busy_slots += 1
        started = self.queue.now + self.model.net_latency
        speed = lib.worker.machine.speed_factor
        exec_time = self.sampler.exec_time(self._base_exec(spec), speed)
        dur = self.model.net_latency + self.model.invoc_overhead_l3 + exec_time
        self.queue.schedule(
            dur, lambda: self._finish_invocation_l3(spec, lib, started, exec_time)
        )

    def _finish_invocation_l3(
        self, spec: InvocationSpec, lib: _SimLibrary, started: float, exec_time: float
    ) -> None:
        runtime = self.queue.now - started
        lib.busy_slots -= 1
        lib.served += 1
        self._active_served += 1
        lib.last_active = self.queue.now
        self.trace.record_invocation(
            spec.function,
            runtime,
            {"exec": exec_time, "overhead": max(0.0, runtime - exec_time)},
        )
        self._free_tokens.append(lib)
        stamp = lib.last_active
        self.queue.schedule(
            self.model.library_idle_timeout, lambda: self._idle_check(lib, stamp)
        )
        self._inflight -= 1
        self._complete(spec)

    def _idle_check(self, lib: _SimLibrary, stamp: float) -> None:
        """Reclaim a library that served nothing since ``stamp`` (Fig 10)."""
        if lib.removed or not lib.idle or lib.last_active != stamp:
            return
        if self._done >= self._total:
            return  # run is over; keep the final state for the trace
        if self._arrivals is not None and self._forecasts_demand():
            # Prewarm keep-alive: demand is forecast within another idle
            # period, so defer reclamation and re-check.  A forecast that
            # never materialises goes stale (ArrivalHistory grace) and
            # the library is reclaimed on a later check.
            self.queue.schedule(
                self.model.library_idle_timeout,
                lambda: self._idle_check(lib, stamp),
            )
            return
        lib.removed = True
        lib.worker.committed -= lib.slots
        self.trace.libraries_removed_total += 1
        self._active_libraries -= 1
        self._active_served -= lib.served

    def _forecasts_demand(self) -> bool:
        """True when any function's next arrival is forecast within one
        idle period (sim libraries serve every function of the workload,
        so imminent demand for *any* function justifies keep-alive)."""
        assert self._arrivals is not None
        now = self.queue.now
        window = self.model.library_idle_timeout
        return any(
            self._arrivals.imminent(key, now, window)
            for key in self._arrivals.keys()
        )

    # ---------------------------------------------------------- live telemetry
    def _note_warm_cold(self, context: str, warm: bool) -> None:
        entry = self._warm_cold.get(context)
        if entry is None:
            entry = self._warm_cold[context] = {"warm": 0, "cold": 0}
        entry["warm" if warm else "cold"] += 1

    def _perflog_sample(self) -> Dict[str, object]:
        """One perflog sample in sim time, same schema as the real manager."""
        now = self.queue.now
        libraries = [
            lib
            for worker in self.workers
            for lib in worker.libraries
            if not lib.removed
        ]
        busy = sum(lib.busy_slots for lib in libraries) or self._inflight
        contexts: Dict[str, Dict[str, int]] = {
            fn: {
                "instances": 0,
                "ready": 0,
                "slots": 0,
                "used_slots": 0,
                "served": 0,
                "warm": counts["warm"],
                "cold": counts["cold"],
            }
            for fn, counts in self._warm_cold.items()
        }
        if libraries:
            # Sim libraries serve every function of the workload, so the
            # fleet-wide occupancy lives under one synthetic context
            # rather than being double-counted per function.
            contexts["<libraries>"] = {
                "instances": len(libraries),
                "ready": sum(1 for lib in libraries if lib.ready),
                "slots": sum(lib.slots for lib in libraries),
                "used_slots": sum(lib.busy_slots for lib in libraries),
                "served": self._active_served,
                "warm": 0,
                "cold": 0,
            }
        prev_now, prev_dispatched = self._perflog_prev
        rate = (
            (self._dispatched - prev_dispatched) / (now - prev_now)
            if now > prev_now
            else 0.0
        )
        self._perflog_prev = (now, self._dispatched)
        return make_sample(
            ts=now,
            uptime_s=now,
            tasks_waiting=len(self.ready),
            tasks_running=self._inflight,
            tasks_done=self._done,
            workers_connected=len(self.workers),
            libraries_active=self._active_libraries,
            cache_bytes=self._warm_workers
            * (self.model.env_tarball_bytes + self.model.data_bytes),
            busy_slots=busy,
            dispatch_rate=rate,
            queue_depths={"<ready>": len(self.ready)} if self.ready else {},
            contexts=contexts,
        )

    # ------------------------------------------------------------- completion
    def _active_library_stats(self) -> tuple[int, float]:
        active = self._active_libraries
        mean_share = self._active_served / active if active else 0.0
        return active, mean_share

    def _complete(self, spec: InvocationSpec) -> None:
        self._done += 1
        self._completed_at = self.queue.now
        if self.perflog_path is not None and self.queue.now >= self._perflog_next:
            self._perflog_next = self.queue.now + self.perflog_every
            self.perflog_samples.append(self._perflog_sample())
        if self.level is ReuseLevel.L3:
            active, mean_share = self._active_library_stats()
            self.trace.sample_libraries(active, mean_share)
        for dep_uid in self._dependents.get(spec.uid, ()):
            self._dep_count[dep_uid] -= 1
            if self._dep_count[dep_uid] <= 0 and dep_uid not in self._enqueued:
                self.ready.append(self._spec_by_id[dep_uid])
                self._enqueued.add(dep_uid)
        self._pump()
