"""The seven workloads of the ladder benchmark.

Each class drives the engine through its public API only, checks every
output, and fills a :class:`runner.Window`.  Why each exists, and which
layer it stresses, is recorded in ``README.md`` and ``BENCHMARK.json``;
the sizes below are those of ISSUE 13 scaled by one common factor to the
``--seconds`` window of the benchmark contract.

Host sizing: the load generator is this process (the ``Manager`` or
``Router`` event loop runs inside it, single thread); engine workloads
use 2 workers x ``cores=1`` with one two-slot library instance each.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Any, Dict, List, Sequence

from repro.discover.data import declare_data
from repro.engine import FunctionCall, LocalWorkerFactory, Manager, PythonTask, Router
from repro.engine.task import TaskState
from repro.errors import EngineError
from repro.sim import ReuseLevel, run_lnni

import openloop
import shipped
from runner import Spans, Window, cpu_snapshot, percentile

MIB = 1024 * 1024
WAVE_TIMEOUT_S = 120.0
# The latency limit of this system: p95 <= 5 ms from the due time.
LATENCY_LIMIT_MS = 5.0
# epoll timeouts are rounded up to a whole millisecond, so the pump asks
# for one less than the gap and lets the last one be a minimal wait.
_EPOLL_RESOLUTION_S = 0.001


def _succeeded(task, want: Any) -> bool:
    """Finished without error and with the wanted result.  ``want`` may
    be a predicate, for results too big to keep a second copy of."""
    if task.state is not TaskState.DONE or task.exception is not None:
        return False
    return want(task.result) if callable(want) else task.result == want


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


class Workload:
    """One workload instance: ``setup()``, ``measure()``, ``teardown()``."""

    name = ""

    def __init__(self, seed: int, spans: Spans, scratch: str, traced: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.spans = spans
        self.scratch = scratch
        self.traced = traced
        self.window = Window()

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        """Run the timed window, filling ``self.window``."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def set_program_tracing(self, on: bool) -> None:
        """The program's own switch, read by ``get_tracer()`` in every
        process it starts; only the traced half of the traced pass sets it."""
        if on and self.traced:
            os.environ["REPRO_TRACE"] = "1"
        else:
            os.environ.pop("REPRO_TRACE", None)

    def warm_up(self, engine, calls: List[Any], expect: Sequence[Any]) -> None:
        with self.spans.span("warm_up"):
            for call in calls:
                engine.submit(call)
            engine.wait_all(calls, timeout=WAVE_TIMEOUT_S)
        if not all(_succeeded(c, want) for c, want in zip(calls, expect)):
            raise EngineError(f"{self.name}: warm-up produced a wrong result")

    # -- shared closed-loop bulk waves -----------------------------------
    def run_waves(self, engine, build, seconds: float) -> None:
        """Waves of ``build() -> (tasks, expect)`` until ``seconds`` have
        passed; one throughput sample per wave."""
        window = self.window
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            tasks, expect = build()
            mark = self.open_sample()
            with self.spans.span("wave", op=f"wave-{len(window.rates)}"):
                wall = self.wave(engine, tasks, expect)
            window.rates.append(len(tasks) / wall)
            self.close_sample(mark)
        window.wall_s = time.perf_counter() - started

    def open_sample(self):
        return len(self.window.latencies_ms), cpu_snapshot()["total"]

    def close_sample(self, mark) -> None:
        """One wave's latency percentiles and CPU per good operation."""
        first, cpu_before = mark
        latencies = self.window.latencies_ms[first:]
        if latencies:
            self.window.wave_p50_ms.append(percentile(latencies, 50))
            self.window.wave_p95_ms.append(percentile(latencies, 95))
            self.window.wave_cpu_us.append(
                (cpu_snapshot()["total"] - cpu_before) / len(latencies) * 1e6
            )

    def wave(self, engine, tasks: List[Any], expect: Sequence[Any]) -> float:
        """Submit ``tasks`` at once, wait for all, verify each against
        ``expect``; returns the wave's wall seconds.  A task that failed,
        returned a wrong value or did not finish in time is a failure."""
        window = self.window
        window.attempted += len(tasks)
        started = time.perf_counter()
        with self.spans.span("submit"):
            for task in tasks:
                engine.submit(task)
        window.submit_s += time.perf_counter() - started
        with self.spans.span("wait_all"):
            try:
                engine.wait_all(tasks, timeout=WAVE_TIMEOUT_S)
            except EngineError:
                pass  # unfinished tasks fail verification below
        wall = time.perf_counter() - started
        with self.spans.span("verify"):
            for task, want in zip(tasks, expect):
                if _succeeded(task, want):
                    window.ok += 1
                    window.latencies_ms.append(
                        (task.timeline["completed"] - task.timeline["submitted"]) * 1e3
                    )
                    self.note_stages(task.timeline)
        return wall

    def note_stages(self, timeline: Dict[str, float]) -> None:
        window = self.window
        dispatched = timeline.get("dispatched")
        if dispatched is not None:
            window.queue_wait_s.append(dispatched - timeline["submitted"])
            window.inflight_s.append(timeline["completed"] - dispatched)

    def layer_from_trace(self, engine) -> Dict[str, float]:
        """Per-layer values only the program's own ``REPRO_TRACE`` events
        carry: the ``task_cost`` breakdown and the span volume."""
        if not self.traced:
            return {}
        events = engine.trace_events()
        costs = [e for e in events if e.etype == "task_cost"]
        keyed = [e for e in events if (e.trace_id or e.task_id) is not None]
        operations = {e.trace_id or e.task_id for e in keyed}
        per_inv = len(keyed) / len(operations) if operations else 0.0

        def median_us(component: str) -> float:
            values = [float(e.attrs.get(component, 0.0)) for e in costs]
            return statistics.median(values) * 1e6 if values else 0.0

        return {
            "library.execute_us": median_us("execute"),
            "library.deserialize_us": median_us("deserialization"),
            "router.hop_p50_ms": median_us("router_hop") / 1e3,
            "obs.spans_per_inv": per_inv,
            # The tracer's ring silently drops its oldest half when full.
            "obs.dropped_spans": max(0.0, self.window.ok * per_inv - len(keyed)),
        }


class EngineWorkload(Workload):
    """A workload on one ``Manager`` and local workers."""

    workers = 2
    cores = 1
    status_interval = 2.0

    def start_cluster(self) -> None:
        self.set_program_tracing(True)
        with self.spans.span("Manager"):
            self.manager = Manager(workdir=os.path.join(self.scratch, "manager"))
        self.factory = LocalWorkerFactory(
            self.manager,
            count=self.workers,
            cores=self.cores,
            workdir=os.path.join(self.scratch, "w"),
            name_prefix="w",
            status_interval=self.status_interval,
        )
        with self.spans.span("LocalWorkerFactory.start"):
            self.factory.start()

    def install(self, name: str, *functions, **kwargs) -> None:
        with self.spans.span("create_library_from_functions"):
            library = self.manager.create_library_from_functions(
                name, *functions, **kwargs
            )
        with self.spans.span("install_library"):
            self.manager.install_library(library)

    def warm_up(self, calls: List[Any], expect: Sequence[Any]) -> None:
        super().warm_up(self.manager, calls, expect)
        self.stats_base = self.read_stats()  # the window's counters start here

    def teardown(self) -> None:
        with self.spans.span("close"):
            try:
                self.factory.stop()
            finally:
                self.manager.close()
                self.set_program_tracing(False)

    # -- counters the program already exposes ------------------------------
    _STATS = (
        "dispatch_rounds", "queue_scan_len", "batched_invocations",
        "libraries_deployed", "libraries_evicted", "peer_transfers",
        "manager_sends", "transfer_seconds",
    )
    _COUNTERS = (
        "payload.bytes_copied", "payload.bytes_mapped", "payload.shm_evictions",
        "policy.warm_hits", "policy.cold_hits",
    )

    def read_stats(self) -> Dict[str, float]:
        values = {k: float(self.manager.stats.get(k, 0.0)) for k in self._STATS}
        for name in self._COUNTERS:
            values[name] = float(self.manager.metrics.counter(name).value)
        return values

    def read_layers(self) -> None:
        """Per-layer values from the program's counters (deltas over the
        window) and, in the traced half, from its trace events."""
        now = self.read_stats()
        d = {k: now[k] - self.stats_base[k] for k in now}
        n = max(self.window.ok, 1)
        rounds = d["dispatch_rounds"]
        layer = {
            "scheduling.dispatch_rounds_per_inv": rounds / n,
            "scheduling.scan_per_round": d["queue_scan_len"] / rounds if rounds else 0.0,
            "scheduling.batch_fraction": d["batched_invocations"] / n,
            "library.deploys": d["libraries_deployed"],
            "library.evictions": d["libraries_evicted"],
            "distribute.peer_transfers": d["peer_transfers"],
            "distribute.manager_sends": d["manager_sends"],
            "distribute.transfer_s": d["transfer_seconds"],
            "payloads.bytes_copied_per_inv": d["payload.bytes_copied"] / n,
            "payloads.bytes_mapped_per_inv": d["payload.bytes_mapped"] / n,
            "payloads.shm_evictions": d["payload.shm_evictions"],
            "policies.warm_hits": d["policy.warm_hits"],
            "policies.cold_hits": d["policy.cold_hits"],
            "manager.queue_wait_p50_ms": _median_ms(self.window.queue_wait_s),
            "manager.inflight_p50_ms": _median_ms(self.window.inflight_s),
        }
        layer.update(self.layer_from_trace(self.manager))
        self.window.layer.update(layer)


def _bulk_noop_calls(rng: random.Random, library: str, n: int):
    xs = [rng.randrange(1 << 30) for _ in range(n)]
    return [FunctionCall(library, "noop", x) for x in xs], xs


class WarmBulk(EngineWorkload):
    """Closed loop, one client, whole batch outstanding: waves of
    ``noop(x)`` invocations against one already-warm library."""

    name = "warm_bulk"
    wave_size = 4000

    def setup(self) -> None:
        self.start_cluster()
        self.install("bulk", shipped.noop, function_slots=2)
        self.warm_up(*_bulk_noop_calls(self.rng, "bulk", 64))

    def measure(self, seconds: float) -> None:
        self.run_waves(
            self.manager,
            lambda: _bulk_noop_calls(self.rng, "bulk", self.wave_size),
            seconds,
        )
        self.read_layers()


class OpenPoisson(WarmBulk):
    """Open loop: Poisson arrivals from a seeded schedule at two fixed
    rates on the same warm library, latency from the intended send time."""

    name = "open_poisson"
    rates = (500, 2000)
    # At 2000/s (about half the closed-loop capacity of this host) one
    # backlog episode decides the run's p95, so the uncontended rate is
    # the end-to-end latency and the loaded one is reported per layer.
    end_to_end_rate = 500

    def measure(self, seconds: float) -> None:
        window = self.window
        started = time.perf_counter()
        for rate in self.rates:
            with self.spans.span(f"r{rate}", op=f"r{rate}"):
                latencies = self._run_rate(rate, seconds / len(self.rates))
            if rate == self.end_to_end_rate:
                window.latencies_ms = latencies
        window.wall_s = time.perf_counter() - started
        window.rates.append(window.ok / window.wall_s)
        self.read_layers()

    def _run_rate(self, rate: int, duration: float) -> List[float]:
        window, manager = self.window, self.manager
        schedule = openloop.poisson_schedule(self.rng, rate, duration)
        calls, xs = _bulk_noop_calls(self.rng, "bulk", len(schedule))
        index_of = {call.id: i for i, call in enumerate(calls)}
        window.attempted += len(calls)

        def pump(gap: float):
            done = []
            task = manager.wait(timeout=max(gap - _EPOLL_RESOLUTION_S, 1e-4))
            while task is not None:
                done.append((index_of[task.id], task.timeline["completed"]))
                task = manager.wait(timeout=0)  # only pops what already completed
            return done

        with self.spans.span("open_loop"):
            result = openloop.run_open_loop(
                schedule, lambda i: manager.submit(calls[i]), pump
            )
        with self.spans.span("verify"):
            latencies = []
            due_second: Dict[int, List[float]] = {}
            for i, (call, want) in enumerate(zip(calls, xs)):
                if i in result.latency_s and _succeeded(call, want):
                    window.ok += 1
                    latencies.append(result.latency_s[i] * 1e3)
                    due_second.setdefault(int(schedule[i]), []).append(latencies[-1])
                    self.note_stages(call.timeline)
        if rate == self.end_to_end_rate:
            # One sample per second of schedule, like a wave of a closed loop.
            for second in sorted(due_second):
                window.wave_p50_ms.append(percentile(due_second[second], 50))
                window.wave_p95_ms.append(percentile(due_second[second], 95))
        # A failed call counts as missing any limit.
        over = len(calls) - len(latencies) + sum(
            1 for value in latencies if value > LATENCY_LIMIT_MS
        )
        tag = f"r{rate}"
        window.layer.update(
            {
                f"latency_p50_ms.{tag}": percentile(latencies, 50),
                f"latency_p95_ms.{tag}": percentile(latencies, 95),
                f"manager.latency_p99_ms.{tag}": percentile(latencies, 99),
                f"manager.over_limit_fraction.{tag}": over / len(calls),
            }
        )
        lag_p99 = percentile(result.lag_s, 99) * 1e3
        window.layer["manager.generator_lag_p99_ms"] = max(
            window.layer.get("manager.generator_lag_p99_ms", 0.0), lag_p99
        )
        return latencies


class ContextChurn(EngineWorkload):
    """Closed loop, one outstanding: a fixed Zipf(1.2) walk over six
    libraries, each with a 1 MiB data binding and a set-up function, on
    workers that hold four of them at a time."""

    name = "context_churn"
    # Workers join one at a time (the second in start_cluster): the
    # placement table, and with it the eviction order, follows
    # connection order.
    workers = 1
    cores = 2
    libraries = 6
    steps_per_second = 15
    # The walk is drawn once from this constant, not from --seed: with
    # four instances for six libraries the number of cold starts swings
    # 2x with the library labels alone under the current eviction order,
    # so a per-seed walk would make every deploy-driven metric a function
    # of the seed instead of the code.  --seed draws the table contents
    # and the looked-up indices.
    walk_seed = 20240613

    def start_cluster(self) -> None:
        super().start_cluster()
        self.second = LocalWorkerFactory(
            self.manager, count=1, cores=self.cores,
            workdir=os.path.join(self.scratch, "v"), name_prefix="v",
        )
        with self.spans.span("LocalWorkerFactory.start"):
            self.second.start()

    def setup(self) -> None:
        self.start_cluster()
        self.tables = [self.rng.randbytes(MIB) for _ in range(self.libraries)]
        for i, table in enumerate(self.tables):
            self.install(
                f"churn-{i}", shipped.lookup, context=shipped.load_table,
                data=[declare_data(table, remote_name="table.bin")],
            )
        self.warm_up([FunctionCall("churn-0", "lookup", 0)], [self.tables[0][0]])

    def measure(self, seconds: float) -> None:
        window, manager = self.window, self.manager
        weights = [1.0 / (rank + 1) ** 1.2 for rank in range(self.libraries)]
        walk = random.Random(self.walk_seed).choices(
            range(self.libraries), weights, k=int(seconds * self.steps_per_second)
        )
        warm, cold = [], []
        started = time.perf_counter()
        for step, lib in enumerate(walk):
            index = self.rng.randrange(MIB)
            call = FunctionCall(f"churn-{lib}", "lookup", index)
            deployed, ok = manager.stats.get("libraries_deployed", 0.0), window.ok
            with self.spans.span("step", op=f"step-{step}"):
                self.wave(manager, [call], [self.tables[lib][index]])
            if window.ok > ok:
                caused_deploy = manager.stats.get("libraries_deployed", 0.0) > deployed
                (cold if caused_deploy else warm).append(window.latencies_ms[-1])
        window.wall_s = time.perf_counter() - started
        window.rates.append(window.ok / window.wall_s)
        self.read_layers()
        window.layer.update(
            {
                "warm_latency_p50_ms": percentile(warm, 50) if warm else 0.0,
                "cold_start_p50_ms": percentile(cold, 50) if cold else 0.0,
                "library.cold_start_p90_ms": percentile(cold, 90) if cold else 0.0,
                "warm_hit_ratio": 1.0 - window.layer["library.deploys"] / len(walk),
            }
        )

    def teardown(self) -> None:
        try:
            self.second.stop()
        finally:
            super().teardown()


class PayloadRW(EngineWorkload):
    """Closed loop, bulk per phase, three phases per wave on one warm
    library: 1 MiB arguments in, 1 MiB results out, and reads of one
    declared 1 MiB argument (ratio 1 : 1 : 10)."""

    name = "payload_rw"
    big_calls = 50
    shared_calls = 500

    def setup(self) -> None:
        self.start_cluster()
        self.install(
            "payload", shipped.arg_len, shipped.make_blob, shipped.byte_at,
            function_slots=2,
        )
        self.base = self.rng.randbytes(MIB)
        with self.spans.span("declare_argument"):
            self.shared = self.manager.declare_argument(self.base)
        # One touch per slot maps the declared segment in every library.
        calls = [FunctionCall("payload", "byte_at", self.shared, i) for i in range(64)]
        self.warm_up(calls, [self.base[i] for i in range(64)])

    def _args_in(self):
        blobs = []
        for _ in range(self.big_calls):
            size = MIB - self.rng.randrange(4096)
            blobs.append(self.rng.randbytes(8) + self.base[8:size])
        calls = [FunctionCall("payload", "arg_len", blob) for blob in blobs]
        return calls, [len(blob) for blob in blobs], sum(map(len, blobs)) / 1e6

    def _results_out(self):
        shapes = [
            (MIB - self.rng.randrange(4096), self.rng.randrange(256))
            for _ in range(self.big_calls)
        ]
        calls = [FunctionCall("payload", "make_blob", size, fill) for size, fill in shapes]
        # Length and first byte: a full expected copy would double the memory.
        checks = [
            (lambda blob, size=size, fill=fill: len(blob) == size and blob[0] == fill)
            for size, fill in shapes
        ]
        return calls, checks, sum(size for size, _ in shapes) / 1e6

    def _shared_arg(self):
        indices = [self.rng.randrange(MIB) for _ in range(self.shared_calls)]
        calls = [FunctionCall("payload", "byte_at", self.shared, i) for i in indices]
        return calls, [self.base[i] for i in indices], len(calls)

    def measure(self, seconds: float) -> None:
        """Each phase builds ``(calls, expect, units)``; its rate is
        units (MB or invocations) per second of the phase."""
        window = self.window
        phases = (
            ("args_in_mb_per_s", self._args_in),
            ("results_out_mb_per_s", self._results_out),
            ("shared_arg_per_s", self._shared_arg),
        )
        phase_rates: Dict[str, List[float]] = {metric: [] for metric, _ in phases}
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            mark = self.open_sample()
            wave_started, wave_ops = time.perf_counter(), 0
            for metric, build in phases:
                calls, expect, units = build()
                with self.spans.span(metric, op=f"wave-{len(window.rates)}"):
                    wall = self.wave(self.manager, calls, expect)
                phase_rates[metric].append(units / wall)
                wave_ops += len(calls)
            window.rates.append(wave_ops / (time.perf_counter() - wave_started))
            self.close_sample(mark)
        window.wall_s = time.perf_counter() - started
        self.read_layers()
        for metric, rates in phase_rates.items():
            window.layer[metric] = statistics.median(rates)

    def teardown(self) -> None:
        try:
            with self.spans.span("release_argument"):
                self.manager.release_argument(self.shared)
        finally:
            super().teardown()


class TaskMode(EngineWorkload):
    """Closed loop, bulk: ``PythonTask(add, i, i)``, each with one cached
    1 MiB input file — a fresh interpreter and sandbox per task."""

    name = "task_mode"
    wave_size = 8
    status_interval = 0.5

    def _tasks(self, n: int):
        values = [self.rng.randrange(1 << 30) for _ in range(n)]
        tasks = []
        for value in values:
            task = PythonTask(shipped.add, value, value)
            task.add_input(self.input_file)
            tasks.append(task)
        return tasks, [2 * value for value in values]

    def setup(self) -> None:
        self.start_cluster()
        with self.spans.span("declare_buffer"):
            self.input_file = self.manager.declare_buffer(
                self.rng.randbytes(MIB), "input.bin", cache=True
            )
        # One task per worker, so the measured tasks find the file cached.
        self.warm_up(*self._tasks(self.workers))

    def _cache_counts(self) -> Dict[str, float]:
        """Cache hits and misses since the workers started (warm-up
        included), summed over their status reports after waiting for
        one fresh report from each."""
        deadline = time.monotonic() + 1.5 * self.status_interval
        while time.monotonic() < deadline:
            self.manager.wait(timeout=self.status_interval / 2)
        totals = {"hits": 0.0, "misses": 0.0}
        for status in self.manager.worker_status().values():
            for key in totals:
                totals[key] += float(status.get("cache", {}).get(key, 0))
        return totals

    def measure(self, seconds: float) -> None:
        self.run_waves(self.manager, lambda: self._tasks(self.wave_size), seconds)
        self.read_layers()
        cache = self._cache_counts()
        self.window.layer.update(
            {
                "worker.task_overhead_ms": _median_ms(self.window.inflight_s),
                "worker.cache_hits": cache["hits"],
                "worker.cache_misses": cache["misses"],
            }
        )


class RouterBulk(Workload):
    """Closed loop, bulk: a 2-shard ``Router``, two libraries homed on
    different shards, ``noop`` invocations alternating between them."""

    name = "router_bulk"
    wave_size = 4000
    # Names a two-shard HashRing(replicas=64) homes on different shards.
    libraries = ("shardbench-0", "shardbench-3")

    def _calls(self, n: int):
        xs = [self.rng.randrange(1 << 30) for _ in range(n)]
        calls = [
            FunctionCall(self.libraries[i % 2], "noop", x) for i, x in enumerate(xs)
        ]
        return calls, xs

    def setup(self) -> None:
        self.set_program_tracing(True)
        with self.spans.span("Router"):
            self.router = Router(
                shards=2, workers_per_shard=1, worker_cores=1,
                workdir=os.path.join(self.scratch, "r"),
            )
        for name in self.libraries:
            with self.spans.span("create_library_from_functions"):
                library = self.router.create_library_from_functions(
                    name, shipped.noop, function_slots=2
                )
            with self.spans.span("install_library"):
                self.router.install_library(library)
        self.warm_up(self.router, *self._calls(64))

    def measure(self, seconds: float) -> None:
        window = self.window
        self.run_waves(self.router, lambda: self._calls(self.wave_size), seconds)
        window.layer["router.submit_us"] = window.submit_s / window.attempted * 1e6
        window.layer.update(self.layer_from_trace(self.router))

    def teardown(self) -> None:
        with self.spans.span("close"):
            try:
                self.router.close()
            finally:
                self.set_program_tracing(False)


class SimLnni(Workload):
    """Single process, no engine: ``run_lnni`` LNNI-100k on 150 workers
    at L1, L2 and L3, whole triples until the window closes."""

    name = "sim_lnni"
    invocations = 100_000
    # EXPERIMENTS.md: simulator seed 0 gives 7621 / 3376 / 401 s.
    makespans = {"L1": 7620.7, "L2": 3375.8, "L3": 400.9}

    def setup(self) -> None:
        # Lets every lazy import and table build finish before timing.
        with self.spans.span("run_lnni.warm_up"):
            for level in ReuseLevel:
                run_lnni(level, n_invocations=1000)

    def measure(self, seconds: float) -> None:
        window = self.window
        walls: Dict[str, List[float]] = {level.name: [] for level in ReuseLevel}
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            triple_started = time.perf_counter()
            # --seed only decides the order of the levels: the makespans
            # are an exact-repeat oracle tied to simulator seed 0.
            for level in self.rng.sample(list(ReuseLevel), k=len(ReuseLevel)):
                window.attempted += self.invocations
                run_started = time.perf_counter()
                with self.spans.span(f"run_lnni.{level.name}"):
                    result = run_lnni(level, n_invocations=self.invocations, seed=0)
                wall = time.perf_counter() - run_started
                walls[level.name].append(wall)
                window.layer[f"sim.makespan_s.{level.name}"] = result.makespan
                if round(result.makespan, 1) == self.makespans[level.name]:
                    window.ok += self.invocations
                    window.latencies_ms.append(wall * 1e3)
            window.rates.append(
                len(ReuseLevel) * self.invocations
                / (time.perf_counter() - triple_started)
            )
        window.wall_s = time.perf_counter() - started
        for name, samples in walls.items():
            window.layer[f"sim.wall_s.{name}"] = statistics.median(samples)
        window.layer["sim.us_per_invocation"] = 1e6 / statistics.median(window.rates)

    def teardown(self) -> None:
        pass


WORKLOADS = {
    cls.name: cls
    for cls in (WarmBulk, OpenPoisson, ContextChurn, PayloadRW, TaskMode,
                RouterBulk, SimLnni)
}
