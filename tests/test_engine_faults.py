"""Fault tolerance, cancellation, eviction policy, and status reporting.

Exercises the failure-handling promises of the engine layer: "task
execution, result retrieval, worker acquisition and release, fault
tolerance" (§3.1), plus the empty-library eviction of §3.5.2 and the
liveness/retry/timeout layer (DESIGN.md "Failure semantics"): heartbeat
deadlines catching SIGSTOP'd workers, bounded retries with blame sets,
wall-clock invocation timeouts, and the deterministic fault-injection
harness in :mod:`repro.engine.faults`.
"""

import os
import signal
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    FaultInjector,
    FunctionCall,
    LocalWorkerFactory,
    Manager,
    PythonTask,
    TaskState,
)
from repro.engine.messages import Connection
from repro.engine.task import ExecMode
from repro.errors import TaskFailure, TaskRetryExhausted, TaskTimeout


def slow_task(seconds):
    import time as _time

    _time.sleep(seconds)
    return seconds


def quick(x):
    return x + 1


def lib_fn_a(x):
    return ("a", x)


def lib_fn_b(x):
    return ("b", x)


# ----------------------------------------------------------- worker failure
def test_worker_loss_requeues_and_recovers():
    """Kill the only worker mid-task; a replacement worker picks the task up."""
    with Manager() as manager:
        factory = LocalWorkerFactory(manager, count=1, cores=2, name_prefix="doomed")
        factory.start()
        task = PythonTask(slow_task, 8)
        manager.submit(task)
        # Let it dispatch, then murder the worker process.
        deadline = time.monotonic() + 30
        while task.state is not TaskState.DISPATCHED and time.monotonic() < deadline:
            manager.wait(timeout=0.1)
        assert task.state is TaskState.DISPATCHED
        factory.procs[0].kill()
        # Drive the loop until the loss is noticed and the task requeued.
        deadline = time.monotonic() + 30
        while task.state is TaskState.DISPATCHED and time.monotonic() < deadline:
            manager.wait(timeout=0.2)
        assert task.state is TaskState.SUBMITTED
        assert manager.stats["requeued"] == 1
        factory.stop()
        # A fresh worker completes the requeued task (shortened by patching
        # the argument is impossible — so submit a quick task to verify the
        # replacement pool is functional, then wait out the original).
        replacement = LocalWorkerFactory(manager, count=1, cores=2, name_prefix="fresh")
        replacement.start()
        try:
            probe = PythonTask(quick, 1)
            manager.submit(probe)
            manager.wait_all([probe], timeout=60)
            assert probe.result == 2
            manager.wait_all([task], timeout=120)
            assert task.result == 8
        finally:
            replacement.stop()


# ------------------------------------------------------------- cancellation
def test_cancel_queued_task():
    with Manager() as manager:  # no workers: tasks stay queued
        task = PythonTask(quick, 1)
        manager.submit(task)
        assert manager.cancel(task)
        assert task.state is TaskState.FAILED
        with pytest.raises(TaskFailure, match="cancelled"):
            _ = task.result
        done = manager.wait(timeout=0.2)
        assert done is task


def test_cancel_running_task():
    with Manager() as manager, LocalWorkerFactory(manager, count=1, cores=2):
        task = PythonTask(slow_task, 30)
        manager.submit(task)
        deadline = time.monotonic() + 30
        while task.state is not TaskState.DISPATCHED and time.monotonic() < deadline:
            manager.wait(timeout=0.1)
        assert manager.cancel(task)
        manager.wait_all([task], timeout=60)
        with pytest.raises(TaskFailure, match="cancelled"):
            _ = task.result


def test_cancel_dispatched_invocation_refused():
    def ticker(n):
        import time as _time

        _time.sleep(n)
        return n

    with Manager() as manager:
        library = manager.create_library_from_functions("tick", ticker)
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2):
            call = FunctionCall("tick", "ticker", 3)
            manager.submit(call)
            deadline = time.monotonic() + 30
            while call.state is not TaskState.DISPATCHED and time.monotonic() < deadline:
                manager.wait(timeout=0.1)
            assert not manager.cancel(call)  # direct-mode: not interruptible
            manager.wait_all([call], timeout=60)
            assert call.result == 3


# -------------------------------------------------------------- eviction flag
def test_eviction_enables_second_library():
    """On a 1-core worker, library B can only run after idle library A is
    reclaimed — the §3.5.2 empty-library mechanism."""
    with Manager() as manager:
        for name, fn in (("liba", lib_fn_a), ("libb", lib_fn_b)):
            manager.install_library(manager.create_library_from_functions(name, fn))
        with LocalWorkerFactory(manager, count=1, cores=1):
            first = FunctionCall("liba", "lib_fn_a", 1)
            manager.submit(first)
            manager.wait_all([first], timeout=120)
            assert first.result == ("a", 1)
            second = FunctionCall("libb", "lib_fn_b", 2)
            manager.submit(second)
            manager.wait_all([second], timeout=120)
            assert second.result == ("b", 2)
            assert manager.stats["libraries_evicted"] >= 1


def test_eviction_disabled_starves_second_library():
    with Manager(enable_library_eviction=False) as manager:
        for name, fn in (("liba", lib_fn_a), ("libb", lib_fn_b)):
            manager.install_library(manager.create_library_from_functions(name, fn))
        with LocalWorkerFactory(manager, count=1, cores=1):
            first = FunctionCall("liba", "lib_fn_a", 1)
            manager.submit(first)
            manager.wait_all([first], timeout=120)
            second = FunctionCall("libb", "lib_fn_b", 2)
            manager.submit(second)
            assert manager.wait(timeout=3.0) is None  # starved: A holds the core
            assert second.state is TaskState.SUBMITTED
            assert manager.stats.get("libraries_evicted", 0) == 0


# ------------------------------------------------------------ peer transfers
def peered_setup():
    global blob_len
    with open("big.bin", "rb") as fh:
        blob_len = len(fh.read())


def peered_fn(pause):
    import time as _time

    _time.sleep(pause)
    return blob_len  # noqa: F821


def test_context_reaches_second_worker_via_peer_transfer():
    """With a worker already holding the context files, a later worker
    fetches them from its peer instead of the manager (Figure 3b)."""
    from repro.discover.data import declare_data

    payload = bytes(200_000)
    with Manager() as manager:
        binding = declare_data(payload, remote_name="big.bin")
        library = manager.create_library_from_functions(
            "peered", peered_fn, context=peered_setup, data=[binding]
        )
        manager.install_library(library)
        first_factory = LocalWorkerFactory(manager, count=1, cores=1, name_prefix="first")
        first_factory.start()
        try:
            warm = FunctionCall("peered", "peered_fn", 0)
            manager.submit(warm)
            manager.wait_all([warm], timeout=120)
            assert warm.result == len(payload)
            # Drain pending cache_update confirmations.
            deadline = time.monotonic() + 10
            link = manager._workers["first-0"]
            while binding.content_hash not in link.cached and time.monotonic() < deadline:
                manager.wait(timeout=0.1)
            assert binding.content_hash in link.cached
            # Second worker joins; two concurrent invocations force a second
            # library instance onto it, whose files must come from the peer.
            second_factory = LocalWorkerFactory(
                manager, count=1, cores=1, name_prefix="second"
            )
            second_factory.start()
            try:
                calls = [FunctionCall("peered", "peered_fn", 2) for _ in range(2)]
                for c in calls:
                    manager.submit(c)
                manager.wait_all(calls, timeout=120)
                assert all(c.result == len(payload) for c in calls)
                assert {c.worker for c in calls} == {"first-0", "second-0"}
                assert manager.stats["peer_transfers"] >= 1
            finally:
                second_factory.stop()
        finally:
            first_factory.stop()


# ------------------------------------------------------------- status reports
def test_worker_status_reports_arrive():
    with Manager() as manager, LocalWorkerFactory(manager, count=1, cores=2):
        task = PythonTask(quick, 5)
        f = manager.declare_buffer(b"x" * 1000, "blob.bin")
        task.add_input(f)
        manager.submit(task)
        manager.wait_all([task], timeout=60)
        deadline = time.monotonic() + 10
        status = {}
        while time.monotonic() < deadline:
            manager.wait(timeout=0.3)
            status = manager.worker_status().get("worker-0", {})
            if status:
                break
        assert status, "no status report arrived"
        assert status["cache"]["entries"] >= 1
        assert "running_tasks" in status and "libraries" in status


# ===================================================== liveness & retries
def chaos_fn(x):
    import time as _time

    _time.sleep(0.15)
    return x * 2


def sleepy_fn(seconds):
    import time as _time

    _time.sleep(seconds)
    return seconds


def crash_fn(x):
    import os as _os

    _os._exit(3)


def poison(x):
    # Kill the hosting worker (our parent) — the poison-task scenario:
    # every worker this runs on dies, so only a bounded retry budget
    # keeps the manager from requeueing it forever.
    import os as _os
    import signal as _signal

    _os.kill(_os.getppid(), _signal.SIGKILL)
    return x


def test_sigstop_worker_detected_by_liveness_deadline():
    """The acceptance demo: one of 4 workers is SIGSTOP'd mid-run.  Its
    socket stays healthy, so only the heartbeat deadline can catch it;
    the workload must still complete with bounded requeues."""
    with Manager(liveness_deadline=1.5, retry_backoff=0.05) as manager:
        library = manager.create_library_from_functions("chaoslib", chaos_fn)
        manager.install_library(library)
        factory = LocalWorkerFactory(
            manager, count=4, cores=1, name_prefix="chaos", status_interval=0.2
        )
        factory.start()
        injector = FaultInjector(manager, factory)
        try:
            calls = [FunctionCall("chaoslib", "chaos_fn", i) for i in range(24)]
            for c in calls:
                manager.submit(c)
            # Stall only once the victim actually holds in-flight work, so
            # the run must cross the liveness path to finish.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not any(
                c.worker == "chaos-0" and c.state is TaskState.DISPATCHED
                for c in calls
            ):
                manager.wait(timeout=0.05)
            injector.stall_worker(0)
            injector.drive(calls, timeout=90.0)
            assert all(c.successful for c in calls)
            assert [c.result for c in calls] == [2 * i for i in range(24)]
            assert manager.stats["workers_lost"] == 1
            assert manager.stats["liveness_expirations"] == 1
            # Bounded requeues: at least the stalled worker's in-flight
            # invocation, at most the global retry budget.
            assert 1 <= manager.stats["requeued"] <= manager.max_retries * len(calls)
            # No task was reported both completed and failed.
            assert manager.stats["completed"] == len(calls)
            assert manager.stats["failed"] == 0
        finally:
            injector.resume_worker(0)
            factory.stop()


def test_peer_stalled_mid_frame_delays_nobody_and_expires_by_liveness():
    """Regression: a peer that announced a 200-byte frame, sent 12 bytes
    of it and went silent froze the whole manager in a 10 s blocking
    receive — every healthy worker's traffic waited behind it — and was
    then dropped by that receive timeout instead of the liveness
    deadline.  Reads are incremental now: the partial frame just sits in
    its buffer, and silence is the liveness sweep's business."""
    with Manager(liveness_deadline=1.5) as manager:
        manager.install_library(
            manager.create_library_from_functions("hol", quick, function_slots=2)
        )
        with LocalWorkerFactory(manager, count=1, cores=2, status_interval=0.2):
            (healthy,) = manager.connected_workers()
            warm_up = FunctionCall("hol", "quick", 0)
            manager.submit(warm_up)
            manager.wait_all([warm_up], timeout=60.0)
            sock = socket.create_connection(("127.0.0.1", manager.port))
            try:
                peer = Connection(sock, "stalled")
                peer.send(
                    {
                        "type": "register",
                        "worker": "stalled",
                        "resources": {"cores": 0, "memory": 0, "disk": 0},
                    }
                )
                manager.wait_for_workers(2, timeout=10.0)
                assert peer.receive(timeout=5.0)[0]["type"] == "welcome"
                sock.sendall((200).to_bytes(4, "big") + b'{"type":"sta')
                call = FunctionCall("hol", "quick", 1)
                started = time.monotonic()
                manager.submit(call)
                manager.wait_all([call], timeout=30.0)
                assert call.result == 2
                assert time.monotonic() - started < 1.0
                assert "stalled" in manager.connected_workers()
                deadline = time.monotonic() + 10.0
                while (
                    "stalled" in manager.connected_workers()
                    and time.monotonic() < deadline
                ):
                    manager.wait(timeout=0.05)
                assert manager.connected_workers() == [healthy]
                assert manager.stats["liveness_expirations"] == 1
            finally:
                sock.close()


def test_worker_killed_mid_invocation_batch_requeues_to_survivor():
    """SIGKILL a worker right after a coalesced invocation_batch lands on
    it; every invocation must finish exactly once on the survivor."""
    with Manager(retry_backoff=0.05) as manager:
        library = manager.create_library_from_functions(
            "batchlib", chaos_fn, function_slots=4
        )
        manager.install_library(library)
        factory = LocalWorkerFactory(
            manager, count=2, cores=4, name_prefix="batch"
        )
        factory.start()
        injector = FaultInjector(manager, factory)
        try:
            calls = [FunctionCall("batchlib", "chaos_fn", i) for i in range(40)]
            for c in calls:
                manager.submit(c)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not any(
                c.worker == "batch-0" and c.state is TaskState.DISPATCHED
                for c in calls
            ):
                manager.wait(timeout=0.05)
            assert manager.stats["batched_invocations"] > 0
            injector.kill_worker(0)
            injector.drive(calls, timeout=90.0)
            assert all(c.successful for c in calls)
            assert manager.stats["workers_lost"] == 1
            assert 1 <= manager.stats["requeued"] <= manager.max_retries * len(calls)
            assert manager.stats["completed"] == len(calls)
        finally:
            factory.stop()


def test_disconnected_worker_work_recovers_on_peer():
    """Severing the manager-side socket (a 'network partition') requeues
    the stranded work onto the surviving worker."""
    with Manager(retry_backoff=0.05) as manager:
        library = manager.create_library_from_functions("dclib", chaos_fn)
        manager.install_library(library)
        factory = LocalWorkerFactory(manager, count=2, cores=1, name_prefix="dc")
        factory.start()
        injector = FaultInjector(manager, factory)
        try:
            calls = [FunctionCall("dclib", "chaos_fn", i) for i in range(10)]
            for c in calls:
                manager.submit(c)
            injector.at(0.3, "disconnect", "dc-0")
            injector.drive(calls, timeout=60.0)
            assert all(c.successful for c in calls)
            assert manager.stats["workers_lost"] == 1
        finally:
            factory.stop()


def test_poison_task_fails_with_retry_exhausted():
    """Regression for unbounded _requeue: a task that kills every worker
    it lands on must fail with TaskRetryExhausted after exactly
    ``max_retries`` requeues (= max_retries + 1 executions), carrying
    the full blame history."""
    with Manager(max_retries=2, retry_backoff=0.05) as manager:
        task = PythonTask(poison, 0)
        manager.submit(task)
        for generation in range(manager.max_retries + 1):
            factory = LocalWorkerFactory(
                manager, count=1, cores=1, name_prefix=f"gen{generation}"
            )
            factory.start()
            deadline = time.monotonic() + 30
            while (
                manager.stats["workers_lost"] <= generation
                and time.monotonic() < deadline
            ):
                manager.wait(timeout=0.1)
            factory.stop()
        assert manager.stats["workers_lost"] == manager.max_retries + 1
        assert manager.stats["requeued"] == manager.max_retries  # exactly, not more
        assert manager.stats["retry_exhausted"] == 1
        assert task.state is TaskState.FAILED
        with pytest.raises(TaskRetryExhausted) as excinfo:
            _ = task.result
        assert excinfo.value.losses == ["gen0-0", "gen1-0", "gen2-0"]
        assert excinfo.value.retries == manager.max_retries + 1


# ======================================================= wall-clock timeouts
def test_direct_invocation_timeout_kills_instance_not_queue():
    """A direct-mode overrun kills the library instance; the failure is a
    TaskTimeout and the library's queue is NOT poisoned — later calls
    redeploy and complete."""
    with Manager() as manager:
        library = manager.create_library_from_functions("timelib", sleepy_fn)
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=1):
            hung = FunctionCall("timelib", "sleepy_fn", 30)
            hung.set_timeout(0.6)
            manager.submit(hung)
            manager.wait_all([hung], timeout=30)
            with pytest.raises(TaskTimeout):
                _ = hung.result
            assert manager.stats["timeouts"] == 1
            retry = FunctionCall("timelib", "sleepy_fn", 0.05)
            manager.submit(retry)
            manager.wait_all([retry], timeout=60)
            assert retry.result == 0.05
            assert manager.stats["libraries_deployed"] == 2  # fresh instance


def test_timeout_kill_requeues_innocent_sibling():
    """When a timeout kill shoots a 2-slot instance, the sibling
    invocation staged behind the victim is requeued (no blame — the
    worker is healthy) and completes on the redeployed instance."""
    with Manager(retry_backoff=0.05) as manager:
        library = manager.create_library_from_functions(
            "siblib", sleepy_fn, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=1):
            hung = FunctionCall("siblib", "sleepy_fn", 30)
            hung.set_timeout(0.6)
            sibling = FunctionCall("siblib", "sleepy_fn", 0.05)
            manager.submit(hung)
            manager.submit(sibling)
            manager.wait_all([hung, sibling], timeout=60)
            with pytest.raises(TaskTimeout):
                _ = hung.result
            assert sibling.result == 0.05
            # Exactly one requeue for the kill itself; at most one more if
            # the sibling was redispatched into the window before the
            # manager processed the instance's library_failed frame.
            assert 1 <= sibling.retries <= 2
            assert sibling.workers_lost_on == []  # innocent: no blame
            assert 1 <= manager.stats["requeued"] <= 2


def test_fork_invocation_timeout_spares_the_library():
    """Fork-mode overruns are killed library-side: only the child dies,
    the retained context survives and keeps serving."""
    with Manager() as manager:
        library = manager.create_library_from_functions(
            "forklib", sleepy_fn, function_slots=2, exec_mode=ExecMode.FORK
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=1):
            hung = FunctionCall("forklib", "sleepy_fn", 30)
            hung.set_timeout(0.6)
            manager.submit(hung)
            manager.wait_all([hung], timeout=30)
            with pytest.raises(TaskTimeout):
                _ = hung.result
            assert manager.stats["timeouts"] == 1
            again = FunctionCall("forklib", "sleepy_fn", 0.05)
            manager.submit(again)
            manager.wait_all([again], timeout=60)
            assert again.result == 0.05
            assert manager.stats["libraries_deployed"] == 1  # same instance


def test_library_crash_mid_invocation_fails_cleanly():
    """A library process that dies mid-invocation (library crash during a
    run with a pending timeout) fails the invocation promptly — no hang,
    and the worker-side deadline table dies with the handle."""
    with Manager() as manager:
        library = manager.create_library_from_functions("crashlib", crash_fn)
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=1):
            doomed = FunctionCall("crashlib", "crash_fn", 1)
            doomed.set_timeout(30.0)  # crash fires long before the deadline
            manager.submit(doomed)
            manager.wait_all([doomed], timeout=60)
            with pytest.raises(TaskFailure, match="library process died"):
                _ = doomed.result
            assert manager.stats["timeouts"] == 0


# ============================================== retry-budget property test
@settings(max_examples=20, deadline=None)
@given(
    max_retries=st.integers(min_value=0, max_value=4),
    n_tasks=st.integers(min_value=1, max_value=5),
    losses=st.lists(st.integers(min_value=0, max_value=31), max_size=40),
)
def test_requeue_count_never_exceeds_budget(max_retries, n_tasks, losses):
    """For ANY sequence of worker-loss events, total requeues stay
    <= max_retries * tasks, and every exhausted task fails with a
    TaskRetryExhausted carrying its complete loss history."""
    with Manager(
        max_retries=max_retries, retry_backoff=0.0, liveness_deadline=None
    ) as manager:
        tasks = [PythonTask(quick, i) for i in range(n_tasks)]
        for event, pick in enumerate(losses):
            task = tasks[pick % n_tasks]
            if task.state is TaskState.FAILED:
                continue  # already exhausted; a real loss can't touch it
            if task.id not in manager.state.running:
                # Simulate (re)dispatch of a queued task before the loss.
                try:
                    manager.state.ready_tasks.remove(task)
                except ValueError:
                    pass
                task.state = TaskState.DISPATCHED
                manager.state.running[task.id] = task
            manager._requeue(task.id, blame=f"w{event}")
        assert manager.stats["requeued"] <= max_retries * n_tasks
        for task in tasks:
            assert task.retries <= max_retries + 1
            if task.retries > max_retries:
                assert task.state is TaskState.FAILED
                assert isinstance(task.exception, TaskRetryExhausted)
                assert len(task.exception.losses) == task.retries
        # An exhausted task never lingers in the ready queue.
        assert all(t.state is not TaskState.FAILED for t in manager.state.ready_tasks)


# -- fault-schedule determinism ---------------------------------------------


class _StubProc:
    """Stands in for a factory worker process; pid is our own, so the
    only action fired at it (resume = SIGCONT) is a harmless no-op."""

    def __init__(self):
        self.pid = os.getpid()

    def poll(self):
        return None


class _StubFactory:
    def __init__(self, n=3):
        self.procs = [_StubProc() for _ in range(n)]


class _FakeClock:
    """Replaces the ``time`` module inside repro.engine.faults."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def _drive_seeded(seed, clock):
    """Build and drive a seeded random schedule; return the audit log."""
    import random

    rng = random.Random(seed)
    injector = FaultInjector(factory=_StubFactory())
    for _ in range(10):
        injector.at(round(rng.uniform(0.0, 1.0), 2), "resume", rng.randrange(3))
    clock.now = 0.0
    injector.start()
    rounds = 0
    while injector.pending:
        clock.now += 0.05 + rng.random() * 0.1  # seeded, hence reproducible
        injector.tick()
        rounds += 1
        assert rounds < 1000, "schedule failed to drain"
    return list(injector.fired)


def test_fault_schedule_is_deterministic(monkeypatch):
    """Same seed + same tick cadence => byte-identical injected sequence.

    The harness promises "a test's interleaving is reproducible from its
    schedule alone"; with the wall clock faked out, two runs must produce
    identical ``fired`` audit logs, and a different seed must not.
    """
    from repro.engine import faults as faults_mod

    clock = _FakeClock()
    monkeypatch.setattr(faults_mod, "time", clock)
    first = _drive_seeded(1234, clock)
    second = _drive_seeded(1234, clock)
    assert first == second
    assert len(first) == 10
    other = _drive_seeded(4321, clock)
    assert other != first


def test_tied_fault_delays_fire_in_insertion_order(monkeypatch):
    from repro.engine import faults as faults_mod

    clock = _FakeClock()
    monkeypatch.setattr(faults_mod, "time", clock)
    injector = FaultInjector(factory=_StubFactory())
    injector.at(0.5, "resume", 0)
    injector.at(0.5, "resume", 1)  # same delay: seq must break the tie
    injector.at(0.1, "resume", 2)
    injector.start()
    clock.now = 1.0
    assert injector.tick() == 3
    assert injector.fired == [
        "0.10s resume 2",
        "0.50s resume 0",
        "0.50s resume 1",
    ]
