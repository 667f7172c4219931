"""Each library instance's own link to the manager.

Every invocation travels on that link and its result comes straight
back; the worker keeps lifecycle and files and relays no invocation.
Covered here through the public API plus raw sockets and ``/proc``: the
accept-side handshake blocks nobody, a link is attached only with the
right token and only once, a stale result is never applied, a killed
worker settles every call exactly once, tracing still yields one
parented timeline, fork-mode completions are noticed at once, calls
with input files wait for them without re-sending, and the worker does
no work per invocation.
"""

import os
import socket
import statistics
import time
from types import SimpleNamespace

import pytest

from repro.engine import (
    FaultInjector,
    FunctionCall,
    LocalWorkerFactory,
    Manager,
    TaskState,
    payloads,
)
from repro.engine.messages import Connection, pack_invocations, unpack_invocations
from repro.engine.task import ExecMode
from repro.obs.trace import merge_task_timeline, unparented_events


def double(x):
    return 2 * x


def nap(seconds):
    import time as _time

    _time.sleep(seconds)
    return seconds


def noop():
    return None


def read_input(name):
    with open(name, "rb") as fh:
        return fh.read()


def echo_input(name, size):
    with open(name, "rb") as fh:
        data = fh.read()
    return (data * (size // len(data) + 1))[:size]


def _drive_until(manager, predicate, seconds, what):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, what
        manager.wait(timeout=0.05)


def _closed_by_peer(sock) -> bool:
    try:
        return sock.recv(1) == b""
    except BlockingIOError:
        return False
    except ConnectionResetError:
        return True


def _wave(manager, n, library="link-lib"):
    calls = [FunctionCall(library, "double", i) for i in range(n)]
    for call in calls:
        manager.submit(call)
    manager.wait_all(calls, timeout=60.0)
    assert [c.result for c in calls] == [2 * i for i in range(n)]
    return calls


@pytest.fixture
def engine():
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions("link-lib", double, nap, function_slots=2)
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            _wave(manager, 4)  # deployed, attached and warm
            yield manager


def _instance(manager):
    (record,) = manager._instances.values()
    return record


# ------------------------------------------------------------- handshakes
def test_silent_newcomer_delays_nobody_and_is_dismissed(engine):
    """Regression: the accept path read a newcomer's first frame with a
    blocking 10 s receive inside the loop, so a socket that connected and
    said nothing froze every worker and instance behind it."""
    silent = socket.create_connection(("127.0.0.1", engine.port))
    try:
        silent.setblocking(False)
        started = time.monotonic()
        _wave(engine, 200)
        assert time.monotonic() - started < 3.0
        assert not _closed_by_peer(silent)  # still inside its 10 s
        _drive_until(
            engine, lambda: _closed_by_peer(silent), 15.0, "silent peer never dismissed"
        )
        assert time.monotonic() - started >= 9.0
    finally:
        silent.close()
    _wave(engine, 4)


@pytest.mark.parametrize(
    "forge",
    [
        pytest.param(lambda rec: {"instance_id": rec.instance.instance_id, "token": "0" * 32}, id="wrong-token"),
        pytest.param(lambda rec: {"instance_id": 10_000, "token": rec.token}, id="unknown-instance"),
        pytest.param(lambda rec: {"instance_id": rec.instance.instance_id, "token": rec.token}, id="second-attach"),
        pytest.param(lambda rec: {"instance_id": rec.instance.instance_id, "token": "é"}, id="non-ascii-token"),
        pytest.param(lambda rec: {"instance_id": [1], "token": rec.token}, id="malformed-id"),
    ],
)
def test_bad_attach_is_closed_and_engine_keeps_serving(engine, forge):
    record = _instance(engine)
    link = record.conn
    sock = socket.create_connection(("127.0.0.1", engine.port))
    try:
        Connection(sock, "forger").send(dict(forge(record), type="attach"))
        sock.setblocking(False)
        _drive_until(engine, lambda: _closed_by_peer(sock), 5.0, "forged attach kept open")
    finally:
        sock.close()
    assert record.conn is link and not link.closed  # the real link is untouched
    _wave(engine, 8)


# ------------------------------------------------------ failure authority
def test_result_for_a_task_not_bound_to_the_sender_is_dropped(engine):
    """Only the instance a task is bound to may settle it; anything else
    is dropped, and a one-shot segment it names is reclaimed."""
    call = FunctionCall("link-lib", "nap", 0.5)
    engine.submit(call)
    _drive_until(engine, lambda: call.state is TaskState.DISPATCHED, 10.0, "not dispatched")
    stranger = SimpleNamespace(instance=SimpleNamespace(instance_id=-1))
    frame = {"type": "result", "task_id": call.id, "kind": "invocation", "times": {}}
    if payloads.enabled():
        frame["payload_shm"] = payloads.publish_once(b"forged" * 10_000)
    completed = engine.stats["completed"]
    engine._on_instance_frame(stranger, frame, b"")
    assert call.state is TaskState.DISPATCHED
    assert engine.stats["completed"] == completed
    if payloads.enabled():
        with pytest.raises(payloads.PayloadError):
            payloads.fetch(frame["payload_shm"])
    engine.wait_all([call], timeout=30.0)
    assert call.result == 0.5


def test_killed_worker_settles_every_call_exactly_once():
    with Manager(retry_backoff=0.05) as manager:
        manager.install_library(
            manager.create_library_from_functions("kill-lib", nap, function_slots=2)
        )
        factory = LocalWorkerFactory(manager, count=2, cores=1, name_prefix="k")
        factory.start()
        try:
            calls = [FunctionCall("kill-lib", "nap", 0.05) for _ in range(40)]
            for call in calls:
                manager.submit(call)
            _drive_until(
                manager,
                lambda: any(
                    c.worker == "k-0" and c.state is TaskState.DISPATCHED for c in calls
                ),
                30.0,
                "k-0 never got work",
            )
            injector = FaultInjector(manager, factory)
            injector.kill_worker(0)
            injector.drive(calls, timeout=90.0)
            assert all(c.successful and c.result == 0.05 for c in calls)
            assert manager.stats["completed"] == len(calls)
            assert manager.stats["workers_lost"] == 1
            assert manager.connected_workers() == ["k-1"]
            survivors = [
                inst
                for slot in manager.placement.workers.values()
                for inst in slot.libraries.values()
            ]
            assert survivors and all(inst.used_slots == 0 for inst in survivors)
        finally:
            factory.stop()


# ---------------------------------------------------------------- tracing
def test_direct_invocation_is_one_parented_timeline(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")  # before the manager builds its tracer
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("traced-link", double))
        with LocalWorkerFactory(manager, count=1, cores=1):
            call = FunctionCall("traced-link", "double", 5)
            manager.submit(call)
            manager.wait_all([call], timeout=60.0)
            assert call.result == 10
            timeline = merge_task_timeline(manager.trace_events(), str(call.id))
    etypes = [e.etype for e in timeline]
    invoke = timeline[etypes.index("library_invoke")]
    assert invoke.attrs["mode"] == "direct"
    assert etypes.index("task_dispatch") < etypes.index("library_invoke")
    assert etypes.index("library_invoke") < etypes.index("task_cost")
    assert unparented_events(timeline) == []


# --------------------------------------------------------------- fork mode
def test_fork_mode_completions_are_noticed_at_once():
    """A fork-mode child's exit wakes its instance through a pidfd; the
    instance used to notice only when a 50 ms receive timed out."""
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions("fork-link", noop, exec_mode=ExecMode.FORK)
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            walls = []
            for _ in range(11):  # the first one pays the deploy
                call = FunctionCall("fork-link", "noop")
                started = time.monotonic()
                manager.submit(call)
                manager.wait_all([call], timeout=30.0)
                walls.append(time.monotonic() - started)
                assert call.successful
            assert statistics.median(walls[1:]) < 0.020
            assert manager.stats["libraries_deployed"] == 1


# ---------------------------------------------------------------- framing
def test_pack_and_unpack_invocations_round_trip():
    entries = [({"task_id": i, "function": "f"}, bytes([i]) * i) for i in range(4)]
    message, parts = pack_invocations(entries)
    assert message["type"] == "invocation_batch"
    unpacked = list(unpack_invocations(message, b"".join(parts)))
    assert unpacked == entries
    single, parts = pack_invocations(entries[2:3])
    assert single["type"] == "invocation"
    assert list(unpack_invocations(single, b"".join(parts))) == [
        (dict(entries[2][0], type="invocation"), entries[2][1])
    ]


# ---------------------------------------------------- the one path, inputs
def test_calls_sharing_a_new_input_wait_for_one_copy():
    """Fifty calls dispatched before their input reached the worker all
    wait for the one ``put_file`` and then run; nothing is sent twice."""
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions(
                "shared-in", read_input, double, function_slots=2
            )
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            _wave(manager, 4, library="shared-in")  # deployed and warm
            sends = manager.stats["manager_sends"]
            data = os.urandom(1024)
            shared = manager.declare_buffer(data, "shared.bin")
            calls = [
                FunctionCall("shared-in", "read_input", "shared.bin") for _ in range(50)
            ]
            for call in calls:
                call.add_input(shared)
                manager.submit(call)
            manager.wait_all(calls, timeout=60.0)
            assert all(call.result == data for call in calls)
            assert manager.stats["manager_sends"] - sends == 1
            assert manager.stats.get("requeued", 0) == 0


def test_fork_call_with_input_and_large_result_returns_intact():
    before = set(payloads.list_segments())
    size = payloads.threshold_bytes() + 12_345
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions(
                "fork-echo", echo_input, exec_mode=ExecMode.FORK
            )
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            data = os.urandom(1000)
            source = manager.declare_buffer(data, "echo.bin")
            call = FunctionCall("fork-echo", "echo_input", "echo.bin", size)
            call.add_input(source)
            manager.submit(call)
            manager.wait_all([call], timeout=60.0)
            assert call.result == (data * (size // 1000 + 1))[:size]
    assert set(payloads.list_segments()) - before == set()


def _cpu_ticks(pid, children=False):
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return utime + stime + (cutime + cstime if children else 0)


def _child_pids(pid):
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    if int(fh.read().rsplit(")", 1)[1].split()[1]) == pid:
                        found.append(int(entry))
            except (OSError, ValueError):
                pass  # exited meanwhile
    return found


def test_worker_does_no_work_per_invocation():
    """A wave of fork-mode calls and calls with input files costs the
    worker process (almost) nothing: its CPU time grows by under a tenth
    of its instance's, reaped fork children included."""
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions(
                "quiet-worker", read_input, function_slots=2
            )
        )
        with LocalWorkerFactory(manager, count=1, cores=1) as factory:
            shared = manager.declare_buffer(b"q" * 1024, "quiet.bin")

            def wave(n):
                calls = [
                    FunctionCall("quiet-worker", "read_input", "quiet.bin")
                    for _ in range(n)
                ]
                for i, call in enumerate(calls):
                    call.add_input(shared)
                    if i % 2:
                        call.exec_mode = ExecMode.FORK
                    manager.submit(call)
                manager.wait_all(calls, timeout=120.0)
                assert all(call.result == b"q" * 1024 for call in calls)

            wave(4)  # deployed, warm, input cached
            worker = factory.procs[0].pid
            (template,) = _child_pids(worker)
            (instance,) = _child_pids(template)
            worker_before = _cpu_ticks(worker)
            instance_before = _cpu_ticks(instance, children=True)
            wave(300)
            worker_cost = _cpu_ticks(worker) - worker_before
            instance_cost = _cpu_ticks(instance, children=True) - instance_before
    assert instance_cost > 0
    assert worker_cost < 0.1 * instance_cost, (worker_cost, instance_cost)
