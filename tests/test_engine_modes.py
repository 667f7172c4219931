"""Engine behaviour under non-default configurations: manager-only
transfers, bounded worker caches, multi-function libraries."""

import os
import socket
import subprocess
import sys
import time

import pytest

from repro.distribute.topology import TransferMode
from repro.engine import FunctionCall, LocalWorkerFactory, Manager, PythonTask, TaskState
from repro.engine.messages import Connection
from repro.errors import EngineError, TaskFailure


def fn_one(x):
    return x + 1


def fn_two(x):
    return x * 2


def read_blob(name):
    with open(name, "rb") as fh:
        return len(fh.read())


def test_manager_only_transfer_mode():
    """With MANAGER_ONLY the manager never issues peer-transfer directives,
    even when another worker already holds the file."""
    with Manager(transfer_mode=TransferMode.MANAGER_ONLY) as manager:
        blob = manager.declare_buffer(b"d" * 50_000, "blob.bin")
        with LocalWorkerFactory(manager, count=2, cores=1):
            tasks = []
            for _ in range(4):
                t = PythonTask(read_blob, "blob.bin")
                t.add_input(blob)
                tasks.append(t)
                manager.submit(t)
            manager.wait_all(tasks, timeout=120)
            assert all(t.result == 50_000 for t in tasks)
            assert manager.stats.get("peer_transfers", 0) == 0
            assert manager.stats["manager_sends"] >= 2  # one copy per worker


def test_cluster_aware_transfer_mode_is_rejected():
    """Fig 3c is planned and simulated only; the engine must not accept it
    and quietly run peer transfers instead."""
    with pytest.raises(EngineError, match="MANAGER_ONLY.*PEER"):
        Manager(transfer_mode=TransferMode.CLUSTER_AWARE)


def _fake_worker(manager, name, cores, port=0):
    """A raw socket registered as a worker: it fetches nothing and runs
    nothing, so a test reads exactly what the manager sends it."""
    conn = Connection(socket.create_connection(("127.0.0.1", manager.port)), name)
    conn.send({
        "type": "register", "worker": name, "resources": {"cores": cores},
        "transfer_host": "127.0.0.1", "transfer_port": port,
    })
    manager.wait_for_workers(len(manager.connected_workers()) + 1, timeout=10)
    assert conn.receive(timeout=10)[0]["type"] == "welcome"
    return conn


def _next_frame(manager, conn):
    manager.wait(timeout=0.2)  # let the manager send
    return conn.receive(timeout=5)[0]


def test_a_task_behind_a_peer_fetch_is_held_and_falls_back_once():
    """A task frame waits while its input is fetched from a peer; a
    cancel meanwhile fails it at once and it is never sent; a failed
    fetch falls back to one ``put_file``, with the held frame behind it."""
    with Manager() as manager:
        blob = manager.declare_buffer(b"x" * 1000, "blob.bin")
        holder = _fake_worker(manager, "holder", 0, 7001)
        holder.send({"type": "cache_update", "hash": blob.hash, "present": True})
        fetcher = _fake_worker(manager, "fetcher", 1)
        first, second = PythonTask(fn_one, 1), PythonTask(fn_one, 2)
        for task in (first, second):
            task.add_input(blob)
        manager.submit(first)
        transfer = _next_frame(manager, fetcher)
        assert (transfer["type"], transfer["port"]) == ("transfer", 7001)
        assert manager.cancel(first)
        assert manager.wait_all([first], timeout=5) == [first]
        assert "cancelled" in str(first.exception)
        manager.submit(second)  # needs the same file: no second transfer
        manager.wait(timeout=0.2)
        fetcher.send({
            "type": "cache_update", "hash": blob.hash, "present": False,
            "error": "ProtocolError: peer gone",
        })
        put = _next_frame(manager, fetcher)
        assert (put["type"], put["hash"]) == ("put_file", blob.hash)
        task = _next_frame(manager, fetcher)
        assert (task["type"], task["task_id"]) == ("task", second.id)
        assert manager.stats["peer_transfers"] == manager.stats["manager_sends"] == 1
        fetcher.send({"type": "cache_update", "hash": blob.hash, "present": True})
        manager.wait(timeout=0.3)
        with pytest.raises(TimeoutError):  # the cancelled task never follows
            fetcher.receive(timeout=0.3)


# Three zero-core workers confirm one file, worker-c first; a fourth,
# the only one with a core, gets a task that needs the file.  Prints the
# port its ``transfer`` frame names.
_SOURCE_CHOICE = """
from repro.engine import Manager, PythonTask
from tests.test_engine_modes import _fake_worker, fn_one

with Manager() as manager:
    blob = manager.declare_buffer(b"x" * 1000, "blob.bin")
    names = ["worker-c", "worker-a", "worker-b"]
    holders = [_fake_worker(manager, name, 0, 7001 + i) for i, name in enumerate(names)]
    for i, holder in enumerate(holders):
        holder.send({"type": "cache_update", "hash": blob.hash, "present": True})
        while len(manager._file_holders.get(blob.hash, ())) <= i:
            manager.wait(timeout=0.05)
    fetcher = _fake_worker(manager, "worker-d", 1)
    task = PythonTask(fn_one, 1)
    task.add_input(blob)
    manager.submit(task)
    manager.wait(timeout=0.5)
    while True:
        frame = fetcher.receive(timeout=10)[0]
        if frame["type"] == "transfer":
            print(frame["port"])
            break
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_transfer_source_is_the_earliest_holder_under_any_hash_seed(seed):
    """The peer source is the first live worker to have confirmed the
    file, not whichever a set's hash order yields first."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _SOURCE_CHOICE],
        cwd=root,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["7001"]  # worker-c's


def test_multi_function_library():
    """Figure 5 allows several functions per library; they share one
    context process and its namespace."""
    with Manager() as manager:
        library = manager.create_library_from_functions(
            "multi", fn_one, fn_two, function_slots=2
        )
        manager.install_library(library)
        assert library.provides("fn_one") and library.provides("fn_two")
        with LocalWorkerFactory(manager, count=1, cores=1):
            a = FunctionCall("multi", "fn_one", 10)
            b = FunctionCall("multi", "fn_two", 10)
            manager.submit(a)
            manager.submit(b)
            manager.wait_all([a, b], timeout=120)
            assert (a.result, b.result) == (11, 20)
            # Both served without deploying a second library.
            assert manager.stats["libraries_deployed"] == 1


def test_bounded_worker_cache_evicts():
    """A worker with a tiny cache evicts older blobs under pressure but
    every task still completes (manager re-sends on the next use)."""
    with Manager() as manager:
        blobs = [
            manager.declare_buffer(bytes([i]) * 30_000, f"blob{i}.bin")
            for i in range(6)
        ]
        factory = LocalWorkerFactory(
            manager, count=1, cores=1, cache_capacity=100_000
        )
        with factory:
            tasks = []
            for i, blob in enumerate(blobs):
                t = PythonTask(read_blob, f"blob{i}.bin")
                t.add_input(blob)
                tasks.append(t)
                manager.submit(t)
            manager.wait_all(tasks, timeout=240)
            assert all(t.result == 30_000 for t in tasks)
            # Reusing an early (by now evicted) blob still works: the
            # eviction report cleared the manager's replica map, so the
            # file is re-sent instead of assumed present.
            retry = PythonTask(read_blob, "blob0.bin")
            retry.add_input(blobs[0])
            manager.submit(retry)
            manager.wait_all([retry], timeout=120)
            assert retry.result == 30_000


def read_two(a, b):
    return read_blob(a) + read_blob(b)


def _failed_within(manager, task, seconds):
    deadline = time.monotonic() + seconds
    while task.state is not TaskState.FAILED and time.monotonic() < deadline:
        manager.wait(timeout=0.1)
    return task.state is TaskState.FAILED


def test_invocation_inputs_larger_than_the_cache_fail_cleanly():
    """Regression: two 60 kB inputs can never sit in a 100 kB cache
    together.  The worker that relayed such a call raised the cache miss
    inside its loop and died: the call stayed submitted forever and the
    worker was lost.  Now the call fails and the worker serves on."""
    with Manager() as manager:
        manager.install_library(
            manager.create_library_from_functions("tight", read_two, fn_one)
        )
        with LocalWorkerFactory(manager, count=1, cores=1, cache_capacity=100_000):
            call = FunctionCall("tight", "read_two", "a.bin", "b.bin")
            call.add_input(manager.declare_buffer(b"a" * 60_000, "a.bin"))
            call.add_input(manager.declare_buffer(b"b" * 60_000, "b.bin"))
            manager.submit(call)
            assert _failed_within(manager, call, 15.0)
            with pytest.raises(TaskFailure):
                _ = call.result
            assert manager.stats.get("workers_lost", 0) == 0
            after = FunctionCall("tight", "fn_one", 1)
            manager.submit(after)
            manager.wait_all([after], timeout=60)
            assert after.result == 2


def test_inputs_no_cache_can_hold_fail_at_dispatch():
    """Regression: a call whose inputs fit in no connected worker's cache
    re-sent them on every retry and failed after ~2 s as if it had lost
    its worker four times.  Now it fails at dispatch, names the sizes,
    and sends nothing."""
    with Manager() as manager:
        manager.install_library(manager.create_library_from_functions("tight", read_two))
        with LocalWorkerFactory(manager, count=1, cores=1, cache_capacity=100_000):
            call = FunctionCall("tight", "read_two", "a.bin", "b.bin")
            call.add_input(manager.declare_buffer(b"a" * 60_000, "a.bin"))
            call.add_input(manager.declare_buffer(b"b" * 60_000, "b.bin"))
            task = PythonTask(read_two, "a.bin", "b.bin")
            for f in call.inputs:
                task.add_input(f)
            started = time.monotonic()
            manager.submit(call)
            manager.submit(task)
            assert _failed_within(manager, call, 1.0)
            assert _failed_within(manager, task, 1.0)
            assert time.monotonic() - started < 1.0
            for failed in (call, task):
                with pytest.raises(TaskFailure, match="a.bin 60000 B, b.bin 60000 B"):
                    _ = failed.result
            # The library's own blob is the only file that went out.
            assert manager.stats.get("manager_sends", 0) <= 1
            assert manager.stats.get("bytes_sent", 0) < 60_000
            assert manager.stats.get("requeued", 0) == 0
            assert manager.stats.get("workers_lost", 0) == 0


def test_task_input_larger_than_the_cache_fails_cleanly():
    """Regression: a ``put_file`` bigger than the whole worker cache
    raised inside the worker's loop and killed it.  Now the worker
    reports the file absent and the task behind it fails on the miss."""
    with Manager() as manager:
        with LocalWorkerFactory(manager, count=1, cores=1, cache_capacity=100_000):
            task = PythonTask(read_blob, "huge.bin")
            task.add_input(manager.declare_buffer(b"h" * 150_000, "huge.bin"))
            manager.submit(task)
            assert _failed_within(manager, task, 15.0)
            with pytest.raises(TaskFailure, match="CacheError"):
                _ = task.result
            assert manager.stats.get("workers_lost", 0) == 0
            after = PythonTask(fn_one, 1)
            manager.submit(after)
            manager.wait_all([after], timeout=60)
            assert after.result == 2


def test_fresh_manager_stats_empty():
    with Manager() as manager:
        assert manager.stats.get("completed", 0) == 0
        assert manager.connected_workers() == []
        assert manager.worker_status() == {}
        assert manager.empty()
