"""Router + shard processes: sharded submission, stickiness, cancel, loss.

Covers the multi-manager deployment of DESIGN.md §2g: a stateless
:class:`~repro.engine.router.Router` consistent-hashes contexts across N
manager (shard) processes, keeps every invocation of a library sticky to
the shard holding its warm instances, forwards the Manager submission
API (submit/wait/wait_all/cancel/declare_argument) over the wire, and on
shard loss re-homes libraries from the pre-staged blobs and retries the
lost tasks with the shard in their blame set.

These tests spawn real subprocesses (one shard = one manager + its
workers), so they share one 2-shard router across the module; the
shard-loss test builds its own 3-shard router because it kills one.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.engine.messages import connect
from repro.engine.router import Router
from repro.engine.task import FunctionCall, PythonTask, TaskState
from repro.errors import LibraryError


def _double(x):
    return 2 * x


def _blob_len(blob):
    return len(blob)


def _nap(x, seconds):
    import time as _time

    _time.sleep(seconds)
    return x


def _echo(blob):
    return blob


@pytest.fixture(scope="module")
def router():
    with Router(shards=2, workers_per_shard=1, worker_cores=2) as r:
        yield r


# ----------------------------------------------------------------- plumbing
def test_router_spawns_registered_shards(router):
    assert router.shard_names() == ["shard-0", "shard-1"]
    for name in router.shard_names():
        link = router._shards[name]
        assert link.pid is not None
        assert link.blob_port is not None
        # Shards are started by policy name; the default is reactive.
        args = link.proc.args
        assert args[args.index("--policy") + 1] == router.policy.name == "reactive"


def test_python_task_round_trip(router):
    task = PythonTask(_double, 21)
    router.submit(task)
    router.wait_all([task], timeout=120.0)
    assert task.state is TaskState.DONE
    assert task.result == 42


def test_submit_unknown_library_rejected(router):
    with pytest.raises(LibraryError):
        router.submit(FunctionCall("nope", "f", 1))


def test_double_install_rejected(router):
    library = router.create_library_from_functions("dup-lib", _double)
    router.install_library(library)
    with pytest.raises(LibraryError):
        router.install_library(
            router.create_library_from_functions("dup-lib", _double)
        )


# --------------------------------------------------------------- stickiness
def test_function_calls_sticky_to_library_home(router):
    library = router.create_library_from_functions(
        "sticky-lib", _double, function_slots=2
    )
    router.install_library(library)
    home = router._libraries["sticky-lib"].home
    assert home in router.shard_names()
    # The blob is pre-staged on the *other* shard even though execution
    # stays home — that's the warm standby the loss path re-homes from.
    assert set(router._libraries["sticky-lib"].staged) == set(
        router.shard_names()
    )
    calls = [FunctionCall("sticky-lib", "_double", i) for i in range(8)]
    routed_to = []
    for call in calls:
        router.submit(call)
        routed_to.append(router._task_shard[call.id])
    router.wait_all(calls, timeout=120.0)
    assert [c.result for c in calls] == [2 * i for i in range(8)]
    assert set(routed_to) == {home}


# ---------------------------------------------------------- declared args
def test_declared_argument_round_trip(router):
    blob = os.urandom(300_000)
    library = router.create_library_from_functions(
        "declare-lib", _blob_len, function_slots=2
    )
    router.install_library(library)
    arg = router.declare_argument(blob)
    assert arg.shm is None  # router-scoped handle: segments are per-shard
    calls = [FunctionCall("declare-lib", "_blob_len", arg) for _ in range(4)]
    for call in calls:
        router.submit(call)
    router.wait_all(calls, timeout=120.0)
    assert all(c.result == len(blob) for c in calls)
    router.release_argument(arg)
    assert arg.digest not in router._declared
    # Releasing twice is a no-op.
    router.release_argument(arg)


# -------------------------------------------------------------------- cancel
def test_cancel_queued_true_dispatched_false(router):
    library = router.create_library_from_functions(
        "cancel-lib", _nap, function_slots=1
    )
    router.install_library(library)
    calls = [FunctionCall("cancel-lib", "_nap", i, 2.0) for i in range(4)]
    for call in calls:
        router.submit(call)
    # Give the shard time to dispatch the head of the queue into its
    # library instances, then cancel from both ends of the pipeline.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        router.loop.run_once(0.05)
        status = router.shard_stats(router._task_shard[calls[0].id])
        if status.get("running", 0) > 0:
            break
    assert router.cancel(calls[-1]) is True  # still queued: withdrawn
    router.wait_all([calls[-1]], timeout=30.0)
    assert calls[-1].state is TaskState.FAILED
    assert calls[-1].exception is not None
    assert router.cancel(calls[0]) is False  # executing: not cancellable
    router.wait_all(calls[:-1], timeout=120.0)
    assert [c.result for c in calls[:-1]] == [0, 1, 2]
    # Cancelling a task the router no longer tracks is False, not an error.
    assert router.cancel(calls[0]) is False


# ------------------------------------------------------------- concurrency
# Kept after the cancel test: that one polls the ~1 Hz shard status for
# ``running > 0`` and would take this test's sleepers for its own.
def test_two_shards_run_at_once(router):
    """Invocations homed on different shards execute concurrently."""
    # These two names split across a two-shard HashRing(replicas=64).
    names = ("shardbench-0", "shardbench-3")
    for name in names:
        router.install_library(
            router.create_library_from_functions(name, _nap, function_slots=1)
        )
    warmup = [FunctionCall(name, "_nap", 0, 0.0) for name in names]
    calls = [FunctionCall(name, "_nap", 1, 1.0) for name in names]
    for batch in (warmup, calls):
        for call in batch:
            router.submit(call)
        routed_to = {router._task_shard[call.id] for call in batch}
        router.wait_all(batch, timeout=120.0)
    assert routed_to == {router._libraries[name].home for name in names}
    assert len(routed_to) == 2
    assert [c.result for c in calls] == [1, 1]
    # One slot each and a 1 s sleep: the [dispatched, completed] windows
    # can only overlap if both shards were executing at the same time.
    latest_start = max(c.timeline["dispatched"] for c in calls)
    earliest_end = min(c.timeline["completed"] for c in calls)
    assert latest_start < earliest_end


# --------------------------------------------------------------- shard loss
def test_shard_loss_rehomes_library_and_retries_with_blame():
    with Router(shards=3, workers_per_shard=1, worker_cores=2) as r:
        library = r.create_library_from_functions(
            "loss-lib", _nap, function_slots=2
        )
        r.install_library(library)
        record = r._libraries["loss-lib"]
        home = record.home
        assert set(record.staged) == set(r.shard_names())
        # Three rounds of 1.5 s on the two slots: the kill below keys off
        # the shard's status frames, which are 1 s apart, so every round
        # must outlast that gap or the work can finish before a frame
        # ever shows it (it did, once a cold start stopped taking 270 ms).
        calls = [FunctionCall("loss-lib", "_nap", i, 1.5) for i in range(6)]
        for call in calls:
            r.submit(call)
        # Let the home shard take work, then kill it mid-run.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            r.loop.run_once(0.05)
            if r.shard_stats(home).get("running", 0) > 0:
                break
        r._shards[home].proc.kill()
        r.wait_all(calls, timeout=180.0)
        assert home not in r._shards
        assert record.home != home
        assert record.home in r._shards
        assert [c.result for c in calls] == list(range(6))
        blamed = [c for c in calls if f"shard:{home}" in c.workers_lost_on]
        assert blamed, "no task recorded the lost shard in its blame set"
        assert all(c.retries >= 1 for c in blamed)


# ------------------------------------------------- nobody blocks on anybody
def _two_waves_with_an_idle_router_between(count, size, pause):
    """Runs in a child process (see the test below): a hang is a result."""
    blob = bytes(size)
    with Router(shards=1, workers_per_shard=1, worker_cores=2) as r:
        r.install_library(
            r.create_library_from_functions("echo-lib", _echo, function_slots=2)
        )
        calls = []
        for wave in range(2):
            for _ in range(count):
                calls.append(FunctionCall("echo-lib", "_echo", blob))
                r.submit(calls[-1])
            if wave == 0:
                # The router does not drive its loop here, so the shard's
                # completions pile up unread on the socket pair.
                time.sleep(pause)
        r.wait_all(calls, timeout=120.0)
        assert all(c.result == blob for c in calls)


def test_router_and_shard_never_block_on_each_other():
    """Regression: router and shard both used blocking sends on one
    socket pair.  A wave of results the router was not reading filled the
    shard→router direction and parked the shard in ``sendmsg``; the next
    wave of submissions then filled router→shard, which the parked shard
    no longer read, and ``Router.submit`` hung forever.  Both sides now
    queue and drain, so the second wave goes out and everything returns.

    Payloads stay under the 32 KiB shm threshold so the bytes really
    cross the sockets; 2 x 800 x 30 kB is several times what the kernel
    buffers per direction.  The scenario runs in its own process group
    under a hard wall-clock cap (pytest-timeout is not installed).
    """
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "from tests.test_engine_router import "
            "_two_waves_with_an_idle_router_between as run; run(800, 30_000, 3.0)",
        ],
        cwd=repo,
        start_new_session=True,
    )
    try:
        assert child.wait(timeout=30.0) == 0
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def _fake_shard(router, name):
    """Register a raw connection as a shard of a ``spawn=False`` router."""
    conn = connect("127.0.0.1", router.port, name=name)
    conn.send({"type": "register_shard", "shard": name, "pid": os.getpid()})
    while name not in router.shard_names():
        assert router.wait(timeout=0.05) is None
    assert conn.receive(timeout=5.0)[0]["type"] == "welcome"
    return conn


def test_shard_stalled_mid_frame_delays_nobody():
    """A shard link that goes silent in the middle of a frame used to
    cost the router a 1 s receive timeout per loop iteration."""
    with Router(spawn=False) as r:
        healthy, stalled = _fake_shard(r, "fake-a"), _fake_shard(r, "fake-b")
        try:
            stalled.sock.sendall((200).to_bytes(4, "big") + b'{"type":"sha')
            healthy.send(
                {"type": "shard_status", "shard": "fake-a", "stats": {"completed": 7}}
            )
            started = time.monotonic()
            for _ in range(5):
                assert r.wait(timeout=0.01) is None
            assert time.monotonic() - started < 0.5
            assert r.shard_stats("fake-a")["completed"] == 7
            assert r.shard_names() == ["fake-a", "fake-b"]
        finally:
            healthy.close()
            stalled.close()
