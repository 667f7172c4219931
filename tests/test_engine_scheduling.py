"""Unit + property tests for the hash ring and placement policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.resources import Resources
from repro.engine.scheduling import HashRing, Placement
from repro.errors import SchedulingError

names = st.lists(
    st.text(alphabet="abcdefgh0123", min_size=1, max_size=8), unique=True, max_size=20
)


# ------------------------------------------------------------------- hash ring
def test_ring_walk_visits_all_once():
    ring = HashRing()
    for name in ["w1", "w2", "w3", "w4"]:
        ring.add(name)
    walked = list(ring.walk("some-key"))
    assert sorted(walked) == ["w1", "w2", "w3", "w4"]


def test_ring_walk_empty():
    assert list(HashRing().walk("k")) == []


def test_ring_duplicate_add_rejected():
    ring = HashRing()
    ring.add("w")
    with pytest.raises(SchedulingError):
        ring.add("w")


def test_ring_remove():
    ring = HashRing()
    ring.add("a")
    ring.add("b")
    ring.remove("a")
    assert list(ring.walk("k")) == ["b"]
    with pytest.raises(SchedulingError):
        ring.remove("a")


def test_ring_walk_start_depends_on_key():
    ring = HashRing()
    for i in range(16):
        ring.add(f"w{i}")
    starts = {next(iter(ring.walk(f"key-{k}"))) for k in range(40)}
    assert len(starts) > 1  # different keys start at different workers


@settings(deadline=None)
@given(names=names, key=st.text(max_size=10))
def test_ring_walk_is_permutation_property(names, key):
    ring = HashRing()
    for n in names:
        ring.add(n)
    assert sorted(ring.walk(key)) == sorted(names)


# ------------------------------------------------------------------- placement
def make_placement(n=3, cores=4):
    p = Placement()
    for i in range(n):
        p.add_worker(f"w{i}", Resources(cores=cores, memory=100, disk=100))
    return p


def test_place_library_commits_resources():
    p = make_placement(1, cores=4)
    placed = p.place_library("lib", slots=2, resources=Resources(2, 10, 10))
    assert placed is not None
    worker, iid = placed
    assert p.workers[worker].pool.available.cores == 2


def test_place_library_none_when_full():
    p = make_placement(1, cores=1)
    assert p.place_library("lib", 1, Resources(1, 0, 0)) is not None
    assert p.place_library("lib", 1, Resources(1, 0, 0)) is None


def test_invocation_slot_lifecycle():
    p = make_placement(1)
    worker, iid = p.place_library("lib", 1, Resources(1, 0, 0))
    assert p.find_invocation_slot("lib") is None  # not ready yet
    p.library_ready(worker, iid)
    inst = p.find_invocation_slot("lib")
    assert inst is not None
    p.start_invocation(inst)
    assert p.find_invocation_slot("lib") is None  # slot busy
    p.finish_invocation(inst)
    assert inst.total_served == 1
    assert p.find_invocation_slot("lib") is not None


def test_start_invocation_without_slot_rejected():
    p = make_placement(1)
    worker, iid = p.place_library("lib", 1, Resources(1, 0, 0))
    p.library_ready(worker, iid)
    inst = p.find_invocation_slot("lib")
    p.start_invocation(inst)
    with pytest.raises(SchedulingError):
        p.start_invocation(inst)


def test_finish_invocation_without_start_rejected():
    p = make_placement(1)
    worker, iid = p.place_library("lib", 1, Resources(1, 0, 0))
    p.library_ready(worker, iid)
    inst = p.workers[worker].libraries[iid]
    with pytest.raises(SchedulingError):
        p.finish_invocation(inst)


def test_evictable_library_excludes_wanted_and_busy():
    p = make_placement(1, cores=2)
    worker, a = p.place_library("libA", 1, Resources(1, 0, 0))
    p.library_ready(worker, a)
    _, b = p.place_library("libB", 1, Resources(1, 0, 0))
    p.library_ready(worker, b)
    # Looking on behalf of libA: only libB's idle instance qualifies.
    victim = p.find_evictable_library("libA")
    assert victim is not None and victim.library_name == "libB"
    # A busy library is never evictable.
    p.start_invocation(p.workers[worker].libraries[b])
    victim = p.find_evictable_library("libA")
    assert victim is None or victim.library_name != "libB"


def test_evictable_any_library_for_tasks():
    p = make_placement(1, cores=1)
    worker, a = p.place_library("libA", 1, Resources(1, 0, 0))
    p.library_ready(worker, a)
    victim = p.find_evictable_library(None)
    assert victim is not None


def test_remove_library_releases_resources():
    p = make_placement(1, cores=2)
    worker, iid = p.place_library("lib", 1, Resources(2, 0, 0))
    p.library_ready(worker, iid)
    p.remove_library(worker, iid)
    assert p.workers[worker].pool.available.cores == 2
    with pytest.raises(SchedulingError):
        p.remove_library(worker, iid)


def test_remove_busy_library_rejected():
    p = make_placement(1)
    worker, iid = p.place_library("lib", 1, Resources(1, 0, 0))
    p.library_ready(worker, iid)
    inst = p.find_invocation_slot("lib")
    p.start_invocation(inst)
    with pytest.raises(SchedulingError):
        p.remove_library(worker, iid)


def test_task_placement_and_finish():
    p = make_placement(2, cores=2)
    worker = p.place_task("task-1", Resources(2, 0, 0))
    assert worker is not None
    assert p.workers[worker].running_tasks == 1
    p.finish_task(worker, Resources(2, 0, 0))
    assert p.workers[worker].running_tasks == 0


def test_task_placement_spills_to_next_worker():
    p = make_placement(2, cores=1)
    w1 = p.place_task("k", Resources(1, 0, 0))
    w2 = p.place_task("k", Resources(1, 0, 0))
    assert {w1, w2} == {"w0", "w1"}
    assert p.place_task("k", Resources(1, 0, 0)) is None


def test_remove_worker():
    p = make_placement(2)
    slot = p.remove_worker("w0")
    assert slot.name == "w0"
    assert "w0" not in p.workers
    with pytest.raises(SchedulingError):
        p.remove_worker("w0")


def test_metrics():
    p = make_placement(2, cores=2)
    assert p.deployed_library_count() == 0
    assert p.mean_share_value() == 0.0
    worker, iid = p.place_library("lib", 1, Resources(1, 0, 0))
    p.library_ready(worker, iid)
    inst = p.find_invocation_slot("lib")
    p.start_invocation(inst)
    p.finish_invocation(inst)
    assert p.deployed_library_count() == 1
    assert p.mean_share_value() == 1.0


@settings(deadline=None, max_examples=30)
@given(
    n_workers=st.integers(min_value=1, max_value=6),
    slots=st.integers(min_value=1, max_value=4),
    n_invocations=st.integers(min_value=0, max_value=30),
)
def test_slot_accounting_invariant_property(n_workers, slots, n_invocations):
    """Start/finish cycles never exceed deployed slot capacity and always
    return the system to idle."""
    p = Placement()
    for i in range(n_workers):
        p.add_worker(f"w{i}", Resources(cores=4, memory=0, disk=0))
    deployed = []
    while True:
        placed = p.place_library("lib", slots, Resources(1, 0, 0))
        if placed is None:
            break
        p.library_ready(*placed)
        deployed.append(placed)
    in_flight = []
    started = 0
    for _ in range(n_invocations):
        inst = p.find_invocation_slot("lib")
        if inst is None:
            break
        p.start_invocation(inst)
        in_flight.append(inst)
        started += 1
    assert started <= len(deployed) * slots
    for inst in in_flight:
        p.finish_invocation(inst)
    assert all(
        li.used_slots == 0
        for w in p.workers.values()
        for li in w.libraries.values()
    )


# ---------------------------------------------------------- virtual nodes
def test_ring_replicas_one_matches_legacy_positions():
    """replicas=1 hashes the bare name: identical order to the old ring."""
    legacy = HashRing()
    virtual = HashRing(replicas=1)
    for name in ["w1", "w2", "w3", "w4"]:
        legacy.add(name)
        virtual.add(name)
    for key in ["a", "b", "lib-007", "shardbench-3"]:
        assert list(legacy.walk(key)) == list(virtual.walk(key))


def test_ring_replicas_still_walks_each_member_once():
    ring = HashRing(replicas=64)
    for name in ["s0", "s1", "s2", "s3"]:
        ring.add(name)
    for key in ["k1", "k2", "k3"]:
        assert sorted(ring.walk(key)) == ["s0", "s1", "s2", "s3"]
    assert len(ring) == 4  # members, not virtual points
    ring.remove("s2")
    assert sorted(ring.walk("k1")) == ["s0", "s1", "s3"]
    assert len(ring) == 3


def test_ring_replicas_reduce_partition_skew():
    """The router's reason for virtual nodes: with 4 shards and one point
    each, a hash partition of many keys is badly skewed; 64 points per
    shard keep every shard's share within sane bounds."""
    keys = [f"lib-{i:03d}" for i in range(256)]

    def shares(ring):
        counts = {}
        for key in keys:
            home = next(ring.walk(key))
            counts[home] = counts.get(home, 0) + 1
        return counts

    flat = HashRing()
    virtual = HashRing(replicas=64)
    for name in ["s0", "s1", "s2", "s3"]:
        flat.add(name)
        virtual.add(name)
    assert max(shares(flat).values()) > 96  # documented skew: >1.5x fair
    spread = shares(virtual)
    assert len(spread) == 4
    assert max(spread.values()) <= 96  # every shard within 1.5x of 64


def test_ring_replicas_must_be_positive():
    with pytest.raises(SchedulingError):
        HashRing(replicas=0)


# ------------------------------------------------------------- shard state
def _shard_tasks():
    from repro.engine.task import FunctionCall, PythonTask

    def fn(x):
        return x

    return FunctionCall("libA", "f", 1), PythonTask(fn, 2)


def test_shard_state_enqueue_routes_by_task_kind():
    from repro.engine.scheduling import ShardState

    state = ShardState()
    call, task = _shard_tasks()
    state.enqueue(call)
    state.enqueue(task)
    assert list(state.pending_invocations["libA"]) == [call]
    assert list(state.ready_tasks) == [task]
    assert "libA" in state.dirty_libraries and state.tasks_dirty
    assert state.queued_count() == 2
    assert state.queue_depths() == {"libA": 1, "<tasks>": 1}
    assert not state.empty()


def test_shard_state_requeue_at_front():
    from repro.engine.task import FunctionCall
    from repro.engine.scheduling import ShardState

    state = ShardState()
    first = FunctionCall("libA", "f", 1)
    retried = FunctionCall("libA", "f", 2)
    state.enqueue(first)
    state.enqueue(retried, front=True)
    assert list(state.pending_invocations["libA"]) == [retried, first]


def test_shard_state_discard_queued():
    from repro.engine.scheduling import ShardState

    state = ShardState()
    call, task = _shard_tasks()
    state.enqueue(call)
    state.enqueue(task)
    assert state.discard_queued(call)
    assert not state.discard_queued(call)  # already gone
    assert state.discard_queued(task)
    assert state.queued_count() == 0
    assert state.empty()


def test_shard_state_wake_all_marks_only_nonempty_queues():
    from repro.engine.scheduling import ShardState

    state = ShardState()
    call, _ = _shard_tasks()
    state.enqueue(call)
    state.pending_invocations["libB"] = type(state.ready_tasks)()  # empty
    state.dirty_libraries.clear()
    state.tasks_dirty = False
    state.wake_all()
    assert list(state.dirty_libraries) == ["libA"]
    assert not state.tasks_dirty


# One submission sequence, drained in a child interpreter: enqueue calls,
# re-mark one queue the way a finished call does, drain every mark.
_DRAIN_PROBE = """
import json, sys
from repro.engine.policies import SchedulingPolicy
from repro.engine.scheduling import ShardState
from repro.engine.task import FunctionCall

state = ShardState()
for name in sys.argv[1:]:
    state.enqueue(FunctionCall(name, "f", 0))
state.mark_dirty(sys.argv[1])
policy = SchedulingPolicy()
order = []
while state.dirty_libraries:
    order.append(state.take_dirty_library(policy))
print(json.dumps(order))
"""


def test_dirty_drain_order_is_submission_order_under_any_hash_seed():
    """Drained as a ``set``, these six names come out in different
    orders under ``PYTHONHASHSEED`` 0 and 1; the drain must not."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    submitted = ["zeta", "alpha", "zeta", "mike", "bravo", "kilo", "alpha", "echo"]
    orders = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _DRAIN_PROBE, *submitted],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        orders.append(json.loads(done.stdout))
    assert orders[0] == orders[1] == ["zeta", "alpha", "mike", "bravo", "kilo", "echo"]


def test_shard_state_backoff_gate():
    from repro.engine.scheduling import ShardState

    state = ShardState()
    assert not state.take_backoff_wakeup(100.0)  # nothing noted
    state.note_backoff(50.0)
    state.note_backoff(40.0)  # earlier expiry wins
    state.note_backoff(60.0)  # later one must not extend the gate
    assert not state.take_backoff_wakeup(39.9)
    assert state.take_backoff_wakeup(40.0)
    assert not state.take_backoff_wakeup(100.0)  # gate cleared after firing


def test_shard_state_empty_tracks_running():
    from repro.engine.scheduling import ShardState

    state = ShardState()
    call, _ = _shard_tasks()
    assert state.empty()
    state.running[call.id] = call
    assert not state.empty()
    del state.running[call.id]
    assert state.empty()
