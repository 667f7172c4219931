"""Property + unit tests for the serving-layer scheduling policies.

Three properties from the issue are pinned with hypothesis:

(a) *blame-set exclusion* — sticky affinity routing can prefer whatever
    workers it likes, but the blame filter runs after the policy, so a
    retried task is never placed on a worker in its ``workers_lost_on``
    set (neither by ``place_task`` nor ``find_invocation_slot``);
(b) *weighted fair queueing* — the WFQ is work-conserving (pop always
    yields while any tenant has queued work), never reorders one
    tenant's items, and backlogged tenants receive service within the
    SFQ fairness bound of their weight ratio;
(c) *reactive rules* — under the default policy every placement
    decision on any operation sequence is the paper's: ring-walk first
    fit, the instance that has had a free slot longest, first idle
    instance in table order.
"""

import collections

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import FunctionCall, LocalWorkerFactory, Manager
from repro.engine.cache import WorkerCache
from repro.engine.policies import (
    ArrivalHistory,
    FairSharePolicy,
    PrewarmPolicy,
    SchedulingPolicy,
    StickyPolicy,
    WeightedFairQueue,
    resolve_policy,
)
from repro.engine.resources import Resources
from repro.engine.scheduling import Placement, ShardState
from repro.errors import SchedulingError


# ----------------------------------------------------------------- helpers
def make_placement(n=3, cores=4, policy=None):
    p = Placement(policy=policy)
    for i in range(n):
        p.add_worker(f"w{i}", Resources(cores=cores, memory=100, disk=100))
    return p


def deploy_ready(p, name, slots=1, cores=1):
    placed = p.place_library(name, slots, Resources(cores=cores))
    assert placed is not None
    p.library_ready(*placed)
    return placed


# =======================================================================
# (a) sticky routing never selects a blamed worker
# =======================================================================
@settings(deadline=None, max_examples=60)
@given(
    nworkers=st.integers(2, 5),
    blame_idx=st.sets(st.integers(0, 4), max_size=5),
    served=st.lists(st.integers(0, 10), min_size=1, max_size=5),
    affinity=st.lists(st.integers(0, 4), max_size=8),
)
def test_sticky_blame_set_never_selected(nworkers, blame_idx, served, affinity):
    policy = StickyPolicy(keepalive=1e9)  # nothing ever goes cold
    p = make_placement(nworkers, cores=4, policy=policy)
    workers = [f"w{i}" for i in range(nworkers)]
    blame = {workers[i % nworkers] for i in blame_idx}

    instances = []
    for s in served:
        placed = p.place_library("lib", 2, Resources(cores=1))
        if placed is None:
            break
        p.library_ready(*placed)
        inst = p.workers[placed[0]].libraries[placed[1]]
        inst.total_served = s  # fake warmth so sticky has preferences
        instances.append(inst)
    # Feed the affinity map arbitrary dispatches — including onto workers
    # that will later be blamed — to try to lure routing there.
    for j, widx in enumerate(affinity):
        policy.note_dispatch("lib", workers[widx % nworkers], float(j))

    inst = p.find_invocation_slot("lib", exclude=blame)
    if inst is not None:
        assert inst.worker not in blame
    else:
        # Only allowed when every free instance sits on a blamed worker.
        free = [i for i in instances if i.free_slots > 0]
        assert all(i.worker in blame for i in free)

    chosen = p.place_task("task-key", Resources(cores=1), exclude=blame)
    if chosen is not None:
        assert chosen not in blame
    else:
        ok = [
            w
            for w in workers
            if w not in blame
            and p.workers[w].pool.can_allocate(Resources(cores=1))
        ]
        assert not ok


# =======================================================================
# (b) weighted fair queueing
# =======================================================================
tenants = st.sampled_from(["a", "b", "c"])


@settings(deadline=None, max_examples=80)
@given(
    pushes=st.lists(
        st.tuples(tenants, st.integers(1, 3)), max_size=60
    )
)
def test_wfq_work_conserving_and_fifo_within_tenant(pushes):
    q = WeightedFairQueue()
    expected = collections.defaultdict(list)
    for i, (tenant, cost) in enumerate(pushes):
        q.push(tenant, i, cost=float(cost))
        expected[tenant].append(i)
    popped = []
    while len(q):
        got = q.pop()
        assert got is not None, "pop() returned None while work was queued"
        popped.append(got)
    assert q.pop() is None
    assert len(popped) == len(pushes)  # work conservation: nothing lost
    per_tenant = collections.defaultdict(list)
    for tenant, item in popped:
        per_tenant[tenant].append(item)
    assert dict(per_tenant) == dict(expected)  # FIFO within each tenant


@settings(deadline=None, max_examples=60)
@given(
    ops=st.lists(
        st.one_of(st.tuples(st.just("push"), tenants), st.tuples(st.just("pop"))),
        max_size=80,
    )
)
def test_wfq_pop_yields_iff_nonempty(ops):
    q = WeightedFairQueue()
    model = 0
    for op in ops:
        if op[0] == "push":
            q.push(op[1], object())
            model += 1
        else:
            got = q.pop()
            if model:
                assert got is not None
                model -= 1
            else:
                assert got is None
        assert len(q) == model


@settings(deadline=None, max_examples=60)
@given(
    wa=st.floats(0.5, 8.0, allow_nan=False),
    wb=st.floats(0.5, 8.0, allow_nan=False),
)
def test_wfq_backlogged_service_tracks_weights(wa, wb):
    """SFQ fairness: while both tenants stay backlogged, normalized
    service difference |S_a/w_a - S_b/w_b| is bounded by one maximal
    request per tenant (Goyal et al.)."""
    q = WeightedFairQueue()
    n = 30
    for i in range(n):
        q.push("a", i, weight=wa)
        q.push("b", i, weight=wb)
    ca = cb = 0
    for _ in range(2 * n):
        tenant, _item = q.pop()
        if tenant == "a":
            ca += 1
        else:
            cb += 1
        if ca < n and cb < n:  # both still backlogged
            assert abs(ca / wa - cb / wb) <= 1.0 / wa + 1.0 / wb + 1e-9


def test_wfq_rejects_nonpositive_weight_and_cost():
    q = WeightedFairQueue()
    with pytest.raises(SchedulingError):
        q.push("t", 1, weight=0.0)
    with pytest.raises(SchedulingError):
        q.push("t", 1, cost=-1.0)


# =======================================================================
# (c) the default policy makes the paper's decisions
# =======================================================================
op_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("lib"), st.integers(0, 3), st.integers(1, 2), st.integers(1, 2)
        ),
        st.tuples(st.just("slot"), st.integers(0, 3), st.sets(st.integers(0, 3))),
        st.tuples(st.just("finish"), st.integers(0, 50)),
        st.tuples(st.just("victim"), st.integers(0, 4)),
        st.tuples(
            st.just("task"),
            st.integers(0, 5),
            st.integers(1, 2),
            st.sets(st.integers(0, 3)),
        ),
        st.tuples(st.just("task_done"), st.integers(0, 50)),
    ),
    max_size=40,
)


def _first_fit(placement, key, resources, exclude=()):
    """The paper's placement rule, from state read before the call."""
    for wname in placement.ring.walk(key):
        if wname not in exclude and placement.workers[wname].pool.can_allocate(
            resources
        ):
            return wname
    return None


def _replay(placement, ops):
    """Drive one operation sequence, asserting the reactive rule on each
    decision's return value from state read *before* the call."""
    libs = [f"lib{i}" for i in range(4)]
    # Live instances with a free slot, in the order they last gained one
    # (became ready, or finished an invocation while full): instances
    # fill in deployment order until one fills up and frees again.
    free = []
    started = []
    running = []
    for op in ops:
        kind = op[0]
        if kind == "lib":
            _, li, slots, cores = op
            res = Resources(cores=cores)
            want = _first_fit(placement, libs[li], res)
            placed = placement.place_library(libs[li], slots, res)
            assert (placed[0] if placed else None) == want
            if placed is not None:
                placement.library_ready(*placed)
                free.append(placement.workers[placed[0]].libraries[placed[1]])
        elif kind == "slot":
            blame = {f"w{i}" for i in op[2]}
            want = next(
                (
                    inst
                    for inst in free
                    if inst.library_name == libs[op[1]]
                    and inst.worker not in blame
                ),
                None,
            )
            inst = placement.find_invocation_slot(libs[op[1]], exclude=blame)
            assert inst is want
            if inst is not None:
                placement.start_invocation(inst)
                started.append(inst)
                if inst.free_slots == 0:
                    free.remove(inst)
        elif kind == "finish":
            if started:
                inst = started.pop(op[1] % len(started))
                placement.finish_invocation(inst)
                if inst not in free:
                    free.append(inst)
        elif kind == "victim":
            name = libs[op[1]] if op[1] < len(libs) else None
            want = next(
                (
                    inst
                    for slot in placement.workers.values()
                    for inst in slot.libraries.values()
                    if inst.library_name != name
                    and inst.ready
                    and inst.idle
                    and not inst.removing
                ),
                None,
            )
            victim = placement.find_evictable_library(name)
            assert victim is want
            if victim is not None:
                placement.remove_library(victim.worker, victim.instance_id)
                free.remove(victim)
        elif kind == "task":
            _, key, cores, blamed = op
            res = Resources(cores=cores)
            blame = {f"w{i}" for i in blamed}
            want = _first_fit(placement, f"key{key}", res, blame)
            worker = placement.place_task(f"key{key}", res, exclude=blame)
            assert worker == want
            if worker is not None:
                running.append((worker, res))
        elif kind == "task_done":
            if running:
                placement.finish_task(*running.pop(op[1] % len(running)))


@settings(deadline=None, max_examples=60)
@given(nworkers=st.integers(1, 4), cores=st.integers(1, 4), ops=op_strategy)
@example(  # a refilled instance queues behind one that stayed free
    nworkers=1,
    cores=4,
    ops=[
        ("lib", 0, 1, 1),
        ("lib", 0, 1, 1),
        ("slot", 0, set()),
        ("finish", 0),
        ("slot", 0, set()),
    ],
)
def test_default_policy_decisions_follow_paper_rules(nworkers, cores, ops):
    _replay(make_placement(nworkers, cores), ops)


# =======================================================================
# sticky ordering / eviction unit tests
# =======================================================================
def test_sticky_prefers_warmest_instance():
    policy = StickyPolicy()
    p = make_placement(3, cores=2, policy=policy)
    a = deploy_ready(p, "lib")
    b = deploy_ready(p, "lib")
    cold = p.workers[a[0]].libraries[a[1]]
    warm = p.workers[b[0]].libraries[b[1]]
    warm.total_served = 5
    inst = p.find_invocation_slot("lib")
    assert inst is warm
    # Reactive order would have picked the first-deployed (cold) instance.
    assert cold.total_served == 0


def test_sticky_evicts_coldest_and_defers_recent():
    policy = StickyPolicy(keepalive=60.0)
    p = make_placement(1, cores=2, policy=policy)
    a = deploy_ready(p, "libA")
    b = deploy_ready(p, "libB")
    hot = p.workers[a[0]].libraries[a[1]]
    hot.total_served = 7
    policy.note_dispatch("libA", a[0], now=100.0)
    victim = p.find_evictable_library("libC", now=100.5)
    assert victim is p.workers[b[0]].libraries[b[1]]
    # Past the keep-alive window libA's history no longer protects it;
    # ties then break toward the least-recently-dispatched library.
    victim = p.find_evictable_library("libC", now=100.0 + 120.0)
    assert victim.library_name == "libB"


def test_sticky_redeploy_prefers_affine_worker():
    policy = StickyPolicy()
    p = make_placement(3, cores=2, policy=policy)
    ring_first = next(iter(p.ring.walk("lib")))
    affine = next(w for w in p.workers if w != ring_first)
    policy.note_dispatch("lib", affine, now=1.0)
    placed = p.place_library("lib", 1, Resources(cores=1))
    assert placed is not None and placed[0] == affine


def test_sticky_shard_affinity_orders_home_first_and_caps():
    policy = StickyPolicy(max_affinity=2)
    policy.note_shard_result("fn-a", "shard-2")
    assert policy.shard_order("fn-a", ["shard-1", "shard-2", "shard-3"]) == [
        "shard-2",
        "shard-1",
        "shard-3",
    ]
    # Unknown key / dead home shard: candidate order passes through.
    assert policy.shard_order("fn-x", ["s1", "s2"]) == ["s1", "s2"]
    policy.note_shard_result("fn-a", "shard-2")
    policy.note_shard_result("fn-b", "shard-1")
    policy.note_shard_result("fn-c", "shard-3")  # evicts fn-a (LRU, cap 2)
    assert policy.shard_order("fn-a", ["shard-1", "shard-2"]) == [
        "shard-1",
        "shard-2",
    ]


# =======================================================================
# prewarm policy
# =======================================================================
def test_prewarm_candidates_only_zero_instance_libraries():
    policy = PrewarmPolicy(keepalive=5.0, horizon=5.0)
    p = make_placement(2, cores=2, policy=policy)
    for t in (0.0, 1.0, 2.0):
        policy.note_arrival("libA", t)
        policy.note_arrival("libB", t + 0.1)
    deploy_ready(p, "libB")
    libraries = {"libA": object(), "libB": object(), "libC": object()}
    # libA: imminent forecast, no instance -> prewarm.  libB: instance
    # already live -> reactive scaling's job.  libC: never seen -> no.
    assert policy.prewarm_candidates(p, libraries, now=2.5) == ["libA"]


def test_prewarm_keepalive_shields_idle_instance_from_eviction():
    policy = PrewarmPolicy(keepalive=10.0, horizon=1.0)
    p = make_placement(1, cores=2, policy=policy)
    a = deploy_ready(p, "libA")
    deploy_ready(p, "libB")
    for t in (0.0, 1.0, 2.0, 3.0):
        policy.note_arrival("libA", t)
    # libA's next arrival is forecast ~t=4: despite both being idle with
    # zero service history, the forecast makes libB the victim.
    victim = p.find_evictable_library("libC", now=3.5)
    assert victim.library_name == "libB"
    assert victim is not p.workers[a[0]].libraries[a[1]]


# =======================================================================
# fair-share admission control
# =======================================================================
def _queued_state(**queues):
    state = ShardState()
    for name, depth in queues.items():
        state.pending_invocations[name] = collections.deque(range(depth))
        if depth:
            state.dirty_libraries.add(name)
    return state


def test_fair_share_caps_only_under_contention():
    policy = FairSharePolicy()
    policy.note_arrival("libA", 0.0, tenant="A")
    policy.note_arrival("libB", 0.0, tenant="B")
    p = make_placement(2, cores=2, policy=policy)  # capacity: 4 one-core instances
    res = Resources(cores=1)
    deploy_ready(p, "libA")
    deploy_ready(p, "libA")

    # Work conservation: while no other tenant waits, A may keep growing.
    state = _queued_state(libA=3)
    assert policy.may_deploy("libA", res, p, state)

    # B's queue backlogs: A already holds its floor(4 * 1/2) = 2 share.
    state = _queued_state(libA=3, libB=3)
    assert not policy.may_deploy("libA", res, p, state)
    assert policy.may_deploy("libB", res, p, state)  # B holds 0 < 2

    # Weighting A up raises its share (floor(4 * 3/4) = 3 > 2 held).
    policy.set_weight("A", 3.0)
    assert policy.may_deploy("libA", res, p, state)


def test_fair_share_always_allows_first_instance():
    policy = FairSharePolicy()
    policy.note_arrival("libA", 0.0, tenant="A")
    for i in range(6):
        policy.note_arrival(f"libB{i}", 0.0, tenant=f"B{i}")
    p = make_placement(1, cores=4, policy=policy)
    state = _queued_state(
        libA=1, **{f"libB{i}": 1 for i in range(6)}
    )
    # Seven waiting tenants on a 4-instance fleet: share floors to 0 but
    # the max(1, ...) clamp still lets a tenant bootstrap one instance.
    assert policy.may_deploy("libA", Resources(cores=1), p, state)


def test_fair_share_drain_order_follows_virtual_time():
    policy = FairSharePolicy(quantum=2)
    policy.note_arrival("libA", 0.0, tenant="A")
    policy.note_arrival("libB", 0.0, tenant="B")
    state = _queued_state(libA=5, libB=5)
    assert policy.quantum("libA") == 2
    first = policy.next_dirty(state)
    assert first == "libA"  # tie on vfinish 0.0 -> name order
    policy.note_service("A", 2)
    assert policy.next_dirty(state) == "libB"  # A charged, B now earliest
    policy.note_service("B", 4)  # B used double A's service...
    assert policy.next_dirty(state) == "libA"  # ...so A is due again
    state.dirty_libraries.clear()
    assert policy.next_dirty(state) is None


def test_fair_share_weighted_drain_prefers_heavy_tenant():
    policy = FairSharePolicy()
    policy.set_weight("A", 4.0)
    policy.note_arrival("libA", 0.0, tenant="A")
    policy.note_arrival("libB", 0.0, tenant="B")
    policy.note_service("A", 4)  # vfinish_A = 1.0
    policy.note_service("B", 4)  # vfinish_B = 4.0
    state = _queued_state(libA=1, libB=1)
    assert policy.next_dirty(state) == "libA"


def _nap(x, seconds=0.0):
    import time as _time

    _time.sleep(seconds)
    return x


class _ArrivalOrder(SchedulingPolicy):
    """The paper's placement rules with queues drained oldest-head first.

    The control arm for the fair test.  ``reactive`` itself cannot serve:
    it drains dirty queues in ``set.pop()`` order, so whether its mice
    land before or after the hog depends on the process's hash seed.
    """

    name = "arrival-order"

    def next_dirty(self, state):
        queues = state.pending_invocations
        return min(
            (name for name in state.dirty_libraries if queues.get(name)),
            key=lambda name: queues[name][0].id,
            default=None,
        )


def _mice_before_last_hog_dispatch(policy) -> bool:
    """Run a 16-call hog burst, then one call from each of three mice.

    Two one-core seats, one-slot libraries, one tenant per library; True
    when every mouse was dispatched before the hog's last call was.
    """
    with Manager(policy=policy) as manager:
        for name in ("hog", "mouse-0", "mouse-1", "mouse-2"):
            manager.install_library(
                manager.create_library_from_functions(name, _nap, function_slots=1)
            )
        hog = [FunctionCall("hog", "_nap", i, 0.3) for i in range(16)]
        mice = [FunctionCall(f"mouse-{i}", "_nap", i) for i in range(3)]
        with LocalWorkerFactory(manager, count=1, cores=2):
            for call in [*hog, *mice]:
                manager.submit(call)
            manager.wait_all([*hog, *mice], timeout=180.0)
    assert [c.result for c in [*hog, *mice]] == [*range(16), *range(3)]
    last_hog = max(c.timeline["dispatched"] for c in hog)
    return all(c.timeline["dispatched"] < last_hog for c in mice)


def test_fair_admission_serves_mice_before_the_hog_drains():
    """Fair admission end to end, judged by dispatch rank, not by time.

    While a mouse waits the hog is capped at one seat, so the three mice
    rotate through the other long before the hog's sixteenth dispatch.
    Draining in arrival order instead hands the hog both seats and the
    mice run last, so a fair policy that degraded to FIFO fails here.
    """
    assert _mice_before_last_hog_dispatch("fair")
    assert not _mice_before_last_hog_dispatch(_ArrivalOrder())


# =======================================================================
# cache keep-alive (retain) hook
# =======================================================================
def test_cache_retain_prefers_unretained_victim(tmp_path):
    keep = {"a" * 64}
    cache = WorkerCache(
        str(tmp_path), capacity=2048, retain=lambda digest: digest in keep
    )
    cache.insert_bytes("a" * 64, b"x" * 1024)
    cache.insert_bytes("b" * 64, b"y" * 1024)
    cache.insert_bytes("c" * 64, b"z" * 1024)  # must evict one
    assert "a" * 64 in cache  # retained survives although it is the LRU
    assert "b" * 64 not in cache
    assert "c" * 64 in cache


def test_cache_retain_is_advisory_never_wedges(tmp_path):
    cache = WorkerCache(str(tmp_path), capacity=2048, retain=lambda digest: True)
    cache.insert_bytes("a" * 64, b"x" * 1024)
    cache.insert_bytes("b" * 64, b"y" * 1024)
    # Everything is "retained": plain LRU proceeds anyway.
    cache.insert_bytes("c" * 64, b"z" * 1024)
    assert "a" * 64 not in cache
    assert "b" * 64 in cache and "c" * 64 in cache


# =======================================================================
# selection / wiring
# =======================================================================
def test_resolve_policy_names_instances_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_POLICY", raising=False)
    for unset in (None, ""):
        policy = resolve_policy(unset)
        assert type(policy) is SchedulingPolicy and policy.name == "reactive"
    with pytest.raises(SchedulingError, match="reactive.*sticky"):
        resolve_policy("default")
    assert isinstance(resolve_policy("sticky"), StickyPolicy)
    custom = PrewarmPolicy()
    assert resolve_policy(custom) is custom
    monkeypatch.setenv("REPRO_POLICY", "fair")
    assert isinstance(resolve_policy(None), FairSharePolicy)
    with pytest.raises(SchedulingError):
        resolve_policy("no-such-policy")


def _ident(x):
    return x


def test_default_manager_is_reactive_and_exports_queue_wait(monkeypatch):
    monkeypatch.delenv("REPRO_POLICY", raising=False)
    with Manager() as manager:
        assert manager.policy.name == "reactive"
        assert manager.placement.policy is manager.policy
        manager.install_library(
            manager.create_library_from_functions("lib", _ident, function_slots=1)
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            call = FunctionCall("lib", "_ident", 7)
            manager.submit(call)
            manager.wait_all([call], timeout=120.0)
        assert call.result == 7
        assert manager.metrics.histograms["policy.queue_wait.lib"].count == 1


def test_arrival_history_staleness_and_rate():
    h = ArrivalHistory(min_observations=2)
    for t in (0.0, 1.0, 2.0, 3.0):
        h.record("k", t)
    assert h.interarrival("k") == pytest.approx(1.0)
    assert h.rate("k") == pytest.approx(1.0)
    assert h.imminent("k", 3.2, 1.0)
    # Silent for far longer than the typical gap: forecast goes stale.
    assert not h.imminent("k", 30.0, 1.0)
    # A single arrival proves nothing.
    h.record("new", 5.0)
    assert not h.imminent("new", 5.0, 100.0)
    assert h.predict_next("new") is None


# =======================================================================
# (i) an eviction in flight takes the instance out of scheduling
# =======================================================================
def test_removing_instance_invisible_to_dispatch_and_victim_search():
    """Regression for the eviction/dispatch race.

    Between the manager sending ``remove_library`` and the worker's ack,
    the dying instance is still in the placement table.  A dispatch
    round in that window must not route new invocations onto it (the
    worker would drop them) nor pick it as a victim twice; before
    ``mark_removing`` both happened, the removal ack then failed the
    active-invocation guard, and the instance's seat in the resource
    pool leaked forever — wedging every later deploy.
    """
    p = make_placement(n=1, cores=2)
    a = deploy_ready(p, "liba")
    deploy_ready(p, "libb")
    inst_a = p.workers["w0"].libraries[a[1]]

    assert p.find_invocation_slot("liba") is inst_a
    p.mark_removing(inst_a)
    # Invisible to dispatch: the free-slot index no longer offers it.
    assert p.find_invocation_slot("liba") is None
    assert a[1] not in p.free_index_snapshot().get("liba", set())
    # Invisible to a second victim search: only libb's instance remains.
    victim = p.find_evictable_library("libc")
    assert victim is not None and victim.library_name == "libb"
    # The seat is still held until the ack releases it.
    assert not p.workers["w0"].pool.can_allocate(Resources(cores=2))
    p.remove_library("w0", a[1])
    assert p.workers["w0"].pool.can_allocate(Resources(cores=1))
