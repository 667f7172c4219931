"""Integration tests of the cluster simulator (small scales)."""

import pytest

from repro.errors import SimulationError
from repro.sim.calibration import CostModel, ReuseLevel, ServiceSampler, lnni_cost_model
from repro.sim.engine import SimManager
from repro.sim.machine import build_fleet
from repro.sim.runner import run_examol, run_lnni, run_simulation
from repro.sim.workload import InvocationSpec, Workload, lnni_workload


def small_run(level, n=300, workers=10, **model_overrides):
    return run_lnni(
        level,
        n_invocations=n,
        n_workers=workers,
        model=lnni_cost_model(**model_overrides) if model_overrides else None,
    )


# ----------------------------------------------------------------- basic runs
def test_all_levels_complete():
    for level in ReuseLevel:
        result = small_run(level)
        assert len(result.trace.runtimes) == 300
        assert result.makespan > 0


def test_levels_are_ordered_l3_fastest():
    makespans = {level: small_run(level, n=500, workers=10).makespan for level in ReuseLevel}
    assert makespans[ReuseLevel.L3] < makespans[ReuseLevel.L2] < makespans[ReuseLevel.L1]


def test_runs_are_deterministic():
    a = small_run(ReuseLevel.L2)
    b = small_run(ReuseLevel.L2)
    assert a.makespan == b.makespan
    assert a.trace.runtimes == b.trace.runtimes


def test_different_seeds_differ():
    a = run_lnni(ReuseLevel.L3, n_invocations=200, n_workers=5, seed=1)
    b = run_lnni(ReuseLevel.L3, n_invocations=200, n_workers=5, seed=2)
    assert a.trace.runtimes != b.trace.runtimes


def test_invocation_length_scales_exec():
    short = run_lnni(ReuseLevel.L3, n_invocations=100, n_workers=5,
                     inferences_per_invocation=16)
    long = run_lnni(ReuseLevel.L3, n_invocations=100, n_workers=5,
                    inferences_per_invocation=160)
    assert long.runtime_stats.mean > 5 * short.runtime_stats.mean


def test_more_workers_help_when_exec_bound():
    few = run_lnni(ReuseLevel.L3, n_invocations=1000, n_workers=2)
    many = run_lnni(ReuseLevel.L3, n_invocations=1000, n_workers=20)
    assert many.makespan < few.makespan / 2


def test_l3_deploys_and_reclaims_libraries():
    result = small_run(ReuseLevel.L3, n=2000, workers=5)
    assert result.trace.libraries_deployed_total >= 1
    assert result.peak_libraries() <= 5 * 16
    assert result.trace.library_timeline[0][1] >= 1


def test_l3_share_value_grows():
    result = small_run(ReuseLevel.L3, n=2000, workers=5)
    shares = [s for _, s in result.trace.share_timeline]
    assert shares[-1] > shares[0]


def test_empty_fleet_rejected():
    wl = lnni_workload(10)
    with pytest.raises(SimulationError):
        SimManager(wl, [], lnni_cost_model(), ReuseLevel.L1)


# --------------------------------------------------------------- DAG handling
def test_dependencies_respected():
    wl = Workload("chain")
    wl.invocations = [
        InvocationSpec(uid=0, function="f"),
        InvocationSpec(uid=1, function="f", deps=(0,)),
        InvocationSpec(uid=2, function="f", deps=(1,)),
    ]
    fleet = build_fleet(4)
    result = SimManager(wl, fleet, lnni_cost_model(), ReuseLevel.L3).run()
    # A 3-deep chain takes at least 3 sequential executions.
    assert result.makespan > 2.5 * result.runtime_stats.min


def test_quorum_unblocks_early():
    # One task depends on 4 others with quorum 1: makespan well below
    # waiting for all four (which straggle artificially via exec_units).
    def build(quorum):
        wl = Workload(f"quorum-{quorum}")
        wl.invocations = [
            InvocationSpec(uid=i, function="f", exec_units=1 + 5 * i) for i in range(4)
        ]
        wl.invocations.append(
            InvocationSpec(uid=4, function="f", deps=(0, 1, 2, 3), quorum=quorum)
        )
        fleet = build_fleet(4)
        return SimManager(wl, fleet, lnni_cost_model(), ReuseLevel.L3).run()

    free = build(1)
    strict = build(None)
    assert free.makespan <= strict.makespan


def test_examol_l2_beats_l1_at_small_scale():
    l1 = run_examol(ReuseLevel.L1, n_tasks=500, n_workers=20)
    l2 = run_examol(ReuseLevel.L2, n_tasks=500, n_workers=20)
    assert l2.makespan < l1.makespan


# ------------------------------------------------------------------- sampler
def test_sampler_deterministic():
    model = lnni_cost_model()
    a = ServiceSampler(model, seed=7)
    b = ServiceSampler(model, seed=7)
    assert [a.exec_time(1.0, 1.0) for _ in range(20)] == [
        b.exec_time(1.0, 1.0) for _ in range(20)
    ]


def test_sampler_scales_with_speed_factor():
    model = CostModel(jitter_sigma=1e-9, straggler_prob=0.0)
    sampler = ServiceSampler(model)
    slow = sampler.exec_time(1.0, 2.0)
    fast = sampler.exec_time(1.0, 1.0)
    assert slow == pytest.approx(2 * fast, rel=0.01)


def test_sampler_jitter_mean_near_one():
    model = CostModel(straggler_prob=0.0)
    sampler = ServiceSampler(model)
    samples = [sampler.jitter() for _ in range(4000)]
    assert sum(samples) / len(samples) == pytest.approx(1.0, rel=0.05)


def test_sampler_stragglers_appear_at_configured_rate():
    model = CostModel(straggler_prob=0.5, straggler_exec=(10.0, 10.0), jitter_sigma=1e-9)
    sampler = ServiceSampler(model)
    samples = [sampler.exec_time(1.0, 1.0) for _ in range(400)]
    big = sum(1 for s in samples if s > 5.0)
    assert 120 < big < 280  # ~50%


def test_runtime_stats_and_histogram_api():
    result = small_run(ReuseLevel.L3, n=200, workers=5)
    stats = result.runtime_stats
    assert stats.count == 200
    hist = result.histogram(0.0, 40.0, 10)
    assert hist.total == 200
    assert "makespan" in result.summary_row()


def test_slots_per_worker_derived():
    model = lnni_cost_model()
    assert model.slots_per_worker == 16  # 32 cores / 2 per invocation
    examol = lnni_cost_model(invocation_cores=4)
    assert examol.slots_per_worker == 8


def test_run_simulation_entry_point():
    wl = lnni_workload(50)
    result = run_simulation(wl, lnni_cost_model(), ReuseLevel.L2, n_workers=4)
    assert result.n_workers == 4
    assert result.level == "L2"


def test_overhead_share_shrinks_with_reuse_level():
    """Q5's essence at the simulator level: the fraction of invocation
    time that is overhead (everything but execution) collapses as the
    reuse level deepens."""
    shares = {}
    for level in ReuseLevel:
        result = small_run(level, n=400, workers=10)
        totals = result.trace.phase_totals
        shares[level] = totals["overhead"] / (totals["overhead"] + totals["exec"])
    assert shares[ReuseLevel.L3] < 0.05  # warm invocations: ~pure execution
    assert shares[ReuseLevel.L3] < shares[ReuseLevel.L2] < shares[ReuseLevel.L1]


# ------------------------------------------------------------ serving policies
def test_sim_accepts_every_policy_name():
    wl = lnni_workload(120)
    fleet = build_fleet(6, seed=3)
    makespans = {}
    for policy in ("reactive", "sticky", "prewarm", "fair"):
        sim = SimManager(wl, fleet, lnni_cost_model(), ReuseLevel.L3, policy=policy)
        result = sim.run()
        assert len(result.trace.runtimes) == 120
        makespans[policy] = result.makespan
    # "fair" degenerates to reactive without tenants; sticky/prewarm may
    # reorder token reuse but never lose or duplicate work.
    assert makespans["fair"] == makespans["reactive"]


def test_sim_rejects_unknown_policy():
    wl = lnni_workload(10)
    fleet = build_fleet(2, seed=0)
    for bad in ("bogus", "default"):
        with pytest.raises(SimulationError, match="reactive.*sticky"):
            SimManager(wl, fleet, lnni_cost_model(), ReuseLevel.L3, policy=bad)


def test_sim_sticky_policy_concentrates_service():
    """Warmest-token routing: with sticky, the spread of per-library
    service counts is at least as skewed as reactive's (the busiest
    library serves no fewer invocations)."""

    def max_served(policy):
        wl = lnni_workload(200)
        fleet = build_fleet(4, seed=7)
        sim = SimManager(wl, fleet, lnni_cost_model(), ReuseLevel.L3, policy=policy)
        sim.run()
        return max(
            lib.served for worker in sim.workers for lib in worker.libraries
        )

    assert max_served("sticky") >= max_served("reactive")
