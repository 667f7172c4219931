"""Unit + property tests for machine fleets and workload generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.machine import (
    PAPER_CLUSTER,
    REFERENCE_GFLOPS,
    build_fleet,
)
from repro.sim.workload import (
    EXAMOL_TASK_TIMES,
    InvocationSpec,
    Workload,
    examol_workload,
    lnni_workload,
)


# ------------------------------------------------------------------- machines
def test_paper_cluster_matches_table3():
    counts = {g.name: g.machines for g in PAPER_CLUSTER}
    assert counts == {"group1": 58, "group2": 117, "group3": 14, "group4": 7, "group5": 5}
    g1 = PAPER_CLUSTER[0]
    assert g1.gflops == REFERENCE_GFLOPS
    assert g1.speed_factor == 1.0
    assert PAPER_CLUSTER[1].speed_factor < 1.0  # group 2 is faster


def test_build_fleet_count_and_determinism():
    a = build_fleet(150, seed=3)
    b = build_fleet(150, seed=3)
    assert len(a) == 150
    assert [m.group for m in a] == [m.group for m in b]


def test_build_fleet_proportions():
    fleet = build_fleet(201)
    counts = {}
    for m in fleet:
        counts[m.group] = counts.get(m.group, 0) + 1
    assert counts["group2"] == 117  # exact at the cluster's own size
    assert counts["group1"] == 58


def test_build_fleet_exclusions():
    fleet = build_fleet(50, exclude_groups=("group2",))
    assert all(m.group != "group2" for m in fleet)


def test_build_fleet_errors():
    with pytest.raises(SimulationError):
        build_fleet(0)
    with pytest.raises(SimulationError):
        build_fleet(10, exclude_groups=tuple(g.name for g in PAPER_CLUSTER))


@settings(deadline=None, max_examples=20)
@given(n=st.integers(min_value=1, max_value=300))
def test_build_fleet_any_size_property(n):
    fleet = build_fleet(n, seed=1)
    assert len(fleet) == n
    assert len({m.name for m in fleet}) == n


# ------------------------------------------------------------------- workloads
def test_lnni_workload_shape():
    wl = lnni_workload(100, 160)
    assert len(wl) == 100
    assert all(s.exec_units == pytest.approx(10.0) for s in wl.invocations)
    assert all(not s.deps for s in wl.invocations)


def test_lnni_workload_validation():
    with pytest.raises(SimulationError):
        lnni_workload(0)
    with pytest.raises(SimulationError):
        lnni_workload(10, 0)


def test_examol_workload_counts():
    wl = examol_workload(1000, rounds=4)
    assert len(wl) == 1000
    kinds = {}
    for s in wl.invocations:
        kinds[s.function] = kinds.get(s.function, 0) + 1
    assert kinds["train"] == 8  # 2 per round
    assert kinds["simulate"] > kinds["infer"] > kinds["train"]


def test_examol_round_structure():
    wl = examol_workload(400, rounds=2)
    trains = [s for s in wl.invocations if s.function == "train"]
    # Trains depend on simulations with a quorum below the full batch.
    for t in trains:
        assert t.deps
        assert t.quorum is not None and t.quorum < len(t.deps)
    infers = [s for s in wl.invocations if s.function == "infer"]
    assert all(i.quorum == 1 for i in infers)
    # Round 2 simulations gate on round-1 inferences.
    round2_sims = [
        s
        for s in wl.invocations
        if s.function == "simulate" and s.deps
    ]
    assert round2_sims


def test_examol_task_times_sane():
    assert EXAMOL_TASK_TIMES["simulate"] > EXAMOL_TASK_TIMES["train"] > EXAMOL_TASK_TIMES["infer"]


def test_examol_too_small_rejected():
    with pytest.raises(SimulationError):
        examol_workload(10, rounds=16)


def test_workload_validation_catches_duplicates():
    wl = Workload("bad")
    wl.invocations = [InvocationSpec(uid=1, function="f"), InvocationSpec(uid=1, function="f")]
    with pytest.raises(SimulationError, match="duplicate"):
        wl.validate()


def test_workload_validation_catches_self_dependency():
    wl = Workload("bad")
    wl.invocations = [InvocationSpec(uid=1, function="f", deps=(1,))]
    with pytest.raises(SimulationError, match="itself"):
        wl.validate()


def test_workload_validation_catches_unknown_dep():
    wl = Workload("bad")
    wl.invocations = [InvocationSpec(uid=1, function="f", deps=(99,))]
    with pytest.raises(SimulationError, match="unknown"):
        wl.validate()


def test_required_deps_with_quorum():
    spec = InvocationSpec(uid=1, function="f", deps=(2, 3, 4), quorum=2)
    assert spec.required_deps() == 2
    spec_all = InvocationSpec(uid=1, function="f", deps=(2, 3))
    assert spec_all.required_deps() == 2
    spec_over = InvocationSpec(uid=1, function="f", deps=(2,), quorum=5)
    assert spec_over.required_deps() == 1


@settings(deadline=None, max_examples=15)
@given(
    n=st.integers(min_value=100, max_value=2000),
    rounds=st.integers(min_value=1, max_value=8),
)
def test_examol_workload_valid_dag_property(n, rounds):
    wl = examol_workload(n, rounds=rounds)
    assert len(wl) == n
    wl.validate()  # raises on any structural violation
    assert wl.functions() == ["infer", "simulate", "train"]
