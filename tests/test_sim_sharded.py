"""Sim-scale sharding: ring partition correctness and 1000+ worker runs.

The real router is proven at 2-3 shard processes in
tests/test_engine_router.py; this suite proves the same consistent-hash
partition decision at the paper's cluster scale — 4 shards over 1024
simulated workers — where spawning real processes is infeasible.
"""

import pytest

from repro.engine.scheduling import HashRing
from repro.errors import SimulationError
from repro.sim.sharded import (
    partition_workload,
    run_sharded_simulation,
    sharded_workload,
)
from repro.sim.workload import InvocationSpec, Workload

SHARDS = [f"shard-{i}" for i in range(4)]


def _ring(names):
    ring = HashRing(replicas=64)
    for name in names:
        ring.add(name)
    return ring


# ------------------------------------------------------------- partition
def test_partition_covers_workload_and_respects_ring():
    wl = sharded_workload(n_libraries=16, invocations_per_library=8)
    parts = partition_workload(wl, SHARDS)
    assert set(parts) == set(SHARDS)
    assert sum(len(p.invocations) for p in parts.values()) == len(wl.invocations)
    ring = _ring(SHARDS)
    for shard, part in parts.items():
        for spec in part.invocations:
            assert next(ring.walk(spec.function)) == shard


def test_partition_keeps_same_shard_dep_chains():
    # A dep edge between two invocations of the SAME function is always
    # intra-shard (stickiness), so it must partition cleanly.
    specs = [
        InvocationSpec(uid=0, function="lib-000"),
        InvocationSpec(uid=1, function="lib-000", deps=(0,)),
    ]
    parts = partition_workload(Workload(name="chain", invocations=specs), SHARDS)
    home = next(_ring(SHARDS).walk("lib-000"))
    assert len(parts[home].invocations) == 2


def test_partition_rejects_cross_shard_dep():
    # Find two functions the ring homes on different shards, then wire a
    # dependency between them: shards share nothing, so this edge has no
    # home and partitioning must refuse rather than silently break it.
    ring = _ring(SHARDS)
    names = [f"lib-{i:03d}" for i in range(64)]
    first = names[0]
    other = next(
        n for n in names if next(ring.walk(n)) != next(ring.walk(first))
    )
    specs = [
        InvocationSpec(uid=0, function=first),
        InvocationSpec(uid=1, function=other, deps=(0,)),
    ]
    with pytest.raises(SimulationError, match="cross-shard"):
        partition_workload(Workload(name="bad", invocations=specs), SHARDS)


def test_partition_requires_shards():
    with pytest.raises(SimulationError):
        partition_workload(sharded_workload(2, 1), [])


# ----------------------------------------------------------- sharded runs
def test_sharded_simulation_at_cluster_scale():
    # The tentpole scale claim: 4 shards x 256 workers = 1024 simulated
    # workers chew through a 16-library workload with every library's
    # invocation stream sticky to one shard.
    wl = sharded_workload(n_libraries=16, invocations_per_library=64)
    result = run_sharded_simulation(wl, n_shards=4, workers_per_shard=256)
    assert result.n_workers == 1024
    assert result.total_invocations == len(wl.invocations)
    assert sum(result.invocations_per_shard().values()) == len(wl.invocations)
    assert result.sticky()
    assert result.aggregate_throughput > 0
    assert result.makespan == max(
        r.makespan for r in result.per_shard.values()
    )
    # Every function's recorded home is a real shard the ring chose.
    assert set(result.function_home.values()) <= set(SHARDS)


def test_sharding_beats_one_manager_on_slot_bound_work():
    # Same workload, same per-shard fleet: four shards' slowest-shard
    # makespan must beat one manager working the whole thing alone.
    # Long library streams so warm reuse amortizes cold starts; at short
    # streams the straggler shard's cold-start fraction can eat the
    # parallelism win.
    wl = sharded_workload(n_libraries=16, invocations_per_library=256)
    single = run_sharded_simulation(wl, n_shards=1, workers_per_shard=64)
    sharded = run_sharded_simulation(wl, n_shards=4, workers_per_shard=64)
    assert sharded.makespan < single.makespan
    assert sharded.aggregate_throughput > single.aggregate_throughput


def test_sharded_simulation_is_deterministic():
    wl = sharded_workload(n_libraries=8, invocations_per_library=16)
    a = run_sharded_simulation(wl, n_shards=4, workers_per_shard=32, seed=7)
    b = run_sharded_simulation(wl, n_shards=4, workers_per_shard=32, seed=7)
    assert a.makespan == b.makespan
    assert a.invocations_per_shard() == b.invocations_per_shard()
