"""Machine groups of the evaluation cluster (paper Table 3).

Workers in the simulator inherit a *speed factor* from the machine group
they land on: service times scale inversely with the group's per-core
GFlops relative to the reference group (Group 1 — AMD EPYC 7532 — on
which we anchor the Table 5 single-machine measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import SimulationError
from repro.util.rng import seeded_rng

REFERENCE_GFLOPS = 4.4  # Group 1, the anchor for calibrated service times


@dataclass(frozen=True)
class MachineGroup:
    """One row of Table 3."""

    name: str
    prefix: str
    cpu_model: str
    machines: int
    gflops: float
    dram_gb: int

    @property
    def speed_factor(self) -> float:
        """Service-time multiplier relative to the reference group (>1 = slower)."""
        return REFERENCE_GFLOPS / self.gflops


# Table 3, verbatim: 5 groups covering 96.2% of machines used in any run.
PAPER_CLUSTER: List[MachineGroup] = [
    MachineGroup("group1", "d32cepyc[001-070]", "AMD EPYC 7532 32-Core", 58, 4.4, 256),
    MachineGroup("group2", "d32cepyc[076-260]", "AMD EPYC 7543 32-Core", 117, 5.4, 256),
    MachineGroup("group3", "qa-a10-[001-022]", "Xeon Gold 6326 @2.90GHz", 14, 1.9, 256),
    MachineGroup("group4", "qa-a40-[001-010]", "Xeon Gold 6326 @2.90GHz", 7, 1.9, 256),
    MachineGroup("group5", "sa-rtx6ka-[001-005]", "Xeon Silver 4316 @2.30GHz", 5, 1.9, 256),
]


@dataclass(frozen=True)
class SimMachine:
    """A concrete worker host: name, group, and speed factor."""

    name: str
    group: str
    speed_factor: float


def build_fleet(
    n_workers: int,
    groups: Sequence[MachineGroup] = PAPER_CLUSTER,
    *,
    seed: int | str = 0,
    exclude_groups: Sequence[str] = (),
) -> List[SimMachine]:
    """Sample ``n_workers`` machines proportionally to group sizes.

    "All experiments are run with a similar proportion of machine groups
    to that of Table 3 unless explicitly noted otherwise" — the noted
    exceptions (e.g. Q3's L3/50-worker run with no group 2) are expressed
    with ``exclude_groups``.
    """
    usable = [g for g in groups if g.name not in set(exclude_groups)]
    if not usable:
        raise SimulationError("no machine groups left after exclusions")
    if n_workers < 1:
        raise SimulationError("need at least one worker")
    total = sum(g.machines for g in usable)
    rng = seeded_rng("fleet", seed, n_workers)
    # Deterministic proportional allocation (largest remainder), then
    # shuffle assignment order so worker indices don't correlate with speed.
    quotas = []
    for g in usable:
        exact = n_workers * g.machines / total
        quotas.append([g, int(exact), exact - int(exact)])
    assigned = sum(q[1] for q in quotas)
    for q in sorted(quotas, key=lambda q: -q[2]):
        if assigned >= n_workers:
            break
        q[1] += 1
        assigned += 1
    # Guarantee every worker exists even if rounding starved all groups.
    while assigned < n_workers:
        quotas[0][1] += 1
        assigned += 1
    labels: List[MachineGroup] = []
    for g, count, _ in quotas:
        labels.extend([g] * count)
    rng.shuffle(labels)  # type: ignore[arg-type]
    return [
        SimMachine(name=f"worker-{i:04d}", group=g.name, speed_factor=g.speed_factor)
        for i, g in enumerate(labels[:n_workers])
    ]
