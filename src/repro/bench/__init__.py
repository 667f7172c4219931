"""Experiment runners regenerating every table and figure of the paper.

Each public function corresponds to one experiment id from DESIGN.md's
index and returns a :class:`TableResult` whose ``text`` is the printable
reproduction and whose ``values`` carry the raw numbers for assertions.
``benchmarks/`` wraps these in pytest-benchmark entries; ``examples/``
and EXPERIMENTS.md use the same code paths.
"""

from repro.bench.tables import TableResult, format_table
from repro.bench.experiments import (
    ablation_library_slots,
    ablation_sim_distribution,
    ablation_transfer_modes,
    chaos_smoke,
    fig6_execution_times,
    fig7_histograms,
    fig8_invocation_length_sweep,
    fig9_worker_sweep,
    extension_examol_l3,
    fig10_11_library_curves,
    table2_overhead,
    table4_runtime_stats,
    table5_overhead_breakdown,
    trace_workload,
)

__all__ = [
    "TableResult",
    "format_table",
    "chaos_smoke",
    "table2_overhead",
    "table4_runtime_stats",
    "table5_overhead_breakdown",
    "fig6_execution_times",
    "fig7_histograms",
    "fig8_invocation_length_sweep",
    "fig9_worker_sweep",
    "fig10_11_library_curves",
    "ablation_transfer_modes",
    "ablation_library_slots",
    "ablation_sim_distribution",
    "extension_examol_l3",
    "trace_workload",
]
