"""Command-line experiment runner: ``python -m repro.bench``.

Regenerates the paper's tables and figures from the command line::

    python -m repro.bench --list
    python -m repro.bench fig6 table4
    python -m repro.bench all --quick
    python -m repro.bench trace --out /tmp/trace.json

``--quick`` shrinks the LNNI workload to 10k invocations (the full 100k
runs take ~10s each on the simulator; real-engine experiments always use
the scaled-down defaults unless REPRO_BENCH_FULL=1).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.bench import experiments

EXPERIMENTS: Dict[str, Callable[..., object]] = {
    "chaos": lambda n: experiments.chaos_smoke(),
    "table2": lambda n: experiments.table2_overhead(),
    "fig6": lambda n: experiments.fig6_execution_times(lnni_invocations=n),
    "fig7": lambda n: experiments.fig7_histograms(n),
    "table4": lambda n: experiments.table4_runtime_stats(n),
    "fig8": lambda n: experiments.fig8_invocation_length_sweep(),
    "fig9": lambda n: experiments.fig9_worker_sweep(),
    "fig10_11": lambda n: experiments.fig10_11_library_curves(n),
    "table5": lambda n: experiments.table5_overhead_breakdown(),
    "ablation_transfer": lambda n: experiments.ablation_transfer_modes(),
    "ablation_slots": lambda n: experiments.ablation_library_slots(),
    "ablation_sim_distribution": lambda n: experiments.ablation_sim_distribution(),
    "extension_examol_l3": lambda n: experiments.extension_examol_l3(),
}

# ``trace`` is not part of "all": it drives the real engine with tracing
# enabled and writes a file (a Chrome trace), so it only runs when asked
# for by name.
TRACE_EXPERIMENT = "trace"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (or 'all'); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--quick", action="store_true", help="10k-invocation LNNI instead of 100k"
    )
    parser.add_argument(
        "--out",
        default="repro-trace.json",
        help="output path for the 'trace' experiment's Chrome trace JSON",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in [*EXPERIMENTS, TRACE_EXPERIMENT]:
            print(name)
        return 0
    chosen = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [
        c for c in chosen if c not in EXPERIMENTS and c != TRACE_EXPERIMENT
    ]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; use --list")
    n = 10_000 if args.quick else 100_000
    for name in chosen:
        started = time.monotonic()
        if name == TRACE_EXPERIMENT:
            result = experiments.trace_workload(out_path=args.out)
        else:
            result = EXPERIMENTS[name](n)
        elapsed = time.monotonic() - started
        print(f"\n=== {result.experiment} ({elapsed:.1f}s) ===")
        if result.paper_reference:
            print(f"(paper: {result.paper_reference})")
        print(result.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
