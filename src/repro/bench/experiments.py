"""Implementations of every paper experiment (see DESIGN.md index).

Simulator experiments run at full paper scale by default (they are
event-driven and fast).  Real-engine experiments (Tables 2 and 5) run at
a reduced invocation count by default because this is a single-CPU
machine; set ``REPRO_BENCH_FULL=1`` to use the paper's counts.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence

from repro.bench.tables import TableResult, format_table
from repro.discover.environment import resolve_environment
from repro.distribute.broadcast import broadcast_makespan
from repro.distribute.topology import TransferMode, uniform_topology
from repro.engine.factory import LocalWorkerFactory
from repro.engine.manager import Manager
from repro.engine.task import ExecMode, FunctionCall, PythonTask, TaskState
from repro.sim.calibration import ReuseLevel, examol_cost_model, lnni_cost_model
from repro.sim.runner import run_examol, run_lnni
from repro.sim.trace import RunResult
from repro.util.stats import summarize

_FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
# CI smoke mode: clamp every experiment's invocation/task count so the
# whole benchmark suite runs in seconds.  Scale-dependent *assertions*
# in benchmarks/ are skipped under smoke (see benchmarks/conftest.py);
# the point is catching bit-rot (import errors, API drift, crashes),
# not validating paper-scale shapes.
_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_SMOKE_CAP = 200


def _cap(n: int) -> int:
    """Clamp a workload size to the CI smoke budget (≤200 invocations)."""
    return min(n, _SMOKE_CAP) if _SMOKE else n


def _perflog_path(name: str) -> str | None:
    """Perflog destination for a simulator harness, or None when off.

    The fig6-11 harnesses emit a time-series performance log per
    simulated run when ``REPRO_PERFLOG_DIR`` is set, so any table or
    figure regeneration doubles as input for
    ``python -m repro.obs report``.
    """
    directory = os.environ.get("REPRO_PERFLOG_DIR")
    if not directory:
        return None
    return os.path.join(directory, f"perflog-sim-{name}.jsonl")


def _simple_add(a: int, b: int) -> int:
    return a + b


# --------------------------------------------------------------------- Table 2
def table2_overhead(n_invocations: int | None = None) -> TableResult:
    """Overhead of executing N trivial Python functions three ways.

    Paper Table 2 uses 1,000 functions; the default here is 40 for the
    task mode (each spawns a fresh interpreter — expensive on one CPU)
    and 400 for invocation mode, preserving the contrast the table makes:
    per-invocation overhead is orders of magnitude below per-task.
    """
    n_task = _cap(n_invocations or (1000 if _FULL else 40))
    n_invoc = _cap(n_invocations or (1000 if _FULL else 400))
    n_local = _cap(n_invocations or 1000)

    # Local invocation.
    started = time.monotonic()
    for i in range(n_local):
        _simple_add(i, i)
    local_total = time.monotonic() - started
    rows: List[List[str]] = [
        [
            "Local Invocation",
            str(n_local),
            f"{local_total:.6f}",
            "0",
            f"{local_total / n_local:.2e}",
        ]
    ]
    values: Dict[str, float] = {"local_per_invocation": local_total / n_local}

    # Remote Task: every execution is a fresh interpreter reloading context.
    with Manager() as manager:
        started = time.monotonic()
        with LocalWorkerFactory(manager, count=1, cores=2) as _:
            setup_done = time.monotonic()
            tasks = [PythonTask(_simple_add, i, i) for i in range(n_task)]
            for t in tasks:
                manager.submit(t)
            manager.wait_all(tasks, timeout=max(600.0, 2.0 * n_task))
        total = time.monotonic() - started
        worker_overhead = setup_done - started
        per_invocation = (total - worker_overhead) / n_task
        rows.append(
            [
                "Remote Task",
                str(n_task),
                f"{total:.3f}",
                f"{worker_overhead:.3f}",
                f"{per_invocation:.4f}",
            ]
        )
        values["task_per_invocation"] = per_invocation

    # Remote Invocation: a persistent library retains the context.
    with Manager() as manager:
        started = time.monotonic()
        library = manager.create_library_from_functions(
            "table2", _simple_add, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2) as _:
            warmup = FunctionCall("table2", "_simple_add", 0, 0)
            manager.submit(warmup)
            manager.wait_all([warmup], timeout=120.0)
            setup_done = time.monotonic()
            calls = [FunctionCall("table2", "_simple_add", i, i) for i in range(n_invoc)]
            for c in calls:
                manager.submit(c)
            manager.wait_all(calls, timeout=max(600.0, 0.5 * n_invoc))
            total = time.monotonic() - started
        worker_overhead = setup_done - started
        per_invocation = (total - worker_overhead) / n_invoc
        rows.append(
            [
                "Remote Invocation",
                str(n_invoc),
                f"{total:.3f}",
                f"{worker_overhead:.3f}",
                f"{per_invocation:.4f}",
            ]
        )
        values["invocation_per_invocation"] = per_invocation

    text = format_table(
        ["Mode", "N", "Total Time (s)", "Overhead per Worker (s)", "Overhead per Invocation (s)"],
        rows,
    )
    return TableResult(
        experiment="table2",
        text=text,
        values=values,
        paper_reference="Table 2: overhead of executing 1,000 Python functions",
    )


# ----------------------------------------------------------- chaos smoke
def _chaos_fn(x):
    import time as _time

    _time.sleep(0.2)
    return x + 1


def chaos_smoke(
    n_invocations: int | None = None,
    workers: int = 4,
) -> TableResult:
    """Fault-tolerance smoke: finish a workload while workers die under it.

    One worker is SIGKILLed and another SIGSTOP'd mid-run (the harness in
    :mod:`repro.engine.faults`); each fault fires only once its victim
    holds dispatched work, so the run cannot finish without crossing the
    recovery paths.  The run passes when every invocation still completes
    exactly once, both losses are detected (socket error for the kill,
    liveness deadline for the stall), and the total requeue count stays
    inside the ``max_retries * n`` budget.
    """
    from repro.engine.faults import FaultInjector

    def wait_for_dispatch(calls, worker_name, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(
                c.worker == worker_name and c.state is TaskState.DISPATCHED
                for c in calls
            ):
                return
            manager.wait(timeout=0.05)

    n = n_invocations or (200 if _FULL else 60)
    with Manager(
        liveness_deadline=2.0, max_retries=5, retry_backoff=0.1
    ) as manager:
        library = manager.create_library_from_functions(
            "chaos-bench", _chaos_fn, function_slots=2
        )
        manager.install_library(library)
        factory = LocalWorkerFactory(
            manager,
            count=workers,
            cores=2,
            name_prefix="chaos",
            status_interval=0.25,
        )
        factory.start()
        injector = FaultInjector(manager, factory)
        started = time.monotonic()
        faults: List[str] = []
        try:
            calls = [FunctionCall("chaos-bench", "_chaos_fn", i) for i in range(n)]
            for call in calls:
                manager.submit(call)
            wait_for_dispatch(calls, "chaos-0")
            injector.kill_worker(0)
            faults.append(f"{time.monotonic() - started:.2f}s kill chaos-0")
            wait_for_dispatch(calls, "chaos-1")
            injector.stall_worker(1)
            faults.append(f"{time.monotonic() - started:.2f}s stall chaos-1")
            injector.drive(calls, timeout=240.0)
            total = time.monotonic() - started
            completed = sum(1 for c in calls if c.successful)
        finally:
            injector.resume_worker(1)
            factory.stop()
        stats = manager.stats
    values: Dict[str, float] = {
        "n": float(n),
        "workers": float(workers),
        "total_s": total,
        "completed": float(completed),
        "workers_lost": stats.get("workers_lost", 0.0),
        "liveness_expirations": stats.get("liveness_expirations", 0.0),
        "requeued": stats.get("requeued", 0.0),
        "requeue_budget": float(manager.max_retries * n),
        "retry_exhausted": stats.get("retry_exhausted", 0.0),
        "failed": stats.get("failed", 0.0),
    }
    text = format_table(
        ["Metric", "Value"],
        [
            ["Invocations", str(n)],
            ["Workers (start)", str(workers)],
            ["Faults fired", "; ".join(faults) or "none"],
            ["Total time (s)", f"{total:.3f}"],
            ["Completed", f"{completed:.0f}"],
            ["Workers lost", f"{values['workers_lost']:.0f}"],
            ["Liveness expirations", f"{values['liveness_expirations']:.0f}"],
            [
                "Requeued",
                f"{values['requeued']:.0f} (budget {values['requeue_budget']:.0f})",
            ],
            ["Retry-exhausted", f"{values['retry_exhausted']:.0f}"],
        ],
    )
    return TableResult(
        experiment="chaos_smoke",
        text=text,
        values=values,
        paper_reference=(
            "not a paper table: failure-path guard for the stateful-worker "
            "design (lost workers destroy retained contexts, §3.4-3.6)"
        ),
    )


# ------------------------------------------------------- LNNI level sweep (shared)
_lnni_cache: Dict[tuple, RunResult] = {}


def lnni_levels(
    n_invocations: int = 100_000,
    n_workers: int = 150,
    levels: Sequence[ReuseLevel] = (ReuseLevel.L1, ReuseLevel.L2, ReuseLevel.L3),
    inferences: int = 16,
) -> Dict[str, RunResult]:
    """Simulate LNNI at each level (memoized — Table 4 / Figs 6a, 7 share runs)."""
    n_invocations = _cap(n_invocations)
    out = {}
    for level in levels:
        perflog = _perflog_path(
            f"lnni-{level.value}-{n_invocations}x{inferences}-w{n_workers}"
        )
        key = (level, n_invocations, n_workers, inferences, perflog)
        if key not in _lnni_cache:
            _lnni_cache[key] = run_lnni(
                level,
                n_invocations=n_invocations,
                inferences_per_invocation=inferences,
                n_workers=n_workers,
                perflog=perflog,
            )
        out[level.value] = _lnni_cache[key]
    return out


# --------------------------------------------------------------------- Figure 6
def fig6_execution_times(
    lnni_invocations: int = 100_000, examol_tasks: int = 10_000
) -> TableResult:
    """Figure 6: application execution time per context-reuse level."""
    lnni_invocations = _cap(lnni_invocations)
    examol_tasks = _cap(examol_tasks)
    lnni = lnni_levels(lnni_invocations)
    rows = [
        [f"LNNI-{lnni_invocations // 1000}k", level, f"{res.makespan:.0f}"]
        for level, res in lnni.items()
    ]
    values = {f"lnni_{level}": res.makespan for level, res in lnni.items()}
    for level in (ReuseLevel.L1, ReuseLevel.L2):  # paper evaluates ExaMol at L1/L2
        res = run_examol(
            level,
            n_tasks=examol_tasks,
            perflog=_perflog_path(f"examol-{level.value}-{examol_tasks}"),
        )
        rows.append([f"ExaMol-{examol_tasks // 1000}k", level.value, f"{res.makespan:.0f}"])
        values[f"examol_{level.value}"] = res.makespan
    lnni_redn = 100.0 * (1.0 - values["lnni_L3"] / values["lnni_L1"])
    examol_redn = 100.0 * (1.0 - values["examol_L2"] / values["examol_L1"])
    values["lnni_reduction_pct"] = lnni_redn
    values["examol_reduction_pct"] = examol_redn
    text = format_table(["Application", "Level", "Execution Time (s)"], rows)
    text += (
        f"\nLNNI L1->L3 reduction: {lnni_redn:.1f}% (paper: 94.5%)"
        f"\nExaMol L1->L2 reduction: {examol_redn:.1f}% (paper: 26.9%)"
    )
    return TableResult(
        experiment="fig6",
        text=text,
        values=values,
        paper_reference="Figure 6: LNNI 7485/3361/414s; ExaMol 4600/3364s",
    )


# --------------------------------------------------------------------- Figure 7
def fig7_histograms(n_invocations: int = 100_000) -> TableResult:
    """Figure 7: invocation run-time histograms per level (clipped at 40s)."""
    results = lnni_levels(n_invocations)
    chunks = []
    values: Dict[str, object] = {}
    for level, res in results.items():
        hist = res.histogram(0.0, 40.0, 20)
        mode_lo, mode_hi = hist.mode_range()
        chunks.append(
            f"--- {level} (mode bin {mode_lo:.0f}-{mode_hi:.0f}s, "
            f"clipped {hist.overflow}) ---\n" + hist.render(width=44)
        )
        values[f"{level}_mode_lo"] = mode_lo
        values[f"{level}_mode_hi"] = mode_hi
    return TableResult(
        experiment="fig7",
        text="\n".join(chunks),
        values=values,
        paper_reference="Figure 7: L1 ~12-20s, L2 ~10-16s, L3 ~3-7s clusters",
    )


# --------------------------------------------------------------------- Table 4
def table4_runtime_stats(n_invocations: int = 100_000) -> TableResult:
    """Table 4: mean/std/min/max invocation run time per level."""
    results = lnni_levels(n_invocations)
    rows = []
    values: Dict[str, float] = {}
    for level, res in results.items():
        s = res.runtime_stats
        rows.append([level, f"{s.mean:.2f}", f"{s.std:.2f}", f"{s.min:.2f}", f"{s.max:.2f}"])
        values[f"{level}_mean"] = s.mean
        values[f"{level}_std"] = s.std
        values[f"{level}_min"] = s.min
        values[f"{level}_max"] = s.max
    text = format_table(["Level", "Mean", "Std Deviation", "Min", "Max"], rows)
    return TableResult(
        experiment="table4",
        text=text,
        values=values,
        paper_reference="Table 4: L1 21.59/34.78/6.71/289.72; L2 13.48/3.68/6.09/45.33; "
        "L3 4.77/3.43/2.67/39.51 (seconds)",
    )


# --------------------------------------------------------------------- Figure 8
def fig8_invocation_length_sweep(n_invocations: int = 10_000) -> TableResult:
    """Figure 8: effect of invocation length (16/160/1600 inferences)."""
    n_invocations = _cap(n_invocations)
    rows = []
    values: Dict[str, float] = {}
    for inferences in (16, 160, 1600):
        makespans = {}
        for level in (ReuseLevel.L1, ReuseLevel.L2, ReuseLevel.L3):
            res = run_lnni(
                level,
                n_invocations=n_invocations,
                inferences_per_invocation=inferences,
                n_workers=100,
                perflog=_perflog_path(
                    f"fig8-{level.value}-{inferences}inf-{n_invocations}"
                ),
            )
            makespans[level.value] = res.makespan
            values[f"{level.value}_{inferences}"] = res.makespan
        redn_l1 = 100.0 * (1.0 - makespans["L3"] / makespans["L1"])
        redn_l2 = 100.0 * (1.0 - makespans["L3"] / makespans["L2"])
        values[f"reduction_vs_l1_{inferences}"] = redn_l1
        rows.append(
            [
                str(inferences),
                f"{makespans['L1']:.0f}",
                f"{makespans['L2']:.0f}",
                f"{makespans['L3']:.0f}",
                f"{redn_l1:.1f}%",
                f"{redn_l2:.1f}%",
            ]
        )
    text = format_table(
        ["Inferences/invoc", "L1 (s)", "L2 (s)", "L3 (s)", "L3 vs L1", "L3 vs L2"],
        rows,
    )
    return TableResult(
        experiment="fig8",
        text=text,
        values=values,
        paper_reference="Figure 8: speedup 81%/75% at 16 inf, 41.3%/41.2% at 160, "
        "15.6%/3.7% at 1600",
    )


# --------------------------------------------------------------------- Figure 9
def fig9_worker_sweep(n_invocations: int = 10_000) -> TableResult:
    """Figure 9: effect of worker count (plus the 10/25-worker L3 note)."""
    n_invocations = _cap(n_invocations)
    rows = []
    values: Dict[str, float] = {}
    for n_workers in (50, 100, 150):
        cells = []
        for level in (ReuseLevel.L1, ReuseLevel.L2, ReuseLevel.L3):
            exclude = ("group2",) if (level is ReuseLevel.L3 and n_workers == 50) else ()
            res = run_lnni(
                level,
                n_invocations=n_invocations,
                n_workers=n_workers,
                exclude_groups=exclude,
                perflog=_perflog_path(
                    f"fig9-{level.value}-w{n_workers}-{n_invocations}"
                ),
            )
            cells.append(f"{res.makespan:.0f}")
            values[f"{level.value}_{n_workers}"] = res.makespan
        rows.append([str(n_workers), *cells])
    # The paper's text: L3 at 10 and 25 workers rises to 455s and 145s.
    for n_workers in (10, 25):
        res = run_lnni(ReuseLevel.L3, n_invocations=n_invocations, n_workers=n_workers)
        values[f"L3_{n_workers}"] = res.makespan
        rows.append([str(n_workers), "-", "-", f"{res.makespan:.0f}"])
    text = format_table(["Workers", "L1 (s)", "L2 (s)", "L3 (s)"], rows)
    return TableResult(
        experiment="fig9",
        text=text,
        values=values,
        paper_reference="Figure 9: L3 flat 50->150 workers; text: 455s @10, 145s @25",
    )


# ---------------------------------------------------------------- Figures 10/11
def fig10_11_library_curves(n_invocations: int = 100_000) -> TableResult:
    """Figures 10 & 11: deployed libraries and mean share value over time."""
    n_invocations = _cap(n_invocations)
    res = lnni_levels(n_invocations, levels=(ReuseLevel.L3,))["L3"]
    timeline = res.trace.library_timeline
    shares = res.trace.share_timeline
    step = max(1, len(timeline) // 12)
    rows = [
        [str(done), str(active), f"{share:.1f}"]
        for (done, active), (_, share) in list(zip(timeline, shares))[::step]
    ]
    peak = res.peak_libraries()
    # Steady-state: median active count over the middle of the run.
    mid = [active for done, active in timeline if 0.3 <= done / n_invocations <= 0.9]
    steady = sorted(mid)[len(mid) // 2] if mid else 0
    text = format_table(["Completed invocations", "Active libraries", "Mean share value"], rows)
    text += f"\npeak libraries: {peak}; steady-state (mid-run median): {steady}"
    return TableResult(
        experiment="fig10_11",
        text=text,
        values={
            "peak_libraries": peak,
            "steady_state_libraries": steady,
            "final_share": shares[-2][1] if len(shares) > 1 else 0.0,
            "timeline": timeline,
            "shares": shares,
        },
        paper_reference="Fig 10: ramp to ~2400, settle ~2000; Fig 11: linear share growth",
    )


# --------------------------------------------------------------------- Table 5
def table5_overhead_breakdown(synthetic_modules: int = 24) -> TableResult:
    """Table 5: overhead breakdown of L2-cold/L2-hot/L3-library/L3-invocation.

    Manager and worker run on this machine (as in the paper's §4.7 setup).
    A synthetic pure-Python dependency package exercises the transfer +
    unpack path; the MiniResNet weight archive is the shared input datum.
    """
    import tempfile

    from repro.apps.lnni.workload import (
        WEIGHTS_FILE,
        lnni_context_setup,
        lnni_infer,
        lnni_task,
        save_pretrained,
    )
    from repro.discover.data import declare_data
    from repro.discover.packaging import pack_environment

    weights = save_pretrained()
    rows = []
    values: Dict[str, Dict[str, float]] = {}

    with tempfile.TemporaryDirectory(prefix="repro-table5-") as tmp:
        # Build a synthetic dependency package (the conda-pack stand-in).
        pkg_root = os.path.join(tmp, "synthdep")
        os.makedirs(pkg_root)
        with open(os.path.join(pkg_root, "__init__.py"), "w") as fh:
            fh.write("VERSION = '1.0'\n")
        filler = "\n".join(f"def f{i}(x):\n    return x + {i}" for i in range(200))
        for i in range(synthetic_modules):
            with open(os.path.join(pkg_root, f"mod{i:03d}.py"), "w") as fh:
                fh.write(f'"""synthetic dependency module {i}."""\n' + filler + "\n")
        import sys

        sys.path.insert(0, tmp)
        try:
            spec = resolve_environment(["synthdep"])
            env_path = os.path.join(tmp, "env.tar.gz")
            pack_environment(spec, env_path)

            with Manager() as manager:
                env_file = manager.declare_file(env_path, remote_name="env.tar.gz")
                weights_file = manager.declare_buffer(weights, WEIGHTS_FILE)
                with LocalWorkerFactory(manager, count=1, cores=4) as _:
                    # ---- L2 Cold then Hot: task mode with cached env+data.
                    for label in ("L2 (Cold)", "L2 (Hot)"):
                        task = PythonTask(lnni_task, 1, 16)
                        task.add_input(weights_file)
                        task.set_environment(env_file)
                        manager.submit(task)
                        manager.wait_all([task], timeout=300.0)
                        ov = dict(task.overheads)  # type: ignore[attr-defined]
                        transfer = task.timeline.get("overhead.manager_transfer", 0.0) + ov.get(
                            "staging", 0.0
                        )
                        breakdown = {
                            "transfer": transfer,
                            "worker": ov.get("worker_overhead", 0.0),
                            # reload + payload deserialization: task_runner
                            # reports them separately since the obs split.
                            "invoc": ov.get("reload_overhead", 0.0)
                            + ov.get("deserialize", 0.0),
                            "exec": ov.get("exec_time", 0.0),
                        }
                        values[label] = breakdown
                        rows.append(
                            [
                                label,
                                f"{breakdown['transfer']:.4f}",
                                f"{breakdown['worker']:.4f}",
                                f"{breakdown['invoc']:.4f}",
                                f"{breakdown['exec']:.4f}",
                            ]
                        )

                    # ---- L3: library deploy, then a warm invocation.
                    # Its transfer cell counts only what L3 itself sends.
                    transfer_before = manager.stats.get("transfer_seconds", 0.0)
                    binding = declare_data(weights, remote_name=WEIGHTS_FILE)
                    library = manager.create_library_from_functions(
                        "lnni5",
                        lnni_infer,
                        context=lnni_context_setup,
                        data=[binding],
                        extra_imports=["synthdep"],
                        function_slots=2,
                    )
                    manager.install_library(library)
                    first = FunctionCall("lnni5", "lnni_infer", 0, 16)
                    manager.submit(first)
                    manager.wait_all([first], timeout=300.0)
                    deploys = manager.library_deploy_times("lnni5")
                    deploy = deploys[0] if deploys else {}
                    lib_row = {
                        "transfer": manager.stats.get("transfer_seconds", 0.0)
                        - transfer_before,
                        "worker": deploy.get("worker_overhead", 0.0),
                        "invoc": deploy.get("library_overhead", 0.0),
                        "exec": float("nan"),
                    }
                    values["L3 (Library)"] = lib_row
                    rows.append(
                        [
                            "L3 (Library)",
                            f"{lib_row['transfer']:.4f}",
                            f"{lib_row['worker']:.4f}",
                            f"{lib_row['invoc']:.4f}",
                            "N/A",
                        ]
                    )
                    call = FunctionCall("lnni5", "lnni_infer", 1, 16)
                    manager.submit(call)
                    manager.wait_all([call], timeout=120.0)
                    ov = dict(call.overheads)  # type: ignore[attr-defined]
                    invoc_row = {
                        "transfer": ov.get("staging", 0.0),
                        "worker": ov.get("worker_overhead", 0.0),
                        "invoc": ov.get("invoc_overhead", 0.0),
                        "exec": ov.get("exec_time", 0.0),
                    }
                    values["L3 (Invoc.)"] = invoc_row
                    rows.append(
                        [
                            "L3 (Invoc.)",
                            f"{invoc_row['transfer']:.2e}",
                            f"{invoc_row['worker']:.2e}",
                            f"{invoc_row['invoc']:.2e}",
                            f"{invoc_row['exec']:.4f}",
                        ]
                    )
        finally:
            sys.path.remove(tmp)

    text = format_table(
        ["", "Invoc.&Data Transfer", "Worker Overhead", "Library/Invoc. Overhead", "Exec. Time"],
        rows,
    )
    return TableResult(
        experiment="table5",
        text=text,
        values=values,
        paper_reference="Table 5: L2-cold 1.004/15.435/0.403/5.469; "
        "L3-invoc 2.3e-4/2.8e-4/5.1e-4/3.079 (seconds)",
    )


# ------------------------------------------------------------------- Ablations
def ablation_transfer_modes(
    n_workers: int = 150, object_mb: float = 572.0
) -> TableResult:
    """Figure 3 ablation: broadcast makespan under the three regimes."""
    size = int(object_mb * 1e6)
    rows = []
    values: Dict[str, float] = {}
    topo = uniform_topology(n_workers)
    for mode in (TransferMode.MANAGER_ONLY, TransferMode.PEER, TransferMode.CLUSTER_AWARE):
        makespan = broadcast_makespan(topo, size, mode)
        rows.append([mode.value, f"{makespan:.1f}"])
        values[mode.value] = makespan
    # Cluster-aware shines with a slow inter-cluster link: half the fleet remote.
    mixed = uniform_topology(n_workers // 2)
    for i in range(n_workers - n_workers // 2):
        mixed.add_worker(f"cloud-{i:04d}", cluster="cloud")
    for mode in (TransferMode.MANAGER_ONLY, TransferMode.PEER, TransferMode.CLUSTER_AWARE):
        makespan = broadcast_makespan(mixed, size, mode)
        rows.append([f"{mode.value} (2 clusters)", f"{makespan:.1f}"])
        values[f"{mode.value}_2c"] = makespan
    text = format_table(["Distribution mode", "Broadcast makespan (s)"], rows)
    return TableResult(
        experiment="ablation_transfer",
        text=text,
        values=values,
        paper_reference="Figure 3: manager-only vs peer spanning tree vs cluster-aware",
    )


def extension_examol_l3(n_tasks: int = 10_000) -> TableResult:
    """Beyond the paper: project ExaMol's benefit from full L3 reuse.

    §4.2: "L3 is not supported yet for Examol since it's unclear whether
    arbitrary functions can fit in and be compatible to each other
    within a function context process."  The simulator has no such
    constraint, so we can project what retaining ExaMol's contexts in
    memory would buy once that engineering lands.
    """
    n_tasks = _cap(n_tasks)
    rows = []
    values: Dict[str, float] = {}
    for level in (ReuseLevel.L1, ReuseLevel.L2, ReuseLevel.L3):
        res = run_examol(level, n_tasks=n_tasks)
        rows.append([level.value, f"{res.makespan:.0f}"])
        values[level.value] = res.makespan
    values["l3_vs_l2_pct"] = 100.0 * (1.0 - values["L3"] / values["L2"])
    text = format_table(["Level", "Makespan (s)"], rows)
    text += (
        f"\nprojected further reduction from L2 to L3: "
        f"{values['l3_vs_l2_pct']:.1f}% (not measured in the paper)"
    )
    return TableResult(
        experiment="extension_examol_l3",
        text=text,
        values=values,
        paper_reference="§4.2: ExaMol L3 unsupported in the paper; simulator projection",
    )


def ablation_sim_distribution(n_invocations: int = 10_000) -> TableResult:
    """End-to-end effect of peer transfer inside a full application run.

    The broadcast-level ablation (Figure 3) times one transfer in
    isolation; this one measures how context distribution mode moves the
    *application* makespan at L2 and L3, where 150 cold workers all need
    the 572 MB environment at startup.
    """
    n_invocations = _cap(n_invocations)
    rows = []
    values: Dict[str, float] = {}
    for level in (ReuseLevel.L2, ReuseLevel.L3):
        for peer, label in ((True, "peer"), (False, "manager-only")):
            res = run_lnni(
                level,
                n_invocations=n_invocations,
                n_workers=150,
                model=lnni_cost_model(peer_transfer=peer),
            )
            rows.append([level.value, label, f"{res.makespan:.1f}"])
            values[f"{level.value}_{label}"] = res.makespan
    text = format_table(["Level", "Distribution", "Makespan (s)"], rows)
    return TableResult(
        experiment="ablation_sim_distribution",
        text=text,
        values=values,
        paper_reference="§3.3: TaskVine's built-in data distribution "
        "(spanning tree vs manager-sequential)",
    )


def ablation_library_slots(n_invocations: int = 10_000) -> TableResult:
    """§3.5.2 ablation: 16 one-slot libraries vs 1 sixteen-slot library."""
    n_invocations = _cap(n_invocations)
    rows = []
    values: Dict[str, float] = {}
    for slots, label in ((1, "16 x 1-slot"), (16, "1 x 16-slot")):
        res = run_lnni(
            ReuseLevel.L3,
            n_invocations=n_invocations,
            n_workers=150,
            model=lnni_cost_model(library_slots=slots),
        )
        rows.append(
            [label, f"{res.makespan:.1f}", str(res.trace.libraries_deployed_total)]
        )
        values[f"makespan_{slots}"] = res.makespan
        values[f"libraries_{slots}"] = res.trace.libraries_deployed_total
    text = format_table(["Library geometry", "Makespan (s)", "Libraries deployed"], rows)
    return TableResult(
        experiment="ablation_slots",
        text=text,
        values=values,
        paper_reference="§3.5.2: alternative library slot allocations",
    )


# ------------------------------------------------------------- Trace harness
def trace_workload(
    n_invocations: int = 8,
    n_tasks: int = 2,
    out_path: str = "repro-trace.json",
) -> TableResult:
    """Run a small LNNI workload with tracing on; export a Chrome trace.

    Drives the real engine (manager + worker + library processes) with
    ``REPRO_TRACE`` enabled, so the manager assembles a merged timeline
    containing events from all three process kinds: its own dispatch and
    transfer events, the worker's staging/cache events piggybacked on
    result frames, and the library's warm/invoke events relayed through
    the worker.  Writes Chrome ``trace_event`` JSON (viewable at
    https://ui.perfetto.dev) and prints the paper's six-component
    per-invocation cost report.
    """
    from repro.apps.lnni.workload import (
        WEIGHTS_FILE,
        lnni_context_setup,
        lnni_infer,
        lnni_task,
        save_pretrained,
    )
    from repro.discover.data import declare_data
    from repro.obs.export import cost_report, write_chrome_trace

    n_invocations = _cap(n_invocations)
    n_tasks = _cap(n_tasks)
    previous = os.environ.get("REPRO_TRACE")
    os.environ["REPRO_TRACE"] = "1"  # children inherit the env at spawn
    try:
        weights = save_pretrained()
        with Manager() as manager:
            binding = declare_data(weights, remote_name=WEIGHTS_FILE)
            library = manager.create_library_from_functions(
                "lnni-trace",
                lnni_infer,
                context=lnni_context_setup,
                data=[binding],
                function_slots=2,
            )
            manager.install_library(library)
            weights_file = manager.declare_buffer(weights, WEIGHTS_FILE)
            with LocalWorkerFactory(manager, count=1, cores=2):
                calls = [
                    FunctionCall("lnni-trace", "lnni_infer", seed, 4)
                    for seed in range(n_invocations)
                ]
                tasks = []
                for seed in range(n_tasks):
                    task = PythonTask(lnni_task, 1000 + seed, 4)
                    task.add_input(weights_file)
                    tasks.append(task)
                for work in [*calls, *tasks]:
                    manager.submit(work)
                manager.wait_all([*calls, *tasks], timeout=300.0)
            # Snapshot before close(): close flushes (and empties) the ring.
            events = manager.trace_events()
    finally:
        if previous is None:
            os.environ.pop("REPRO_TRACE", None)
        else:
            os.environ["REPRO_TRACE"] = previous

    write_chrome_trace(events, out_path)
    components = sorted({e.component.split(".")[0] for e in events})
    report = cost_report(events)
    text = (
        f"wrote Chrome trace: {out_path} "
        f"({len(events)} events; open in https://ui.perfetto.dev)\n"
        f"processes traced: {', '.join(components)}\n" + report
    )
    return TableResult(
        experiment="trace",
        text=text,
        values={
            "events": len(events),
            "task_cost_events": sum(1 for e in events if e.etype == "task_cost"),
            "components": components,
            "out_path": out_path,
        },
        paper_reference="§4.7 / Table 5: per-invocation cost decomposition",
    )
