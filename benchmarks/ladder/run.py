#!/usr/bin/env python3
"""The repo's one benchmark: seven workloads, end-to-end and per-layer.

One measured run (the form ``BENCHMARK.json`` names; its last output
line is one JSON object)::

    python3 benchmarks/ladder/run.py --workload warm_bulk --seed 0 --seconds 10 --trace 0

``--trace 0`` reports every end-to-end metric from an untraced run;
``--trace 1`` reports every per-layer metric from the microbenchmark
rungs, an untraced window and a window under the program's own
``REPRO_TRACE=1``, and writes the benchmark's spans to
``out/trace-<workload>.json``.

Without ``--trace`` the script is the front end: it starts one such run
per workload (each in its own process, so peak memory and leaked state
are per workload) and prints the tables::

    python3 benchmarks/ladder/run.py                      # all workloads, end to end
    python3 benchmarks/ladder/run.py --traced             # ... plus the traced pass
    python3 benchmarks/ladder/run.py --workload rungs     # microbenchmark rungs only
    python3 benchmarks/ladder/run.py --agree --runs 10    # two sets of runs, compared
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LADDER_DIR))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path[:0] = [LADDER_DIR, SRC]
# Workers, libraries and shards are started with ``python -m repro...``.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

import runner  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


# ------------------------------------------------------------ one measured run
def _percentile(samples: List[float], q: float) -> float:
    return runner.percentile(samples, q) if samples else 0.0


def _median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _cpu_us_per_op(trial: runner.TrialResult) -> float:
    return _per(trial.cpu.get("total", 0.0), trial.window.ok, 1e6)


def _counting_factory(cls, seed: int, spans: runner.Spans, scratch: str, **kwargs):
    """Workload factory that gives each new instance its own directory."""
    built = itertools.count()
    return lambda: cls(seed, spans, os.path.join(scratch, f"s{next(built)}"), **kwargs)


def measure_end_to_end(name: str, seed: int, seconds: float, scratch: str):
    """The untraced run: every end-to-end metric of one workload."""
    import workloads

    trial = runner.run_trial(
        _counting_factory(workloads.WORKLOADS[name], seed, runner.Spans(), scratch),
        seconds,
    )
    window = trial.window
    # Medians over the window's waves where it has waves (runner.Window),
    # the value over the whole window where it is one piece.
    metrics = {
        "setup_s": _median(trial.setup_s),
        "throughput_per_s": _median(window.rates),
        "latency_p50_ms": _median(window.wave_p50_ms) or _percentile(window.latencies_ms, 50),
        "latency_p95_ms": _median(window.wave_p95_ms) or _percentile(window.latencies_ms, 95),
        "cpu_us_per_op": _median(window.wave_cpu_us) or _cpu_us_per_op(trial),
        "manager_rss_mb": runner.peak_rss_mb(),
    }
    samples = {"setup_s": trial.setup_s, "throughput_per_s": window.rates,
               "latency_ms": window.latencies_ms, "wave_p50_ms": window.wave_p50_ms,
               "wave_p95_ms": window.wave_p95_ms, "wave_cpu_us": window.wave_cpu_us}
    detail = {
        "samples": {k: runner.summarize(v) for k, v in samples.items() if v},
        "wall_s": window.wall_s,
        # What the workload read off the program's counters on the way.
        "layer": window.layer,
    }
    return [trial], metrics, detail


def measure_per_layer(name: str, seed: int, seconds: float, scratch: str):
    """The traced pass: rungs, then half the window untraced for the
    program's counters and half under ``REPRO_TRACE=1``."""
    import rungs
    import workloads

    layer = {metric: 0.0 for metric in PER_LAYER}
    layer.update(rungs.run_all(scratch))
    spans = runner.Spans()
    cls = workloads.WORKLOADS[name]
    is_engine = name != "sim_lnni"

    def one(tag: str, length: float, klass=cls, traced: bool = False):
        return runner.run_trial(
            _counting_factory(klass, seed, spans, os.path.join(scratch, tag), traced=traced),
            length,
            setups=1,
        )

    plain = one("plain", seconds / 2 if is_engine else seconds)
    trials = [plain]
    window, cpu = plain.window, plain.cpu
    layer.update(window.layer)
    if is_engine:
        bench = "router" if name == "router_bulk" else "manager"
        layer[f"{bench}.cpu_us_per_inv"] = _per(plain.bench_cpu_s, window.ok, 1e6)
        layer["worker.cpu_us_per_inv"] = _per(
            cpu.get("worker", 0.0) + cpu.get("task", 0.0), window.ok, 1e6
        )
        layer["library.cpu_us_per_inv"] = _per(cpu.get("library", 0.0), window.ok, 1e6)
        layer["shard.cpu_us_per_inv"] = _per(cpu.get("shard", 0.0), window.ok, 1e6)
    cpu_per_op = _cpu_us_per_op(plain)
    if is_engine:
        layer["ladder.accounted_fraction"] = _per(layer["ladder.rungs_sum_us"], cpu_per_op)
        traced = one("traced", seconds / 2, traced=True)
        trials.append(traced)
        for metric in ("library.execute_us", "library.deserialize_us",
                       "router.hop_p50_ms", "obs.spans_per_inv", "obs.dropped_spans"):
            layer[metric] = traced.window.layer.get(metric, 0.0)
        traced_cpu = _cpu_us_per_op(traced)
        if cpu_per_op and traced_cpu:
            layer["obs.trace_overhead_pct"] = 100.0 * (traced_cpu - cpu_per_op) / cpu_per_op
    if name == "router_bulk":
        # The same invocations through one manager price the router hop.
        reference = one("reference", seconds / 4, workloads.WarmBulk)
        trials.append(reference)
        layer["router.vs_manager_ratio"] = _per(
            _median(window.rates), _median(reference.window.rates)
        )
    layer["failed_fraction"] = _per(
        sum(t.window.failed for t in trials), sum(t.window.attempted for t in trials)
    )
    layer["payloads.leaked_segments"] = float(sum(t.leaked_segments for t in trials))
    trace_path = os.path.join(runner.OUT_DIR, f"trace-{name}.json")
    spans.write(trace_path)
    detail = {
        "trace_file": os.path.relpath(trace_path, ROOT),
        "self_time_s": runner.self_time_by_name(spans),
    }
    return trials, layer, detail


def measured_run(args: argparse.Namespace) -> int:
    """One run in the benchmark contract's form; last line is the result."""
    # A terminated run still unwinds: kills what it started, removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    fingerprint = runner.host_fingerprint()
    with runner.scratch_dir() as scratch, runner.owned_processes():
        measure = measure_per_layer if args.trace else measure_end_to_end
        trials, values, detail = measure(args.workload, args.seed, args.seconds, scratch)
    spec = PER_LAYER if args.trace else END_TO_END
    attempted = sum(t.window.attempted for t in trials)
    failed = sum(t.window.failed for t in trials)
    errors = [t.error for t in trials if t.error]
    leaked = sum(t.leaked_segments for t in trials)
    correct = attempted > 0 and failed == 0 and not errors and leaked == 0
    for metric, value in values.items():
        runner.emit(f"{metric:40s} {value:14.4f} {spec[metric]['unit']}")
    for key, summary in (detail.get("samples") or {}).items():
        runner.emit(
            f"  {key}: median {summary['median']:.4f} "
            f"[q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}] "
            f"min {summary['min']:.4f} over n={summary['n']}"
        )
    for span_name, seconds in sorted(
        (detail.get("self_time_s") or {}).items(), key=lambda kv: -kv[1]
    ):
        runner.emit(f"  self time {span_name:34s} {seconds:10.4f} s")
    for error in errors:
        runner.emit(f"  ERROR: {error}")
    if leaked:
        runner.emit(f"  ERROR: {leaked} payload segment(s) left in /dev/shm")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            metric: {"value": value, "unit": spec[metric]["unit"]}
            for metric, value in values.items()
        },
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(dict(result, workload=args.workload, seed=args.seed,
                           seconds=args.seconds, host=fingerprint, **detail), fh, indent=1)
    runner.emit(json.dumps(result))
    return 0


# ------------------------------------------------------------------ front end
def _child(
    workload: str, seed: int, seconds: float, trace: int, echo: bool = True
) -> Dict[str, Any]:
    """Run one measured run in its own process; return its JSON detail."""
    os.makedirs(runner.OUT_DIR, exist_ok=True)
    path = os.path.join(runner.OUT_DIR, f"result-{workload}-t{trace}-{os.getpid()}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--json", path,
    ]
    # Its own session, so a run that has to be cut short goes with
    # everything it started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=seconds * 4 + 2 * runner.HARD_TIMEOUT_SLACK_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise SystemExit(f"run of {workload} exited with {child.returncode}")
    if echo:
        for line in stdout.splitlines()[:-1]:
            print(f"    {line}")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    os.unlink(path)
    return detail


def _print_table(title: str, rows: Dict[str, Dict[str, Any]], spec: Dict[str, Any]) -> None:
    print(f"\n{title}")
    names = list(rows)
    print(f"{'metric':40s} {'unit':8s} " + " ".join(f"{n:>14s}" for n in names))
    for metric, meta in spec.items():
        cells = []
        for name in names:
            value = rows[name]["metrics"].get(metric, {}).get("value")
            cells.append(f"{value:14.4f}" if value is not None else f"{'-':>14s}")
        print(f"{metric:40s} {meta['unit']:8s} " + " ".join(cells))
    print(f"{'failed / attempted':49s} " + " ".join(
        f"{str(rows[n]['failed']) + '/' + str(rows[n]['attempted']):>14s}" for n in names
    ))


def run_set(names: List[str], seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    report: Dict[str, Any] = {"end_to_end": {}, "per_layer": {}}
    for name in names:
        print(f"== {name} (seed {seed}, {seconds:g} s window)")
        report["end_to_end"][name] = _child(name, seed, seconds, 0)
        if traced:
            print(f"== {name}, traced pass")
            report["per_layer"][name] = _child(name, seed, seconds, 1)
    _print_table("End-to-end metrics", report["end_to_end"], END_TO_END)
    if traced:
        _print_table("Per-layer metrics", report["per_layer"], PER_LAYER)
    return report


def agree(names: List[str], seed: int, seconds: float, runs: int) -> int:
    """Two sets of ``runs`` runs per workload, each run on another seed;
    prints both medians, their relative difference, the spread of the
    first set and the bound, and lists every pair outside its bound."""
    outside = []
    print(f"{'workload':14s} {'metric':20s} {'median A':>12s} {'median B':>12s} "
          f"{'worse by':>9s} {'spread A':>9s} {'bound':>6s}")
    for name in names:
        sets: List[Dict[str, List[float]]] = []
        for which in range(2):
            values: Dict[str, List[float]] = {m: [] for m in END_TO_END}
            for k in range(runs):
                detail = _child(name, seed + which * runs + k, seconds, 0, echo=False)
                if not detail["correct"]:
                    outside.append(f"{name}: a run of set {'AB'[which]} was not correct")
                for metric in END_TO_END:
                    values[metric].append(detail["metrics"][metric]["value"])
            sets.append(values)
        for metric, meta in END_TO_END.items():
            a, b = (statistics.median(s[metric]) for s in sets)
            worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            spread = runner.spread(sets[0][metric]) if runs >= 2 else 0.0
            flag = ""
            if worse > meta["bound"] or (metric != "setup_s" and spread > meta["bound"]):
                flag = "  <-- outside"
                outside.append(f"{name}.{metric}")
            print(f"{name:14s} {metric:20s} {a:12.4f} {b:12.4f} {worse:+9.1%} "
                  f"{spread:9.1%} {meta['bound']:6.0%}{flag}")
    print("\nOutside their bound: " + (", ".join(outside) if outside else "none"))
    return 1 if outside else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["rungs"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measured run; its last output line is the result")
    parser.add_argument("--traced", action="store_true",
                        help="front end: add the traced pass and the per-layer table")
    parser.add_argument("--agree", action="store_true",
                        help="front end: run two sets and compare their medians")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set for --agree, each on another seed")
    parser.add_argument("--json", metavar="OUT", help="also write the results here")
    args = parser.parse_args(argv)

    if args.workload == "rungs":
        import rungs

        with runner.scratch_dir() as scratch, runner.owned_processes():
            values = rungs.run_all(scratch)
        for metric, value in values.items():
            print(f"{metric:40s} {value:14.4f} {PER_LAYER[metric]['unit']}")
        return 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return measured_run(args)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    if args.agree:
        return agree(names, args.seed, args.seconds, args.runs)
    report = run_set(names, args.seed, args.seconds, args.traced)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    incorrect = [n for n, d in report["end_to_end"].items() if not d["correct"]]
    incorrect += [f"{n} (traced)" for n, d in report["per_layer"].items() if not d["correct"]]
    if incorrect:
        print("\nNOT CORRECT: " + ", ".join(incorrect))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
