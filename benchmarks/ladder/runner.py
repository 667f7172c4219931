"""Shared trial runner of the ladder benchmark.

Everything here is workload-independent: sample statistics, the span
recorder with self-time accounting, ``/proc`` CPU readers for the
processes the run started, the hard per-run deadline, the
scratch directory every engine object is pointed at, the ``/dev/shm``
leak check, the host fingerprint, and :func:`run_trial`, which drives
a workload through repeated set-up, the timed window and a teardown
that leaves no process behind.

Nothing in this module imports :mod:`repro`; the workloads do.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(LADDER_DIR, "out")

# Set-up is repeated this many times per run and its median reported,
# so one slow fork-exec does not decide ``setup_s``.
SETUPS = 3
# A run that has not finished this long after its timed window should
# have closed is wedged: its unfinished operations are failures.
HARD_TIMEOUT_SLACK_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "repro-pl-"  # repro.engine.payloads.SHM_PREFIX


# ------------------------------------------------------------- statistics
def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, minimum and the sample count they rest on."""
    return {
        "n": len(samples),
        "median": percentile(samples, 50),
        "q1": percentile(samples, 25),
        "q3": percentile(samples, 75),
        "min": min(samples),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the number the
    acceptance check compares with a metric's bound."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ------------------------------------------------------------------ spans
class Spans:
    """In-memory span recorder around the benchmark's calls into a layer.

    A span is ``name, start, end, parent, op`` — ``op`` is the identifier
    every span of one operation batch shares.  Spans nest by call
    structure; :func:`self_times` turns them into self time.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.records[parent]["op"]
        record = {
            "id": index,
            "name": name,
            "op": op,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        """Write every finished span, with its self time, as JSON."""
        finished = [r for r in self.records if r["end"] is not None]
        own = self_times(finished)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [dict(r, self_s=own[r["id"]]) for r in finished], fh, indent=1
            )


def self_times(records: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: duration minus the part of the interval
    its child spans cover (overlapping children are counted once)."""
    records = list(records)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for r in records:
        if r["parent"] is not None:
            children.setdefault(r["parent"], []).append(r)
    own: Dict[int, float] = {}
    for r in records:
        covered = 0.0
        reach = r["start"]
        for child in sorted(children.get(r["id"], []), key=lambda c: c["start"]):
            start = max(child["start"], reach)
            end = min(child["end"], r["end"])
            if end > start:
                covered += end - start
                reach = end
        own[r["id"]] = (r["end"] - r["start"]) - covered
    return own


def self_time_by_name(spans: Spans) -> Dict[str, float]:
    """Total self seconds per span name."""
    finished = [r for r in spans.records if r["end"] is not None]
    own = self_times(finished)
    totals: Dict[str, float] = {}
    for r in finished:
        totals[r["name"]] = totals.get(r["name"], 0.0) + own[r["id"]]
    return totals


# -------------------------------------------------------------- processes
_RUN_MARK = "LADDER_RUN"
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
_TRACKER = "multiprocessing.resource_tracker"


def mark_descendants() -> None:
    """Put a marker into the environment every child inherits, so each
    worker, library, shard and task runner this run (transitively)
    starts can be found — and stopped — even after its parent died.

    The process also becomes the reaper of its orphaned descendants: a
    worker's or library's ``multiprocessing`` resource tracker ends only
    after its owner has, and would otherwise be handed to init and
    outlive (as a process or as a zombie) the run that caused it.
    """
    os.environ[_RUN_MARK] = str(os.getpid())
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


@contextlib.contextmanager
def owned_processes() -> Iterator[None]:
    """Everything started inside is stopped and waited for on the way
    out, whichever way out that is."""
    mark_descendants()
    try:
        yield
    finally:
        kill_descendants()
        end_trackers()


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    # The command name may contain spaces and parentheses; fields are
    # counted from the last ')'.
    return text[text.rfind(")") + 2 :].split()


_KINDS = (
    ("repro.engine.worker_main", "worker"),
    ("repro.engine.library_main", "library"),
    ("repro.engine.shard_main", "shard"),
    ("repro.engine.task_runner", "task"),
)


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().decode("utf-8", "replace")
    except OSError:
        return ""


def _kind_of(pid: int) -> str:
    cmdline = _cmdline(pid)
    for needle, kind in _KINDS:
        if needle in cmdline:
            return kind
    return "other"


def descendants(trackers: bool = False) -> List[int]:
    """Pids of every live process carrying this run's marker.

    ``multiprocessing`` resource trackers are listed only on request:
    each is the helper of one process that uses shared memory (this one
    included), ignores SIGTERM and exits by itself once its owner has;
    :func:`end_trackers` sees them off.
    """
    needle = f"{_RUN_MARK}={os.getpid()}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                marked = needle in fh.read().split(b"\0")
        except OSError:
            continue  # gone, or not ours to read
        if marked and (_TRACKER in _cmdline(int(entry))) == trackers:
            pids.append(int(entry))
    return pids


def cpu_snapshot() -> Dict[str, float]:
    """CPU seconds consumed so far, by process kind.

    Each process counts its own user+system time plus that of the
    children it has reaped, so a library evicted (or a task runner
    finished) inside a window still shows in the window's delta.
    ``bench`` is this process; ``total`` sums every kind.
    """
    own = os.times()
    snapshot = {
        # Finer than the 10 ms ticks of /proc: the clock of this process,
        # plus the tick-counted time of the children it has reaped.
        "bench": time.process_time() + own.children_user + own.children_system,
        "worker": 0.0, "library": 0.0, "shard": 0.0, "task": 0.0, "other": 0.0,
    }
    for pid in descendants():
        fields = _stat_fields(pid)
        if fields is None:
            continue
        ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
        snapshot[_kind_of(pid)] += ticks / _CLK_TCK
    snapshot["total"] = sum(snapshot.values())
    return snapshot


def cpu_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {kind: after[kind] - before[kind] for kind in after}


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kill_descendants(grace: float = 3.0) -> int:
    """Stop every process this run started that is still alive and wait
    until each has ended; returns how many had to be signalled."""
    found = alive = descendants()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not alive:
            break
        for pid in alive:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline_at = time.monotonic() + grace
        while alive and time.monotonic() < deadline_at:
            _reap()
            time.sleep(0.02)
            alive = descendants()
    _reap()
    return len(found)


def _reap() -> None:
    """Collect exited children — direct or adopted — so none stays a zombie."""
    try:
        while os.waitpid(-1, os.WNOHANG) != (0, 0):
            pass
    except ChildProcessError:
        pass


def end_trackers(grace: float = 3.0) -> None:
    """End every resource tracker of this run, this process's own
    included, and wait until each has ended.

    A tracker exits when the last writer of its pipe is gone, so the
    owners must be dead already (:func:`kill_descendants`); this process
    lets go of its own, and ``ensure_running`` starts another one if
    shared memory is used again.  One still alive after ``grace`` is
    killed.
    """
    own = resource_tracker._resource_tracker
    if own._fd is not None:
        os.close(own._fd)
        own._fd = own._pid = None  # reaped below with the others
    deadline_at = time.monotonic() + grace
    while True:
        _reap()
        alive = descendants(trackers=True)
        if not alive:
            return
        if time.monotonic() >= deadline_at:
            for pid in alive:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            deadline_at = float("inf")  # SIGKILL cannot be ignored
        time.sleep(0.01)


# ----------------------------------------------------------- hard deadline
class HardTimeout(Exception):
    """The run outlived its hard deadline (a wedged engine)."""


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`HardTimeout` in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise HardTimeout(f"hard deadline of {seconds:.0f}s passed")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------ scratch, shm
@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A per-run directory under ``out/`` that every manager, factory and
    router is given as its workdir, removed when the run ends.

    ``TMPDIR`` is pointed at it too, so anything a child creates with
    ``tempfile`` stays inside the checkout — unless the path is so long
    that the workers' fallback UNIX-socket directory (created under
    ``TMPDIR``) would overflow the 108-byte ``AF_UNIX`` limit.
    """
    path = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    previous = os.environ.get("TMPDIR")
    if len(path.encode()) <= 60:
        os.environ["TMPDIR"] = path
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous
        shutil.rmtree(path, ignore_errors=True)


def shm_segments() -> set:
    """Names of the engine's payload segments present in ``/dev/shm``."""
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(_SHM_PREFIX)}
    except OSError:
        return set()


# ------------------------------------------------------------ fingerprint
def calibration_us() -> float:
    """Wall microseconds of a fixed pure-Python loop: if this moves
    between two sets of runs, the host moved, not the code."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e6


def host_fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_us": calibration_us(),
    }


# ------------------------------------------------------------------ trial
class Window:
    """What a workload's timed window produced.

    ``attempted`` counts operations handed to the program and ``ok``
    those that finished with the right answer; everything else — failed,
    wrong, or not finished by the deadline — is a failure.
    ``latencies_ms`` holds one latency per good operation, ``layer`` the
    per-layer values the workload read off the program's own counters.

    A window made of waves keeps one sample per wave — throughput in
    ``rates``, latency percentiles in ``wave_p50_ms`` / ``wave_p95_ms``,
    CPU per operation in ``wave_cpu_us`` — and the run reports the median
    over waves: a burst of interference from the shared host that covers
    less than half of the window then leaves the result alone, where a
    percentile over the pooled operations would carry it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.wall_s = 0.0
        self.submit_s = 0.0
        self.latencies_ms: List[float] = []
        self.queue_wait_s: List[float] = []  # submitted -> dispatched
        self.inflight_s: List[float] = []    # dispatched -> completed
        self.rates: List[float] = []
        self.wave_p50_ms: List[float] = []
        self.wave_p95_ms: List[float] = []
        self.wave_cpu_us: List[float] = []
        self.layer: Dict[str, float] = {}

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


class TrialResult:
    """What one run of a workload produced and cost."""

    def __init__(self) -> None:
        self.window = Window()
        self.setup_s: List[float] = []
        self.cpu: Dict[str, float] = {}
        self.bench_cpu_s = 0.0
        self.leaked_segments = 0
        self.killed_processes = 0
        self.error: Optional[str] = None


def run_trial(
    make_workload: Callable[[], Any], seconds: float, *, setups: int = SETUPS
) -> TrialResult:
    """Set a workload up ``setups`` times, run its timed window on the
    last set-up, tear it down, and account for what the window cost.

    The workload object provides ``setup()``, ``measure(seconds)`` (which
    fills its ``window``) and ``teardown()``.  Whatever happens, no
    process the run started and no payload segment it created outlives it.
    """
    result = TrialResult()
    shm_before = shm_segments()
    workload = None
    try:
        with deadline(seconds * 2 + HARD_TIMEOUT_SLACK_S):
            for repeat in range(setups):
                if workload is not None:
                    workload.teardown()
                workload = make_workload()
                started = time.perf_counter()
                workload.setup()
                result.setup_s.append(time.perf_counter() - started)
            result.window = workload.window  # kept even if measure() is cut short
            cpu_before, bench_before = cpu_snapshot(), time.process_time()
            workload.measure(seconds)
            result.bench_cpu_s = time.process_time() - bench_before
            result.cpu = cpu_delta(cpu_before, cpu_snapshot())
    except Exception as exc:  # the run reports the failure; it does not crash
        traceback.print_exc()
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        try:
            if workload is not None:
                with deadline(20.0):
                    workload.teardown()
        except Exception as exc:  # teardown of a wedged engine must not hide the run
            result.error = result.error or f"teardown: {exc!r}"
        finally:
            result.killed_processes = kill_descendants()
            # Counted before the trackers go: a tracker unlinks what its
            # owner left registered, which would hide the leak.
            leaked = shm_segments() - shm_before
            result.leaked_segments = len(leaked)
            end_trackers()
            for name in leaked:
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(_SHM_DIR, name))
    return result


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()
