"""Live time-series telemetry: the performance log and transaction log.

TaskVine emits two always-on logs operators tail while a run is in
flight: a *performance log* (periodic snapshot of tasks
waiting/running/done, workers connected, cache occupancy, ...) and an
append-only *transaction log* of state transitions.  This module is the
repro counterpart, layered on the PR-3 registry/tracer:

- :class:`PerfLog` owns both files.  The manager calls
  ``maybe_sample(now, build)`` once per event-loop tick; every
  ``interval`` seconds it invokes ``build()`` (a cheap dict builder) and
  appends the sample as one JSONL line.  ``transition()`` appends one
  transaction line per task/worker/library state change.
- :class:`NullPerfLog` is the shared no-op twin (the ``NullTracer``
  pattern): telemetry is **off by default** and the disabled hot path is
  a single no-op method call, so the PR-1 dispatch numbers are
  unchanged when nothing is enabled.

Enable via ``REPRO_PERFLOG_DIR=<dir>`` (files land there as
``perflog-<component>.jsonl`` / ``txnlog-<component>.jsonl``), or pass
``perflog_dir=`` to ``Manager`` directly.  ``REPRO_PERFLOG_INTERVAL``
tunes the sampler cadence (seconds, default 0.25).

Both the real engine and the simulator write the same sample schema
(:data:`SAMPLE_FIELDS` via :func:`make_sample`), so
``python -m repro.obs report`` reads either.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional

# Every perflog sample carries exactly these top-level keys (the report
# CLI and the sampler tests rely on the field set being stable across
# samples and across producers — real engine and simulator alike).
SAMPLE_FIELDS = (
    "ts",                  # seconds; wall clock (engine) or sim time (simulator)
    "uptime_s",            # seconds since the sampler started
    "tasks_waiting",       # queued, not yet dispatched
    "tasks_running",       # dispatched, not yet finished
    "tasks_done",          # completed successfully (cumulative)
    "tasks_failed",        # failed permanently (cumulative)
    "tasks_retried",       # requeue events (cumulative)
    "workers_connected",
    "workers_lost",        # cumulative
    "libraries_active",    # deployed library instances
    "cache_bytes",         # aggregate worker cache occupancy
    "cache_pinned",        # aggregate pinned cache entries
    "rss_bytes",           # aggregate worker resident set size
    "busy_slots",          # in-flight invocations + running tasks, fleet-wide
                           # (the manager's running set; the simulator's twin)
    "dispatch_rate",       # dispatches/second since the previous sample
    "queue_depths",        # {library: queued invocations}
    "contexts",            # {context: {instances, ready, slots, used_slots,
                           #            warm, cold, served}}
)


def make_sample(**fields: Any) -> Dict[str, Any]:
    """A sample dict with the full stable field set; missing keys default.

    Unknown keys are rejected so the two producers cannot silently
    drift apart.
    """
    unknown = set(fields) - set(SAMPLE_FIELDS)
    if unknown:
        raise ValueError(f"unknown perflog sample fields: {sorted(unknown)}")
    sample: Dict[str, Any] = {}
    for key in SAMPLE_FIELDS:
        if key in ("queue_depths", "contexts"):
            sample[key] = fields.get(key) or {}
        else:
            sample[key] = fields.get(key, 0.0)
    return sample


def rss_bytes() -> int:
    """Resident set size of this process, in bytes (0 when unknown).

    Reads ``/proc/self/statm`` (Linux); falls back to
    ``resource.getrusage`` peak RSS elsewhere.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(usage) * 1024  # Linux reports KiB
    except Exception:
        return 0


class PerfLog:
    """Time-series performance log plus append-only transaction log."""

    enabled = True

    def __init__(
        self,
        perflog_path: str,
        *,
        txnlog_path: Optional[str] = None,
        interval: float = 0.25,
    ):
        self.perflog_path = perflog_path
        self.txnlog_path = txnlog_path
        self.interval = max(0.01, interval)
        os.makedirs(os.path.dirname(perflog_path) or ".", exist_ok=True)
        self._perf_fh = open(perflog_path, "a", encoding="utf-8")
        self._txn_fh = None
        if txnlog_path is not None:
            os.makedirs(os.path.dirname(txnlog_path) or ".", exist_ok=True)
            self._txn_fh = open(txnlog_path, "a", encoding="utf-8")
        self._next_due = 0.0  # monotonic stamp; 0 = sample immediately
        self._started = time.monotonic()
        self.samples_written = 0
        self.last_sample: Optional[Dict[str, Any]] = None
        self._pending_txn: List[tuple] = []
        self._closed = False

    # -- performance log -------------------------------------------------
    def maybe_sample(self, now: float, build) -> bool:
        """Append one sample when the cadence says so.

        ``now`` is a monotonic stamp (the caller's event loop already has
        one in hand); ``build()`` is only invoked when a sample is due,
        so the common tick costs one comparison.
        """
        if self._closed or now < self._next_due:
            return False
        self._next_due = now + self.interval
        self.sample(build())
        return True

    def sample(self, sample: Dict[str, Any]) -> None:
        """Append a prepared sample (and flush, so tails see it live)."""
        if self._closed:
            return
        # make_sample pre-fills missing fields with 0.0, so a falsy
        # timestamp means "stamp me", not "the epoch".
        if not sample.get("ts"):
            sample["ts"] = time.time()
        if not sample.get("uptime_s"):
            sample["uptime_s"] = time.monotonic() - self._started
        self._perf_fh.write(json.dumps(sample, sort_keys=True) + "\n")
        self._perf_fh.flush()
        self.samples_written += 1
        self.last_sample = sample
        # Piggyback the txn-log drain on the sampling cadence so tails
        # see transitions within one interval of real time.
        if self._txn_fh is not None:
            self._drain_txn()
            self._txn_fh.flush()

    # -- transaction log -------------------------------------------------
    def transition(self, event: str, **fields: Any) -> None:
        """Record one state transition.

        The hot path only appends a tuple; JSON encoding and the file
        write are deferred to the next :meth:`flush` (sampler tick or
        close), so the per-transition cost next to dispatch work is a
        timestamp and a list append rather than a ``json.dumps``.
        """
        if self._txn_fh is None or self._closed:
            return
        self._pending_txn.append((time.time(), event, fields))
        if len(self._pending_txn) >= 4096:  # bound memory between ticks
            self._drain_txn()

    def _drain_txn(self) -> None:
        pending, self._pending_txn = self._pending_txn, []
        if not pending or self._txn_fh is None:
            return
        lines = []
        for ts, event, fields in pending:
            record = {"ts": ts, "event": event}
            record.update(fields)
            # No sort_keys: readers json-parse each line, and skipping
            # the sort shaves ~30% off the drain that runs on the
            # manager's sampling tick.
            lines.append(json.dumps(record))
        self._txn_fh.write("\n".join(lines) + "\n")

    def flush(self) -> None:
        if self._closed:
            return
        self._perf_fh.flush()
        if self._txn_fh is not None:
            self._drain_txn()
            self._txn_fh.flush()

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._drain_txn()
        finally:
            self._closed = True
            try:
                self._perf_fh.close()
            finally:
                if self._txn_fh is not None:
                    self._txn_fh.close()


class NullPerfLog:
    """Shared no-op twin handed out when live telemetry is disabled.

    Mirrors ``NullTracer``: every method is a no-op returning a falsy
    value, so instrumented call sites need no conditionals and the
    disabled dispatch hot path stays regression-free.
    """

    enabled = False
    perflog_path = None
    txnlog_path = None
    interval = 0.0
    samples_written = 0
    last_sample = None

    def maybe_sample(self, now, build):
        return False

    def sample(self, sample):
        return None

    def transition(self, event, **fields):
        return None

    def flush(self):
        return None

    def close(self):
        return None


NULL_PERFLOG = NullPerfLog()


def perflog_interval(default: float = 0.25) -> float:
    raw = os.environ.get("REPRO_PERFLOG_INTERVAL", "")
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


def get_perflog(
    component: str,
    *,
    directory: Optional[str] = None,
    interval: Optional[float] = None,
) -> "PerfLog | NullPerfLog":
    """A live :class:`PerfLog` for this component, or the shared no-op.

    ``directory`` (or ``REPRO_PERFLOG_DIR``) names where the two JSONL
    files go; with neither set, telemetry is off and ``NULL_PERFLOG`` is
    returned.
    """
    directory = directory or os.environ.get("REPRO_PERFLOG_DIR")
    if not directory:
        return NULL_PERFLOG
    safe = component.replace(os.sep, "_")
    return PerfLog(
        os.path.join(directory, f"perflog-{safe}.jsonl"),
        txnlog_path=os.path.join(directory, f"txnlog-{safe}.jsonl"),
        interval=perflog_interval() if interval is None else interval,
    )


# -- readers ---------------------------------------------------------------
def read_perflog(path: str) -> List[Dict[str, Any]]:
    """Parse a perflog (or txnlog) JSONL file into a list of dicts."""
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSONL: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: sample is not an object")
            out.append(record)
    return out


def write_perflog(path: str, samples: Iterable[Dict[str, Any]]) -> str:
    """Write prepared samples as JSONL (the simulator's export path)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample, sort_keys=True) + "\n")
    return path
