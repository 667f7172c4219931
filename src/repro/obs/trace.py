"""Structured lifecycle tracing.

Every engine process (manager, worker, library) owns one ``Tracer``.
``record()`` appends a typed ``TraceEvent`` to a bounded in-memory ring
buffer; remote processes additionally queue a copy in an *outbox* that
piggybacks on the next outgoing wire frame (worker status/result frames,
library ready/complete frames), so the manager ends up holding a merged
view of every process without extra round trips.

Tracing is off by default.  ``get_tracer()`` returns a shared
``NullTracer`` -- whose methods are no-ops returning ``None`` -- unless
``REPRO_TRACE`` is set in the environment.  Child processes inherit the
environment, so enabling tracing on the manager enables it everywhere.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

# Canonical event taxonomy.  ``record()`` does not validate against this
# set (the hot path stays branch-free); the round-trip tests do.
EVENT_TYPES = frozenset(
    {
        # router (cluster front-end)
        "router_submit",
        "router_hop",
        "shard_queue",
        # manager
        "task_submit",
        "task_dispatch",
        "task_retry",
        "task_cost",
        "transfer_done",
        "worker_lost",
        "library_place",
        "library_remove",
        # worker
        "stage_done",
        "cache_hit",
        "cache_miss",
        "cache_evict",
        "library_spawn",
        "task_timeout",
        "task_kill",
        # library
        "library_warm",
        "library_invoke",
    }
)

# Tie-break rank used when wall-clock stamps collide across processes:
# a task's submit must sort before its dispatch, and the manager's
# consolidated cost event always closes the timeline.
_CAUSAL_RANK = {
    "router_submit": 0,
    "task_submit": 0,
    "router_hop": 1,
    "task_dispatch": 1,
    "shard_queue": 2,
    "task_cost": 9,
}
_DEFAULT_RANK = 5


@dataclass
class TraceEvent:
    """One lifecycle event, stamped where it happened.

    ``trace_id`` is the cluster-wide correlation id stamped by the
    router at submission (PR 10): shard processes reassign task ids
    locally, so the trace id — not the task id — is what ties one
    logical submission's events together across router, shard, worker,
    and library processes, including retries re-homed across shards.
    ``None`` for events recorded outside a router context.
    """

    etype: str
    ts: float
    component: str
    pid: int
    task_id: Optional[str] = None
    seq: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "etype": self.etype,
            "ts": self.ts,
            "component": self.component,
            "pid": self.pid,
            "seq": self.seq,
        }
        if self.task_id is not None:
            d["task_id"] = self.task_id
        if self.trace_id is not None:
            d["trace_id"] = self.trace_id
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceEvent":
        return cls(
            etype=d["etype"],
            ts=d["ts"],
            component=d["component"],
            pid=d["pid"],
            task_id=d.get("task_id"),
            seq=d.get("seq", 0),
            attrs=dict(d.get("attrs", {})),
            trace_id=d.get("trace_id"),
        )


class Tracer:
    """Per-process event recorder with a bounded ring buffer.

    ``forward=True`` (workers, libraries) keeps a second copy of every
    event in an outbox that ``drain()`` empties into outgoing frames;
    ``absorb()`` on a forwarding tracer re-queues remote events so a
    worker relays its libraries' events up to the manager.
    """

    enabled = True

    def __init__(
        self,
        component: str,
        *,
        forward: bool = False,
        capacity: int = 65536,
        trace_dir: Optional[str] = None,
        pid: Optional[int] = None,
    ):
        self.component = component
        self.forward = forward
        self.trace_dir = trace_dir
        self.pid = os.getpid() if pid is None else pid
        self._seq = itertools.count()
        self._ring: List[TraceEvent] = []
        self._capacity = capacity
        self._outbox: List[Dict[str, Any]] = []
        # task id -> cluster trace id (router-stamped); record() consults
        # it so every event keyed by a bound task carries the trace id
        # without changing any existing call site.
        self._trace_ids: Dict[str, str] = {}

    def bind_task(self, task_id: str, trace_id: str) -> None:
        """Associate a task id with a cluster trace id for future events."""
        self._trace_ids[task_id] = trace_id

    def unbind_task(self, task_id: str) -> Optional[str]:
        """Drop a task's trace binding (after its terminal event shipped)."""
        return self._trace_ids.pop(task_id, None)

    def trace_id_of(self, task_id: str) -> Optional[str]:
        return self._trace_ids.get(task_id)

    def record(
        self,
        etype: str,
        task_id: Optional[str] = None,
        ts: Optional[float] = None,
        trace_id: Optional[str] = None,
        **attrs: Any,
    ) -> TraceEvent:
        if trace_id is None and task_id is not None:
            trace_id = self._trace_ids.get(task_id)
        event = TraceEvent(
            etype=etype,
            ts=time.time() if ts is None else ts,
            component=self.component,
            pid=self.pid,
            task_id=task_id,
            seq=next(self._seq),
            attrs=attrs,
            trace_id=trace_id,
        )
        self._append(event)
        if self.forward:
            self._outbox.append(event.to_dict())
        return event

    def absorb(self, payload: Optional[Iterable[Dict[str, Any]]]) -> None:
        """Merge events piggybacked on an incoming frame into the ring."""
        if not payload:
            return
        for d in payload:
            self._append(TraceEvent.from_dict(d))
            if self.forward:
                self._outbox.append(d)

    def drain(self) -> Optional[List[Dict[str, Any]]]:
        """Empty the outbox for piggybacking on an outgoing frame."""
        if not self._outbox:
            return None
        out, self._outbox = self._outbox, []
        return out

    def events(
        self,
        task_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[TraceEvent]:
        if task_id is None and trace_id is None:
            return list(self._ring)
        if trace_id is not None:
            return [e for e in self._ring if e.trace_id == trace_id]
        return [e for e in self._ring if e.task_id == task_id]

    def timeline(self, task_id: str) -> List[TraceEvent]:
        """Causally-ordered merged timeline for one task."""
        return merge_task_timeline(self._ring, task_id)

    def flush(self, path: Optional[str] = None) -> Optional[str]:
        """Append the ring to a per-component JSONL file; returns the path."""
        if path is None:
            if not self.trace_dir:
                return None
            path = os.path.join(
                self.trace_dir, f"trace-{self.component}-{self.pid}.jsonl"
            )
        if not self._ring:
            return path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            for event in self._ring:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._ring = []
        return path

    def _append(self, event: TraceEvent) -> None:
        ring = self._ring
        ring.append(event)
        if len(ring) > self._capacity:
            # Drop the oldest half in one slice instead of popping per
            # event; amortized O(1) and keeps recent history intact.
            del ring[: self._capacity // 2]


class NullTracer:
    """Shared no-op tracer handed out when tracing is disabled.

    Every method returns a falsy value so call sites can use
    ``payload = tracer.drain()`` / ``if payload:`` unconditionally.
    """

    enabled = False
    component = "null"
    forward = False

    def record(self, etype, task_id=None, ts=None, trace_id=None, **attrs):
        return None

    def bind_task(self, task_id, trace_id):
        return None

    def unbind_task(self, task_id):
        return None

    def trace_id_of(self, task_id):
        return None

    def absorb(self, payload):
        return None

    def drain(self):
        return None

    def events(self, task_id=None, trace_id=None):
        return []

    def timeline(self, task_id):
        return []

    def flush(self, path=None):
        return None


NULL_TRACER = NullTracer()


def tracing_enabled() -> bool:
    return bool(os.environ.get("REPRO_TRACE"))


def get_tracer(component: str) -> "Tracer | NullTracer":
    """Tracer for this process, or the shared no-op when disabled.

    Enabled via ``REPRO_TRACE=1``; ``REPRO_TRACE_DIR`` names the
    directory ``flush()`` writes per-component JSONL files into.
    """
    if not tracing_enabled():
        return NULL_TRACER
    from repro.util.logging import trace_dir

    # The manager and the router are merge roots: they absorb remote
    # events but never forward them further up, so their outboxes must
    # stay empty (nothing drains them).
    return Tracer(
        component,
        forward=(component not in ("manager", "router")),
        trace_dir=trace_dir(),
    )


def merge_task_timeline(
    events: Iterable[TraceEvent],
    task_id: Optional[str] = None,
    *,
    trace_id: Optional[str] = None,
) -> List[TraceEvent]:
    """Sort events from many processes into one causal order.

    Primary key is the wall-clock stamp; ties (common when events are
    recorded back-to-back at millisecond resolution) break on the causal
    rank of the event type, then on the per-tracer sequence number.
    Filtering by ``trace_id`` selects one cluster-wide submission even
    when shard processes reassigned its task id locally.
    """
    if trace_id is not None:
        selected = [e for e in events if e.trace_id == trace_id]
    elif task_id is not None:
        selected = [e for e in events if e.task_id == task_id]
    else:
        selected = list(events)
    selected.sort(
        key=lambda e: (e.ts, _CAUSAL_RANK.get(e.etype, _DEFAULT_RANK), e.seq)
    )
    return selected


def unparented_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    """Trace-stamped events whose trace id has no ``router_submit`` root.

    The federation invariant: every event carrying a ``trace_id`` must
    belong to a trace the router opened with a ``router_submit`` event.
    An unparented event means a span was re-stamped with a bogus id or a
    root was dropped from the ring — either way the merged timeline is
    no longer trustworthy, which is why the CI scorecard gates on this
    returning an empty list.
    """
    pool = list(events)
    rooted = {
        e.trace_id
        for e in pool
        if e.etype == "router_submit" and e.trace_id is not None
    }
    return [
        e
        for e in pool
        if e.trace_id is not None and e.trace_id not in rooted
    ]


def write_jsonl(events: Iterable[TraceEvent], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return path


def read_jsonl(path: str) -> List[TraceEvent]:
    out: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(TraceEvent.from_dict(json.loads(line)))
    return out
