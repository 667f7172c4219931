"""Observability layer: tracer mechanics, serialization, and export.

Covers the tentpole guarantees of ``repro.obs``: every event type
survives a JSONL round trip unchanged, merged timelines are causally
ordered (a task never dispatches before it is submitted, and the
manager's consolidated cost event always closes the timeline), the
Chrome ``trace_event`` export is valid JSON with matched B/E duration
pairs, and the piggyback outbox/absorb relay path preserves events
across hops.
"""

import json

import pytest

from repro.obs.export import (
    COST_COMPONENTS,
    chrome_trace,
    cost_components,
    cost_report,
    write_chrome_trace,
)
from repro.obs.trace import (
    EVENT_TYPES,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    merge_task_timeline,
    read_jsonl,
)

# ---------------------------------------------------------------- round trips


def _one_of_each(tracer):
    """Record one event of every type in the taxonomy, with rich attrs."""
    for i, etype in enumerate(sorted(EVENT_TYPES)):
        tracer.record(
            etype,
            task_id=str(i),
            ts=100.0 + i,
            seconds=0.25,
            label=f"event-{i}",
            nested={"bytes": i * 10, "ok": i % 2 == 0},
        )


def test_every_event_type_roundtrips_via_dict():
    tracer = Tracer("manager")
    _one_of_each(tracer)
    events = tracer.events()
    assert {e.etype for e in events} == EVENT_TYPES
    for event in events:
        clone = TraceEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event


def test_every_event_type_roundtrips_via_jsonl(tmp_path):
    tracer = Tracer("worker.w0")
    _one_of_each(tracer)
    events = tracer.events()
    path = tracer.flush(str(tmp_path / "events.jsonl"))
    assert read_jsonl(path) == events


def test_flush_appends_jsonl_and_empties_ring(tmp_path):
    tracer = Tracer("manager", trace_dir=str(tmp_path))
    tracer.record("task_submit", task_id="1", ts=1.0)
    path = tracer.flush()
    assert path is not None and path.startswith(str(tmp_path))
    tracer.record("task_dispatch", task_id="1", ts=2.0)
    assert tracer.flush() == path
    assert [e.etype for e in read_jsonl(path)] == ["task_submit", "task_dispatch"]
    assert tracer.events() == []


# ------------------------------------------------------------- causal merging


def test_merge_orders_submit_before_dispatch_on_tied_timestamps():
    worker = Tracer("worker.w0", forward=True, pid=2)
    manager = Tracer("manager", pid=1)
    # Record in scrambled order with IDENTICAL wall-clock stamps: the
    # causal rank of the event type must decide, not arrival order.
    worker.record("stage_done", task_id="7", ts=5.0, seconds=0.1)
    manager.record("task_cost", task_id="7", ts=5.0)
    manager.record("task_dispatch", task_id="7", ts=5.0)
    manager.record("task_submit", task_id="7", ts=5.0)
    manager.absorb(worker.drain())
    ordered = manager.timeline("7")
    etypes = [e.etype for e in ordered]
    assert etypes.index("task_submit") < etypes.index("task_dispatch")
    assert etypes[-1] == "task_cost"


def test_merge_filters_by_task_and_sorts_by_time():
    tracer = Tracer("manager")
    tracer.record("task_submit", task_id="b", ts=2.0)
    tracer.record("task_submit", task_id="a", ts=1.0)
    tracer.record("task_dispatch", task_id="a", ts=3.0)
    merged = merge_task_timeline(tracer.events(), "a")
    assert [(e.etype, e.ts) for e in merged] == [
        ("task_submit", 1.0),
        ("task_dispatch", 3.0),
    ]


def test_outbox_relay_preserves_events_across_two_hops():
    library = Tracer("library.1", forward=True, pid=30)
    worker = Tracer("worker.w0", forward=True, pid=20)
    manager = Tracer("manager", pid=10)
    library.record("library_invoke", task_id="4", ts=1.0, mode="direct")
    worker.absorb(library.drain())          # library -> worker frame
    worker.record("stage_done", task_id="4", ts=2.0)
    manager.absorb(worker.drain())          # worker -> manager frame
    components = {e.component for e in manager.events()}
    assert components == {"library.1", "worker.w0"}
    assert worker.drain() is None           # outbox drained exactly once


def test_ring_drops_oldest_half_when_full():
    tracer = Tracer("manager", capacity=10)
    for i in range(11):
        tracer.record("task_submit", task_id=str(i), ts=float(i))
    kept = [int(e.task_id) for e in tracer.events()]
    assert len(kept) <= 10
    assert kept[-1] == 10                   # newest survives
    assert kept == sorted(kept)


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.record("task_submit", task_id="1") is None
    assert NULL_TRACER.drain() is None
    assert NULL_TRACER.events() == []
    assert NullTracer().flush() is None


# ------------------------------------------------------------- chrome export


def _sample_events():
    tracer = Tracer("manager", pid=1)
    tracer.record("task_submit", task_id="1", ts=10.0)
    tracer.record("task_dispatch", task_id="1", ts=10.5)
    tracer.record("stage_done", task_id="1", ts=11.0, seconds=0.4)
    tracer.record("task_cost", task_id="1", ts=12.0, execute=0.9)
    tracer.record("library_warm", ts=9.0, seconds=1.5)  # process-level event
    return tracer.events()


def test_chrome_trace_is_valid_json_with_matched_be_pairs(tmp_path):
    path = str(tmp_path / "trace.json")
    write_chrome_trace(_sample_events(), path)
    with open(path) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert len(begins) == len(ends) == 2    # stage_done and library_warm
    for b, e in zip(begins, ends):
        assert (b["name"], b["pid"], b["tid"]) == (e["name"], e["pid"], e["tid"])
        assert b["ts"] <= e["ts"]
    assert any(e["ph"] == "i" for e in events)


def test_chrome_trace_names_processes_and_task_threads():
    doc = chrome_trace(_sample_events())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {e["name"]: e["args"]["name"] for e in meta}
    assert names["process_name"] == "manager:1"
    assert names["thread_name"] == "1"      # one lane per task id
    # Metadata records lead the stream so viewers label lanes up front.
    phases = [e["ph"] for e in doc["traceEvents"]]
    assert phases[: len(meta)] == ["M"] * len(meta)


def test_chrome_trace_span_reconstructed_backwards():
    doc = chrome_trace(_sample_events())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "B" and e["name"] == "stage_done"]
    (begin,) = spans
    assert begin["ts"] == pytest.approx((11.0 - 0.4) * 1e6)


# ---------------------------------------------------------------- cost report


def test_cost_components_defaults_missing_to_zero():
    event = TraceEvent("task_cost", 1.0, "manager", 1, task_id="1", attrs={"execute": 2.0})
    comps = cost_components(event)
    assert set(comps) == set(COST_COMPONENTS)
    assert comps["execute"] == 2.0
    assert comps["env_setup"] == 0.0


def test_cost_report_lists_every_component_and_mean():
    tracer = Tracer("manager")
    tracer.record(
        "task_cost", task_id="9", ts=1.0,
        **{k: 0.5 for k in COST_COMPONENTS},
    )
    report = cost_report(tracer.events())
    assert "9" in report and "mean" in report
    for component in COST_COMPONENTS:
        assert component[:14] in report


def test_cost_report_without_costs_mentions_absence():
    assert "no task_cost" in cost_report([])
