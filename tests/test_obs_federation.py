"""Cluster observability plane: trace propagation, federation, reports.

Covers DESIGN.md §2i end to end against real shard subprocesses:

- a router-submitted invocation yields ONE merged timeline spanning
  router → shard → worker → library, every span stamped with the same
  trace id, including the two cluster cost components
  (``router_hop``/``shard_queue``) on the consolidated ``task_cost``;
- shard loss keeps the trace honest: both attempts' router-side hops
  and the ``task_retry`` survive under one trace id even though the
  dead shard's ring is gone;
- the router's ``/metrics`` federates per-shard series
  (``repro_shard_<name>_*``) and cluster rollups (``repro_cluster_*``);
- per-shard statusd ports cannot collide (``shard_status_port``), and
  the bound port travels back to the router's ``/status`` document;
- ``python -m repro.obs report`` refuses a directory without
  ``--shard-dir`` instead of silently merging unrelated JSONL, and the
  federated reader builds one cluster report from per-shard perflogs.
"""

import json
import os
import time
import urllib.request

import pytest

from repro.engine.router import Router
from repro.engine.task import FunctionCall, TaskState
from repro.obs import report
from repro.obs.export import COST_COMPONENTS, chrome_trace
from repro.obs.perflog import make_sample, write_perflog
from repro.obs.statusd import parse_prometheus, shard_status_port
from repro.obs.trace import unparented_events


def _double(x):
    return 2 * x


def _nap(x, seconds):
    import time as _time

    _time.sleep(seconds)
    return x


@pytest.fixture(scope="module")
def traced_router():
    """A 2-shard router with tracing + federation on, shared per module.

    The env vars must be set *before* the router spawns so the shard
    subprocesses inherit them; the router's own tracer reads REPRO_TRACE
    at construction time too.
    """
    saved = {
        k: os.environ.get(k) for k in ("REPRO_TRACE", "REPRO_STATUS_PORT")
    }
    os.environ["REPRO_TRACE"] = "1"
    os.environ.pop("REPRO_STATUS_PORT", None)
    try:
        with Router(
            shards=2, workers_per_shard=1, worker_cores=2, status_port=0
        ) as r:
            yield r
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


# ------------------------------------------------------ trace propagation
def test_merged_timeline_spans_router_shard_worker_library(traced_router):
    r = traced_router
    library = r.create_library_from_functions(
        "fed-lib", _double, function_slots=2
    )
    r.install_library(library)
    calls = [FunctionCall("fed-lib", "_double", i) for i in range(3)]
    for call in calls:
        r.submit(call)
    r.wait_all(calls, timeout=120.0)
    assert [c.result for c in calls] == [0, 2, 4]

    for call in calls:
        trace_id = r.trace_id_of(call)
        assert trace_id is not None
        timeline = r.task_timeline(call)
        etypes = [e.etype for e in timeline]
        # One causally ordered timeline across all four layers.
        for required in (
            "router_submit",
            "router_hop",
            "shard_queue",
            "task_submit",
            "task_dispatch",
            "library_invoke",
            "task_cost",
        ):
            assert required in etypes, (required, etypes)
        assert etypes.index("router_submit") < etypes.index("router_hop")
        assert etypes.index("router_hop") < etypes.index("task_dispatch")
        assert etypes.index("shard_queue") < etypes.index("task_dispatch")
        # Every span carries the SAME trace id — the whole point.
        assert {e.trace_id for e in timeline} == {trace_id}
        # Spans from at least router + shard-manager + worker processes.
        assert len({e.pid for e in timeline}) >= 3
        components = {e.component for e in timeline}
        assert "router" in components
        assert "manager" in components

    # No span in the whole run floats outside a router_submit-rooted trace.
    events = r.trace_events()
    assert unparented_events(events) == []


def test_task_cost_carries_cluster_components(traced_router):
    r = traced_router
    library = r.create_library_from_functions(
        "cost-lib", _double, function_slots=2
    )
    r.install_library(library)
    call = FunctionCall("cost-lib", "_double", 5)
    r.submit(call)
    r.wait_all([call], timeout=120.0)
    timeline = r.task_timeline(call)
    cost = next(e for e in timeline if e.etype == "task_cost")
    for component in COST_COMPONENTS:
        assert component in cost.attrs, component
    # A router-dispatched task really paid a hop and sat in a shard queue.
    assert cost.attrs["router_hop"] > 0.0
    assert cost.attrs["shard_queue"] >= 0.0
    # And the Chrome export renders the two cluster spans.
    trace = chrome_trace(timeline)
    names = {e["name"] for e in trace["traceEvents"]}
    assert "router_hop" in names
    assert "shard_queue_wait" in names


def test_shard_loss_retry_keeps_both_attempts_in_one_trace():
    saved = os.environ.get("REPRO_TRACE")
    os.environ["REPRO_TRACE"] = "1"
    try:
        with Router(shards=3, workers_per_shard=1, worker_cores=2) as r:
            library = r.create_library_from_functions(
                "loss-trace-lib", _nap, function_slots=2
            )
            r.install_library(library)
            home = r._libraries["loss-trace-lib"].home
            # Two rounds of 1.5 s on the two slots: the kill below keys
            # off the shard's status frames, which are >= 1 s apart, so
            # the work must outlast that gap or no frame ever shows it.
            calls = [
                FunctionCall("loss-trace-lib", "_nap", i, 1.5) for i in range(4)
            ]
            for call in calls:
                r.submit(call)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                r.loop.run_once(0.05)
                if r.shard_stats(home).get("running", 0) > 0:
                    break
            r._shards[home].proc.kill()
            r.wait_all(calls, timeout=180.0)
            assert [c.result for c in calls] == list(range(4))
            retried = [c for c in calls if c.retries >= 1]
            assert retried, "shard loss produced no retries"
            for call in retried:
                trace_id = r.trace_id_of(call)
                timeline = r.task_timeline(call)
                assert {e.trace_id for e in timeline} == {trace_id}
                # Both attempts' router-side hops survive the dead shard,
                # re-homed to distinct shards, with the retry on record.
                hops = [e for e in timeline if e.etype == "router_hop"]
                assert len(hops) >= 2
                assert len({e.attrs["shard"] for e in hops}) >= 2
                assert {e.attrs["attempt"] for e in hops} >= {0, 1}
                retries = [e for e in timeline if e.etype == "task_retry"]
                assert retries
                assert f"shard:{home}" in retries[0].attrs["blame"]
    finally:
        if saved is None:
            os.environ.pop("REPRO_TRACE", None)
        else:
            os.environ["REPRO_TRACE"] = saved


# --------------------------------------------------------------- federation
def test_router_metrics_federate_per_shard_and_cluster(traced_router):
    r = traced_router
    library = r.create_library_from_functions(
        "scrape-lib", _double, function_slots=2
    )
    r.install_library(library)
    calls = [FunctionCall("scrape-lib", "_double", i) for i in range(4)]
    for call in calls:
        r.submit(call)
    r.wait_all(calls, timeout=120.0)
    assert all(c.state is TaskState.DONE for c in calls)

    base_url = r.status_server.url
    deadline = time.monotonic() + 30.0
    samples = {}
    while time.monotonic() < deadline:
        r.loop.run_once(0.05)
        with urllib.request.urlopen(base_url + "/metrics", timeout=10) as rsp:
            triples = parse_prometheus(rsp.read().decode("utf-8"))
        samples = {name: value for name, _, value in triples}
        if any(k.startswith("repro_shard_") for k in samples):
            break
    shard_keys = [k for k in samples if k.startswith("repro_shard_")]
    cluster_keys = [k for k in samples if k.startswith("repro_cluster_")]
    assert shard_keys, sorted(samples)[:20]
    assert cluster_keys
    # Per-shard series exist for both shards.
    assert any(k.startswith("repro_shard_shard_0_") for k in samples)
    assert any(k.startswith("repro_shard_shard_1_") for k in samples)
    # The rollup sums the shards: cluster completed covers the workload.
    assert samples["repro_cluster_completed"] >= 4.0
    # Router-owned series survive the merge alongside the rollups.
    assert samples["repro_submitted"] >= 4.0

    with urllib.request.urlopen(base_url + "/status", timeout=10) as rsp:
        status = json.loads(rsp.read().decode("utf-8"))
    assert status["role"] == "router"
    assert status["federate"] is True
    assert set(status["shards"]) == {"shard-0", "shard-1"}


def test_shard_status_port_assignment_never_collides():
    assert shard_status_port(None, 0) is None
    assert shard_status_port(0, 3) == 0  # ephemeral stays ephemeral
    base = 9100
    ports = [shard_status_port(base, i) for i in range(4)]
    assert ports == [9101, 9102, 9103, 9104]
    assert len(set(ports)) == len(ports)
    assert base not in ports  # the router keeps the base port


# ----------------------------------------------------------------- reports
def _shard_samples(t0, done):
    rows = []
    for i in range(4):
        rows.append(
            make_sample(
                ts=t0 + i,
                tasks_running=1.0 if i < 3 else 0.0,
                tasks_done=float(done * (i + 1) // 4),
                cache_bytes=100.0 * (i + 1),
                contexts={
                    "lib": {"warm": done - 1, "cold": 1, "served": done}
                },
            )
        )
    return rows


def test_report_cli_refuses_directory_without_shard_dir(tmp_path, capsys):
    write_perflog(
        str(tmp_path / "perflog-shard-0.jsonl"), _shard_samples(100.0, 4)
    )
    (tmp_path / "notes.jsonl").write_text('{"hello": 1}\n')
    with pytest.raises(SystemExit) as exc:
        report.main([str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--shard-dir" in err


def test_federated_report_merges_shard_perflogs(tmp_path):
    write_perflog(
        str(tmp_path / "perflog-shard-0.jsonl"), _shard_samples(100.0, 4)
    )
    write_perflog(
        str(tmp_path / "perflog-shard-1.jsonl"), _shard_samples(100.2, 8)
    )
    text = report.federated_report(str(tmp_path), width=20)
    assert "2 shard logs" in text
    assert "shard-0" in text and "shard-1" in text
    # Cluster totals sum the shards; the hotter shard shows as skew.
    assert "tasks_done=12" in text
    assert "skew" in text
    # Unrelated files are named, never merged.
    (tmp_path / "random.jsonl").write_text('{"x": 1}\n')
    text = report.federated_report(str(tmp_path), width=20)
    assert "random.jsonl" in text


def test_federated_report_requires_perflogs(tmp_path):
    with pytest.raises(FileNotFoundError):
        report.federated_report(str(tmp_path))
