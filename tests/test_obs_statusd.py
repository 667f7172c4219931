"""Live telemetry: Prometheus exposition, the status server, and the sampler.

Three layers of guarantees:

- **Golden exposition** — ``render_prometheus`` emits exactly the text
  format 0.0.4 shape (cumulative buckets, ``+Inf``, ``_sum``/``_count``,
  the ``_quantiles`` gauge family) and the strict ``parse_prometheus``
  accepts its own output while rejecting malformed lines.
- **Sampler mechanics** — ``PerfLog.maybe_sample`` honours the cadence,
  stamps monotonic timestamps, and keeps the field set stable across
  every sample (the report CLI's contract).
- **Live round trip** — a real manager with the status server enabled
  answers ``GET /metrics`` and ``GET /status`` mid-run with documents
  reflecting its connected workers, libraries, and perflog sample.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine import FunctionCall, LocalWorkerFactory, Manager, PythonTask, TaskState
from repro.obs.metrics import MetricsRegistry
from repro.obs.perflog import (
    NULL_PERFLOG,
    SAMPLE_FIELDS,
    PerfLog,
    get_perflog,
    make_sample,
    read_perflog,
)
from repro.obs.statusd import (
    StatusServer,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    status_port,
)


def _double(x):
    return 2 * x


# ------------------------------------------------------------- exposition
def test_render_prometheus_golden():
    registry = MetricsRegistry()
    registry.counter("tasks.done").inc(3)
    registry.gauge("worker.w-0.rss_bytes").set(1.5e6)
    hist = registry.histogram("lat", buckets=(0.001, 1.0))
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(5.0)
    golden = (
        "# TYPE repro_tasks_done counter\n"
        "repro_tasks_done 3\n"
        "# TYPE repro_worker_w_0_rss_bytes gauge\n"
        "repro_worker_w_0_rss_bytes 1500000\n"
        "# TYPE repro_lat histogram\n"
        'repro_lat_bucket{le="0.001"} 0\n'
        'repro_lat_bucket{le="1"} 1\n'
        'repro_lat_bucket{le="+Inf"} 3\n'
        "repro_lat_sum 10.5\n"
        "repro_lat_count 3\n"
        "# TYPE repro_lat_quantiles gauge\n"
        'repro_lat_quantiles{quantile="0.5"} 1\n'
        'repro_lat_quantiles{quantile="0.95"} 1\n'
        'repro_lat_quantiles{quantile="0.99"} 1\n'
    )
    assert render_prometheus(registry.snapshot()) == golden


def test_rendered_output_is_parseable_and_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram("exec", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(v)
    samples = parse_prometheus(render_prometheus(registry.snapshot()))
    by_le = {
        labels["le"]: value
        for name, labels, value in samples
        if name == "repro_exec_bucket"
    }
    # Cumulative: each bucket includes everything below it; +Inf == count.
    assert by_le == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
    assert ("repro_exec_count", {}, 5.0) in samples
    quantiles = {
        labels["quantile"]
        for name, labels, _ in samples
        if name == "repro_exec_quantiles"
    }
    assert quantiles == {"0.5", "0.95", "0.99"}


def test_sanitize_metric_name():
    assert sanitize_metric_name("tasks.done") == "repro_tasks_done"
    assert sanitize_metric_name("worker.w-0.cache") == "repro_worker_w_0_cache"
    assert sanitize_metric_name("0weird") == "repro__0weird"


def test_parse_prometheus_rejects_junk():
    with pytest.raises(ValueError, match="not a valid sample"):
        parse_prometheus("this is ! not a sample\n")
    with pytest.raises(ValueError, match="bad labels"):
        parse_prometheus('metric{le=unquoted} 1\n')
    with pytest.raises(ValueError):
        parse_prometheus("metric one_point_five\n")


def test_parse_prometheus_handles_inf_and_comments():
    samples = parse_prometheus(
        "# HELP x something\n\nx_bucket{le=\"+Inf\"} 4\nx_sum +Inf\ny -Inf\n"
    )
    assert samples[0] == ("x_bucket", {"le": "+Inf"}, 4.0)
    assert samples[1][2] == float("inf")
    assert samples[2][2] == float("-inf")


# ------------------------------------------------------------ status server
def test_status_server_roundtrip():
    registry = MetricsRegistry()
    registry.counter("pings").inc(7)
    server = StatusServer(
        registry.snapshot, lambda: {"workers": {"w0": {"ok": True}}}, port=0
    ).start()
    try:
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as rsp:
            assert rsp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            samples = parse_prometheus(rsp.read().decode())
        assert ("repro_pings", {}, 7.0) in samples
        with urllib.request.urlopen(server.url + "/status", timeout=10) as rsp:
            doc = json.loads(rsp.read().decode())
        assert doc == {"workers": {"w0": {"ok": True}}}
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as rsp:
            assert rsp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(server.url + "/nope", timeout=10)
    finally:
        server.stop()


def test_status_server_survives_snapshot_exceptions():
    def broken():
        raise RuntimeError("raced")

    server = StatusServer(broken, broken, port=0).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/metrics", timeout=10)
        assert err.value.code == 500
    finally:
        server.stop()


def test_status_port_env(monkeypatch):
    monkeypatch.delenv("REPRO_STATUS_PORT", raising=False)
    assert status_port() is None
    monkeypatch.setenv("REPRO_STATUS_PORT", "0")
    assert status_port() == 0
    monkeypatch.setenv("REPRO_STATUS_PORT", "9100")
    assert status_port() == 9100
    monkeypatch.setenv("REPRO_STATUS_PORT", "not-a-port")
    assert status_port() is None


# ------------------------------------------------------------------ sampler
def test_perflog_sampler_cadence_and_stable_fields(tmp_path):
    path = str(tmp_path / "perflog.jsonl")
    log = PerfLog(path, interval=1.0)
    builds = []

    def build():
        builds.append(1)
        return make_sample(tasks_running=len(builds))

    assert log.maybe_sample(10.0, build) is True  # first tick samples
    assert log.maybe_sample(10.5, build) is False  # not due: build not called
    assert log.maybe_sample(11.0, build) is True
    for tick in range(12, 22):
        log.maybe_sample(float(tick), build)
    log.close()
    assert len(builds) == 12  # one build per emitted sample, none wasted
    samples = read_perflog(path)
    assert len(samples) == 12
    stamps = [s["ts"] for s in samples]
    assert stamps == sorted(stamps)
    for sample in samples:
        assert set(sample) == set(SAMPLE_FIELDS)
    assert [s["tasks_running"] for s in samples] == list(range(1, 13))


def test_make_sample_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown perflog sample fields"):
        make_sample(tasks_runnning=1)  # typo must not silently pass


def test_get_perflog_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_PERFLOG_DIR", raising=False)
    log = get_perflog("manager")
    assert log is NULL_PERFLOG and not log.enabled
    # The no-op twin never invokes the (potentially expensive) builder.
    assert log.maybe_sample(0.0, lambda: 1 / 0) is False


# --------------------------------------------------------- live round trip
def test_manager_metrics_and_status_round_trip(tmp_path):
    with Manager(
        perflog_dir=str(tmp_path), perflog_interval=0.05, status_port=0
    ) as manager:
        library = manager.create_library_from_functions(
            "statusd-test", _double, function_slots=2
        )
        manager.install_library(library)
        with LocalWorkerFactory(manager, count=1, cores=2, status_interval=0.2):
            work = [FunctionCall("statusd-test", "_double", i) for i in range(8)]
            work.append(PythonTask(_double, 21))
            for item in work:
                manager.submit(item)
            # Scrape mid-run, the way an external poller would.
            manager.wait_all(work[:4], timeout=300.0)
            url = manager.status_server.url
            with urllib.request.urlopen(url + "/metrics", timeout=10) as rsp:
                samples = parse_prometheus(rsp.read().decode())
            manager.wait_all(work, timeout=300.0)
            with urllib.request.urlopen(url + "/status", timeout=10) as rsp:
                doc = json.loads(rsp.read().decode())
        assert all(w.state is TaskState.DONE for w in work)
        perflog_path = manager.perflog.perflog_path
        txnlog_path = manager.perflog.txnlog_path
    names = {name for name, _, _ in samples}
    assert "repro_completed" in names  # the manager's completion counter
    # The execute-time histogram must expose its full family.
    assert "repro_task_execute_seconds_bucket" in names
    assert "repro_task_execute_seconds_quantiles" in names
    assert len(doc["workers"]) == 1
    assert "statusd-test" in doc["contexts"]
    assert doc["last_sample"] is not None
    # The perflog is a genuine time series with the stable schema.
    series = read_perflog(perflog_path)
    assert len(series) >= 3
    stamps = [s["ts"] for s in series]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    for sample in series:
        assert set(sample) == set(SAMPLE_FIELDS)
    assert len({s["tasks_running"] for s in series}) > 1
    assert series[-1]["tasks_done"] == 9
    # The transaction log recorded the full task lifecycle.
    events = {t["event"] for t in read_perflog(txnlog_path)}
    assert {"task_submit", "task_dispatch", "task_done", "worker_join"} <= events


def _nap(seconds):
    import time

    time.sleep(seconds)
    return seconds


def test_perflog_busy_slots_counts_direct_invocations(tmp_path):
    """Regression: ``busy_slots`` summed the workers' heartbeats, which
    count only what a worker runs itself, so a wave of invocations on
    their instances' own links read 0 throughout."""
    with Manager(perflog_dir=str(tmp_path), perflog_interval=0.05) as manager:
        manager.install_library(
            manager.create_library_from_functions("busy", _nap, function_slots=2)
        )
        with LocalWorkerFactory(manager, count=1, cores=1):
            calls = [FunctionCall("busy", "_nap", 0.2) for _ in range(8)]
            for call in calls:
                manager.submit(call)
            manager.wait_all(calls, timeout=60.0)
        path = manager.perflog.perflog_path
    assert max(sample["busy_slots"] for sample in read_perflog(path)) >= 1
