"""Observability: structured tracing, metrics, live telemetry, and export.

The package has six layers:

- :mod:`repro.obs.trace` -- per-process ``Tracer`` objects that record
  typed lifecycle events into a bounded in-memory ring buffer.  Worker
  and library events piggyback on existing wire frames back to the
  manager, which assembles one causally-ordered timeline per task.
- :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms (now with ``quantile()`` tail estimates) behind a
  ``MetricsRegistry``, plus a ``StatsShim`` that keeps the historical
  ``manager.stats[...]`` mapping interface alive.
- :mod:`repro.obs.perflog` -- the *live* time-series performance log and
  append-only transaction log sampled by the manager while a run is in
  flight, plus the simulator's writer for the same JSONL schema.
- :mod:`repro.obs.statusd` -- a stdlib ``http.server`` status server
  exposing ``/metrics`` (Prometheus text exposition) and ``/status``
  (JSON occupancy document) from a daemon thread in the manager.
- :mod:`repro.obs.export` / :mod:`repro.obs.report` -- post-hoc Chrome
  ``trace_event`` export and the per-invocation cost report; the run
  report CLI (``python -m repro.obs report``) summarizing a perflog or
  federating a sharded run directory (``--shard-dir``).
- :mod:`repro.obs.slo` -- declarative per-tenant SLO targets scored
  from observed telemetry with multi-window burn rates, emitted as
  ``slo.*`` metrics and a flat scorecard dict.

Under a sharded router (PR 8+) the plane is cluster-wide: the router
stamps every submission with a trace id that flows through shard,
worker, and library frames, and federates each shard's registry into
one merged ``/metrics`` + ``/status`` (see DESIGN.md section 2i).

Everything here is disabled unless asked for: tracing via
``REPRO_TRACE``, the perflog sampler via ``REPRO_PERFLOG_DIR``, the
status server via ``REPRO_STATUS_PORT``.  Each disabled path hands out
a shared null object (``NullTracer`` / ``NullPerfLog``) whose methods
are no-ops so instrumented hot paths stay cheap.
"""

from repro import lazy_exports

# Resolved on first access: a library process needs ``trace`` alone, not
# the status server, the report CLI or the SLO board.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "trace": (
            "NullTracer",
            "TraceEvent",
            "Tracer",
            "get_tracer",
            "merge_task_timeline",
            "read_jsonl",
            "tracing_enabled",
            "unparented_events",
            "write_jsonl",
        ),
        "metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "StatsShim",
            "federate_snapshots",
        ),
        "perflog": (
            "NULL_PERFLOG",
            "NullPerfLog",
            "PerfLog",
            "SAMPLE_FIELDS",
            "get_perflog",
            "make_sample",
            "perflog_enabled",
            "read_perflog",
            "rss_bytes",
            "write_perflog",
        ),
        "statusd": (
            "StatusServer",
            "parse_prometheus",
            "render_prometheus",
            "shard_status_port",
            "status_port",
        ),
        "arrivals": ("arrival_rates", "read_arrivals"),
        "report": ("federated_report", "run_report", "sparkline"),
        "export": (
            "chrome_trace",
            "cost_components",
            "cost_report",
            "write_chrome_trace",
        ),
        "slo": (
            "SLOBoard",
            "SLOTarget",
            "good_fraction_from_histogram",
            "latency_events",
        ),
    },
)
