"""repro.obs — unified observability: tracing, metrics, profiling, logs.

A zero-dependency observability layer threaded through every layer of
the scheduler:

* :mod:`repro.obs.metrics` — counters, gauges, timers and fixed-bucket
  histograms in a :class:`MetricsRegistry` with text/JSON/Prometheus
  exporters; process-safe through per-worker registries whose
  :meth:`~MetricsRegistry.drain` snapshots merge at chunk boundaries.
* :mod:`repro.obs.trace` — a schema-versioned JSONL event stream
  (:class:`TraceEvent`) of run/generation/evaluation/checkpoint/verify
  and campaign-trial spans; same-seed traces are bit-identical after
  :func:`strip_timestamps`.
* :mod:`repro.obs.profiler` — per-phase wall-time accumulation for the
  hot path, off by default via :data:`NULL_PROFILER`.
* :mod:`repro.obs.log` — the package's single logging configuration
  point (hierarchical ``repro.*`` loggers, optional JSON formatter,
  idempotent handler installation).
* :mod:`repro.obs.report` — the ``repro-emts report-trace`` renderer.
* :mod:`repro.obs.assemble` — joins the serving stack's per-process
  trace shards into causal per-request span trees
  (``report-trace --service``).
* :mod:`repro.obs.slo` — declarative SLO specs evaluated continuously
  from the metrics registry with multi-window burn-rate alerting.
* :mod:`repro.obs.flight` — a bounded crash flight recorder ring,
  dumped atomically beside quarantined spool records and on armed
  crash-point exits.

Instrumentation is **off by default** and adds <2 % overhead when
disabled (gated by ``benchmarks/check_perf.py``); enable it per run via
``EMTS.schedule(trace=..., metrics=...)`` or the ``--trace`` /
``--metrics-out`` CLI flags.
"""

from .._lazy import lazy_surface

# Submodules load on first use (PEP 562): the EMTS hot path needs only
# the trace, metrics, profiler and logging modules, while trace
# assembly, SLO evaluation and the report renderer serve the daemon
# and ``report-trace``.
__getattr__, __dir__ = lazy_surface(
    __name__,
    submodules=(
        "assemble",
        "flight",
        "instrument",
        "log",
        "metrics",
        "profiler",
        "report",
        "slo",
        "trace",
    ),
    exports={
        "assemble": (
            "SpanNode",
            "TraceTree",
            "assemble_traces",
            "canonical_tree",
            "render_service_report",
        ),
        "flight": (
            "FlightRecorder",
            "arm_crash_dump",
            "flight_recorder",
            "read_flight_dump",
            "reset_flight_recorder",
        ),
        "instrument": ("ObservedEvaluator", "run_metrics", "run_snapshot"),
        "log": (
            "JsonFormatter",
            "LOG_LEVELS",
            "configure_logging",
            "get_logger",
            "reset_logging",
        ),
        "metrics": (
            "Counter",
            "DEFAULT_SECONDS_BUCKETS",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "Timer",
        ),
        "profiler": ("NULL_PROFILER", "NullProfiler", "PhaseProfiler"),
        "report": ("render_trace_report", "summarize_runs"),
        "slo": (
            "SLOEngine",
            "SLOSpec",
            "default_service_slos",
            "evaluate_bench",
        ),
        "trace": (
            "EVENT_KINDS",
            "SUPPORTED_TRACE_VERSIONS",
            "TRACE_FORMAT",
            "TRACE_VERSION",
            "TraceContext",
            "TraceEvent",
            "Tracer",
            "canonical_events",
            "current_context",
            "derive_span_id",
            "derive_trace_id",
            "read_trace",
            "read_trace_prefix",
            "strip_timestamps",
            "use_context",
            "validate_event",
        ),
    },
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    # trace
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
    "EVENT_KINDS",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "current_context",
    "derive_span_id",
    "derive_trace_id",
    "read_trace",
    "read_trace_prefix",
    "use_context",
    "validate_event",
    "strip_timestamps",
    "canonical_events",
    # assembly
    "SpanNode",
    "TraceTree",
    "assemble_traces",
    "canonical_tree",
    "render_service_report",
    # slo
    "SLOSpec",
    "SLOEngine",
    "default_service_slos",
    "evaluate_bench",
    # flight recorder
    "FlightRecorder",
    "flight_recorder",
    "arm_crash_dump",
    "read_flight_dump",
    "reset_flight_recorder",
    # profiling
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    # logging
    "get_logger",
    "configure_logging",
    "reset_logging",
    "JsonFormatter",
    "LOG_LEVELS",
    # instrumentation + reporting
    "ObservedEvaluator",
    "run_metrics",
    "run_snapshot",
    "render_trace_report",
    "summarize_runs",
]
