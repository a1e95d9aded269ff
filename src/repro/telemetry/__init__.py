"""Unified telemetry: structured tracing, counter timelines, exports.

The subsystem has six pieces, threaded through the simulator, the
power/thermal models, the sweep executor, and the CLI:

* :mod:`repro.telemetry.trace` — ``Span``/``Tracer`` with monotonic
  timestamps, nested spans, and a zero-allocation no-op path when
  disabled (the default);
* :mod:`repro.telemetry.timeseries` — ``CounterSampler``: bounded,
  preallocated time-series sampling of named counter channels (power,
  temperature, IPC, miss rates, bus occupancy, …) at kernel window
  boundaries, power fixed-point iterations, thermal solver steps, and
  governor decisions; same zero-alloc no-op discipline as the Tracer;
* :mod:`repro.telemetry.alerts` — declarative alert rules (thermal
  ceiling, power budget, IPC collapse, sampler overflow) evaluated over
  per-channel statistics at run finalize;
* :mod:`repro.telemetry.record` — picklable ``KernelRecord`` /
  ``PointTelemetry`` records that carry worker-side kernel stats, span
  trees, and counter samples back through the executor's outcome
  channel (and into the result cache), and ``KernelAggregate``, the
  executor's one fold over them that ``--profile`` and the manifest
  both read;
* :mod:`repro.telemetry.manifest` — per-sweep run manifests plus JSONL
  event/span/timeline logs under ``--telemetry-dir``, with schema
  validation;
* :mod:`repro.telemetry.chrometrace` — Chrome ``trace_event`` JSON
  export with counter tracks (``repro trace export``) and plain-text
  phase metrics (``repro trace metrics``).

See docs/OBSERVABILITY.md for the artifact schema, span names, and
channel names.
"""

from repro.telemetry.alerts import (
    DEFAULT_RULES,
    AlertFinding,
    AlertRule,
    ChannelStats,
    evaluate_rules,
    stats_from_samples,
)
from repro.telemetry.chrometrace import (
    chrome_trace_document,
    export_chrome_trace,
    metrics_table,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    TIMELINE_SCHEMA,
    TelemetryRun,
    git_sha,
    latest_run_dir,
    list_run_dirs,
    load_events,
    load_manifest,
    load_spans,
    load_timeline,
    resolve_run_dir,
    validate_run_dir,
)
from repro.telemetry.record import (
    KernelAggregate,
    KernelRecord,
    PointTelemetry,
    begin_point_capture,
    capturing,
    end_point_capture,
    record_kernel,
)
from repro.telemetry.timeseries import (
    CounterSampler,
    SampleRecord,
    channel_values,
    disable_sampling,
    enable_sampling,
    get_sampler,
    sample,
    set_sampler,
)
from repro.telemetry.trace import (
    NULL_SPAN,
    Span,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    now_us,
    set_tracer,
    span,
)

__all__ = [
    "DEFAULT_RULES",
    "MANIFEST_SCHEMA",
    "NULL_SPAN",
    "TIMELINE_SCHEMA",
    "AlertFinding",
    "AlertRule",
    "ChannelStats",
    "CounterSampler",
    "KernelAggregate",
    "KernelRecord",
    "PointTelemetry",
    "SampleRecord",
    "Span",
    "SpanRecord",
    "TelemetryRun",
    "Tracer",
    "begin_point_capture",
    "capturing",
    "channel_values",
    "chrome_trace_document",
    "disable_sampling",
    "disable_tracing",
    "enable_sampling",
    "enable_tracing",
    "end_point_capture",
    "evaluate_rules",
    "export_chrome_trace",
    "get_sampler",
    "get_tracer",
    "git_sha",
    "latest_run_dir",
    "list_run_dirs",
    "load_events",
    "load_manifest",
    "load_spans",
    "load_timeline",
    "metrics_table",
    "now_us",
    "record_kernel",
    "resolve_run_dir",
    "sample",
    "set_sampler",
    "set_tracer",
    "span",
    "stats_from_samples",
    "validate_run_dir",
]
