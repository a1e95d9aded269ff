"""Unified telemetry: structured tracing, counter timelines, exports.

The subsystem has six pieces, threaded through the simulator, the
power/thermal models, the sweep executor, and the CLI:

* :mod:`repro.telemetry.trace` — ``Span``/``Tracer`` with monotonic
  timestamps, nested spans, and a zero-allocation no-op path when
  disabled (the default);
* :mod:`repro.telemetry.timeseries` — ``CounterSampler``: bounded,
  preallocated time-series sampling of named counter channels (power,
  temperature, IPC, miss rates, bus occupancy, …) at the end of each
  kernel run, power fixed-point iterations and thermal solves; same
  zero-alloc no-op discipline as the Tracer;
* :mod:`repro.telemetry.alerts` — declarative alert rules (thermal
  ceiling, power budget, IPC collapse, sampler overflow) evaluated over
  per-channel statistics at run finalize;
* :mod:`repro.telemetry.record` — the ``CaptureWindow``, the one rule
  by which a point's spans, samples and kernel records leave a process
  (and ``enable_telemetry``/``disable_telemetry``, the one switch);
  picklable ``KernelRecord`` / ``PointTelemetry`` records that carry
  them back through the executor's outcome channel (and into the result
  cache); and ``KernelAggregate``, the executor's one fold over them
  that ``--profile`` and the manifest both read;
* :mod:`repro.telemetry.manifest` — per-sweep run manifests plus JSONL
  event/span/timeline logs under ``--telemetry-dir``, with schema
  validation (:mod:`repro.telemetry.jsonl` reads those logs and the
  sweep journal back);
* :mod:`repro.telemetry.chrometrace` — Chrome ``trace_event`` JSON
  export with counter tracks (``repro trace export``) and plain-text
  phase metrics (``repro trace metrics``).

See docs/OBSERVABILITY.md for the artifact schema, span names, and
channel names.
"""
