"""Unified telemetry: structured tracing, point rows, exports.

The subsystem has six pieces, threaded through the simulator, the
power/thermal models, the sweep executor, and the CLI:

* :mod:`repro.telemetry.trace` — ``Span``/``Tracer`` with monotonic
  timestamps, nested spans, and a zero-allocation no-op path when
  disabled (the default);
* :mod:`repro.telemetry.alerts` — declarative alert rules (thermal
  ceiling, power budget, IPC collapse) evaluated over per-field
  statistics of the sweep points' rows at run finalize;
* :mod:`repro.telemetry.record` — the ``CaptureWindow``, the one rule
  by which a point's spans and kernel records leave a process (and
  ``enable_telemetry``/``disable_telemetry``, the one switch);
  picklable ``KernelRecord`` / ``PointTelemetry`` records that carry
  them back through the executor's outcome channel (and into the result
  cache); and ``KernelAggregate``, the executor's one fold over them
  that ``--profile`` and the manifest both read;
* :mod:`repro.telemetry.manifest` — per-sweep run manifests plus JSONL
  event/span logs under ``--telemetry-dir``, with schema validation
  (:mod:`repro.telemetry.jsonl` reads those logs and the sweep journal
  back).  Each ``point`` event carries its row, the one record of what
  the modelled chip did at that point;
* :mod:`repro.telemetry.chrometrace` — Chrome ``trace_event`` JSON
  export with one counter track per row field (``repro trace export``)
  and plain-text phase metrics (``repro trace metrics``).

See docs/OBSERVABILITY.md for the artifact schema, span names, and
row fields.
"""
