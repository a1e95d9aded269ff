"""Run one ``repro`` CLI command in a fresh interpreter and report its timings.

Usage::

    python campaignbench/child.py REPORT SEED TRACE repro-args...

``run.py`` launches this script once per CLI command, with
``PYTHONPATH=src``.  It imports ``repro.cli`` (timed), re-seeds the
SPLASH-2 address streams when ``SEED`` is not 0, and calls
``repro.cli.main``.  At exit it writes ``REPORT`` (JSON) with
``time.monotonic()`` stamps, which are comparable across processes on
Linux, so the parent can place them against its own spawn time.

With ``TRACE`` = 1 the public entry points of each layer are wrapped
from outside the program: every call becomes a span ``[name, start,
end, parent]`` kept in memory and written out with the report, and a
few counts are read from the calls' return values.  With ``TRACE`` = 0
only the end of ``ExperimentContext.__init__`` is stamped, which bounds
the set-up time.
"""

import time

T_START = time.monotonic()

import dataclasses  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402


class SpanRecorder:
    """In-memory span stack plus counters, filled by wrapped layer calls."""

    def __init__(self, traced):
        self.traced = traced
        self.spans = []
        self.stack = []
        self.counts = {}
        self.context_end = None

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, observe=None):
        """``fn`` wrapped in a span named ``name``; ``observe(result)`` after."""
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def counted(self, fn, observe):
        """``fn`` with ``observe(result)`` after each call, and no span."""

        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result)
            return result

        return counting

    def stamp_context_end(self, init):
        """``ExperimentContext.__init__`` that records when it returned."""

        def stamped(*args, **kwargs):
            init(*args, **kwargs)
            self.context_end = time.monotonic()

        return stamped


def reseed_splash2(seed):
    """Give every SPLASH-2 spec an address-stream seed derived from ``seed``.

    The list and the name index are updated in place, so both
    ``SPLASH2`` and ``workload_by_name`` hand out the re-seeded models.
    """
    from repro.workloads import splash2
    from repro.workloads.base import WorkloadModel

    models = [
        WorkloadModel(
            dataclasses.replace(
                model.spec,
                seed=random.Random(f"{seed}/{model.spec.name}").randrange(1, 2**31),
            )
        )
        for model in splash2.SPLASH2
    ]
    splash2.SPLASH2[:] = models
    splash2._BY_NAME.clear()
    splash2._BY_NAME.update({model.name: model for model in models})


def install(recorder):
    """Patch the layers' public calls so every call site sees the wrapper.

    Class attributes are patched for methods; module attributes are
    patched wherever a function was imported by value.
    """
    from repro.harness import context

    ctx = context.ExperimentContext
    if not recorder.traced:
        # Import nothing the command would not: an untraced child only
        # stamps the end of set-up.
        ctx.__init__ = recorder.stamp_context_end(ctx.__init__)
        return

    import repro.harness as harness
    import repro.sim as sim
    from repro.harness import scenario1, scenario2
    from repro.harness.executor import ResultCache, SweepExecutor
    from repro.harness.journal import SweepJournal
    from repro.power.chippower import ChipPowerModel
    from repro.sim import ops
    from repro.sim.cmp import ChipMultiprocessor
    from repro.telemetry.manifest import TelemetryRun
    from repro.thermal.hotspot import HotSpotModel

    span, count = recorder.span, recorder.count
    ctx.__init__ = recorder.stamp_context_end(span("context.init", ctx.__init__))
    context.calibrate_power_model = span(
        "context.calibration", context.calibrate_power_model
    )

    def compiled(outcome):
        count("compile_hits", int(outcome.from_cache))

    compile_workload = span("ops.compile", ops.compile_workload, compiled)
    for module in (ops, sim, context):
        module.compile_workload = compile_workload

    def kernel_ran(result):
        if result.kernel is not None:
            count("sim_ops", result.kernel.total_ops)
            count("fast_path_ops", result.kernel.fast_path_ops)

    ChipMultiprocessor.run = span("cmp.kernel", ChipMultiprocessor.run, kernel_ran)
    ChipPowerModel.evaluate = span("chippower.evaluate", ChipPowerModel.evaluate)
    HotSpotModel.solve = span("hotspot.solve", HotSpotModel.solve)

    def mapped(outcomes):
        count("executor_points", len(outcomes))
        count("executor_points_failed", sum(1 for o in outcomes if not o.ok))

    SweepExecutor.map = span("executor.dispatch", SweepExecutor.map, mapped)

    def looked_up(entry):
        count("cache_hits", int(entry is not None))

    ResultCache.get = span("cache.get", ResultCache.get, looked_up)
    ResultCache.put = span("cache.put", ResultCache.put)
    SweepJournal.record = span("journal.record", SweepJournal.record)
    for method in ("record_point", "record_spans", "record_samples", "finalize"):
        setattr(TelemetryRun, method, span("telemetry.write", getattr(TelemetryRun, method)))

    ctx.run = recorder.counted(ctx.run, lambda _result: count("simulations"))

    def rows(results):
        count("rows", sum(len(app_rows) for app_rows in results.values()))

    for module, name in ((scenario1, "run_scenario1"), (scenario2, "run_scenario2")):
        pipeline = recorder.counted(getattr(module, name), rows)
        setattr(module, name, pipeline)
        setattr(harness, name, pipeline)


def main(argv):
    report_path, seed, trace, cli_args = argv[0], int(argv[1]), argv[2] == "1", argv[3:]
    recorder = SpanRecorder(trace)
    report = {"start": T_START}
    code = 1
    try:
        report["import_start"] = time.monotonic()
        import repro.cli

        report["import_end"] = time.monotonic()
        if seed:
            reseed_splash2(seed)
        install(recorder)
        sys.argv = ["repro", *cli_args]
        code = repro.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        report.update(
            exit_code=code,
            context_end=recorder.context_end,
            spans=recorder.spans,
            counts=recorder.counts,
        )
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
