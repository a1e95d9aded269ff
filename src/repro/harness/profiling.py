"""Point simulation and nominal-V/f profiling (Sections 4.1 and 4.2).

:func:`simulate_point` is the one way the experimental pipelines
simulate an (N, f) operating point: a :class:`SimPointTask` in, a flat,
cacheable :class:`SimPointRow` out, memoized under :func:`sim_point_key`.

A profile runs an application at nominal voltage and frequency on every
supported core count, recording execution time and power.  From it come
the application's nominal parallel efficiency curve (Eq. 6), its nominal
speedups, and the single-core power baseline the Figure 3 normalisations
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.context import ExperimentContext
from repro.harness.executor import SweepExecutor
from repro.workloads.base import WorkloadModel, WorkloadSpec


@dataclass(frozen=True)
class SimPointRow:
    """The flat, cacheable summary of one simulated operating point.

    This is the unit the :class:`~repro.harness.executor.SweepExecutor`
    memoizes: every field is a JSON-representable scalar derived from
    one ``context.run`` call, and together they cover what the
    Scenario I/II pipelines and the characterization command read off
    a run.
    """

    app: str
    n: int
    frequency_hz: float
    voltage: float
    execution_time_ps: int
    total_power_w: float
    core_power_density_w_m2: float
    average_temperature_c: float
    average_cpi: float
    l1_miss_rate: float
    memory_stall_fraction: float
    bus_utilisation: float


@dataclass(frozen=True)
class SimPointTask:
    """One (workload, N, V/f) simulation request.

    ``frequency_hz``/``voltage`` of ``None`` mean "nominal" and "look
    the V/f table up", exactly like
    :meth:`~repro.harness.context.ExperimentContext.run`; an explicit
    pair is simulated as given.  Every experimental pipeline simulates
    its (N, f) points through this task and :func:`simulate_point`.
    """

    spec: WorkloadSpec
    n: int
    frequency_hz: Optional[float] = None
    voltage: Optional[float] = None


def simulate_point(context: ExperimentContext, task: SimPointTask) -> SimPointRow:
    """Worker: simulate one operating point and flatten the outcome."""
    model = WorkloadModel(task.spec)
    result, power = context.run(model, task.n, task.frequency_hz, task.voltage)
    return SimPointRow(
        app=task.spec.name,
        n=task.n,
        frequency_hz=result.config.frequency_hz,
        voltage=result.config.voltage,
        execution_time_ps=result.execution_time_ps,
        total_power_w=power.total_w,
        core_power_density_w_m2=power.core_power_density_w_m2,
        average_temperature_c=power.average_temperature_c,
        average_cpi=result.average_cpi,
        l1_miss_rate=result.l1_miss_rate(),
        memory_stall_fraction=result.memory_stall_fraction(),
        bus_utilisation=result.bus.utilisation(result.execution_time_ps),
    )


def sim_point_key(context: ExperimentContext, task: SimPointTask) -> dict:
    """The cache-key config of one :func:`simulate_point` evaluation."""
    return {"kind": "simpoint", "context": context.fingerprint(), "task": task}


def precompile_hook(context: ExperimentContext):
    """A :meth:`SweepExecutor.map` ``precompile`` hook for (spec, N) tasks.

    Returns a callable the executor invokes in the coordinator with the
    points its result cache could not satisfy; each distinct
    ``(task.spec, task.n)`` pair is compiled once into the process-wide
    :data:`repro.sim.ops.stream_cache` (at the context's workload
    scale), so forked workers inherit warm streams and a fully cached
    sweep compiles nothing.
    """

    def warm(points) -> None:
        seen = set()
        for task in points:
            pair = (task.spec, task.n)
            if pair not in seen:
                seen.add(pair)
                context.precompile(WorkloadModel(task.spec), task.n)

    return warm


def profile_rows(
    context: ExperimentContext,
    model: WorkloadModel,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    executor: Optional[SweepExecutor] = None,
) -> Dict[int, SimPointRow]:
    """Nominal-V/f profile of one application as flat, cacheable rows.

    Points fan out across the executor's workers, and on a warm cache
    no simulation runs at all.
    """
    executor = executor if executor is not None else SweepExecutor()
    supported = model.supported_thread_counts(core_counts)
    if 1 not in supported:
        raise ConfigurationError(f"{model.name}: the 1-core baseline is required")
    tasks = [SimPointTask(spec=model.spec, n=n) for n in supported]
    rows = executor.map_values(
        partial(simulate_point, context),
        tasks,
        key_configs=[sim_point_key(context, task) for task in tasks],
        precompile=precompile_hook(context),
    )
    return {row.n: row for row in rows}

