"""Experimental Scenario I: iso-performance power optimization (Sec. 4.1).

The paper's pipeline, reproduced step by step:

1. profile every application at nominal V/f over N in {1, 2, 4, 8, 16}
   to obtain its nominal parallel efficiency curve and the 1-core power
   baseline;
2. compute each configuration's target frequency from Eq. 7
   (``f_N = f_1 / (N * eps_n)``), clamped into the chip's scaling range,
   and look the supply voltage up in the V/f table;
3. re-simulate at the scaled (frequency, voltage) point and collect
   the five Figure 3 panels: nominal parallel efficiency, actual speedup,
   normalized power, normalized power density, and average temperature.

Actual speedups can exceed 1 (most visibly for memory-bound codes):
chip DVFS does not slow the 75 ns memory, so the processor-memory gap
narrows — the effect the analytical model cannot capture.

Both stages run through a
:class:`~repro.harness.executor.SweepExecutor` by
:func:`~repro.harness.profiling.simulate_points`: the nominal
profiling points of *all* applications fan out together, then all the
scaled re-simulations do, and the coordinator assembles the rows.  Every
point is memoized under the shared ``simpoint`` cache key, so re-running
a campaign whose configurations have not changed simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.context import ExperimentContext
from repro.harness.executor import SweepExecutor
from repro.harness.profiling import SimPointRow, SimPointTask, simulate_points
from repro.workloads.base import WorkloadModel


@dataclass(frozen=True)
class Scenario1Row:
    """One (application, N) outcome — one bar in each Figure 3 panel."""

    app: str
    n: int
    nominal_efficiency: float
    actual_speedup: float
    normalized_power: float
    normalized_power_density: float
    average_temperature_c: float
    frequency_hz: float
    voltage: float
    total_power_w: float


def run_scenario1(
    context: ExperimentContext,
    models: Sequence[WorkloadModel],
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, List[Scenario1Row]]:
    """The Figure 3 experiment for a set of applications.

    Points that fail with a library error (e.g. an infeasible operating
    point) are recorded by the executor as typed failures and omitted
    from the returned rows; they never abort the campaign.
    """
    executor = executor if executor is not None else SweepExecutor()

    # Stage 1: one flat fan-out over every application's nominal profile.
    profile_tasks = [
        SimPointTask(spec=model.spec, n=n)
        for model in models
        for n in model.supported_thread_counts(core_counts)
    ]
    profile_outcomes = simulate_points(context, executor, profile_tasks)
    profiles: Dict[str, Dict[int, SimPointRow]] = {m.name: {} for m in models}
    for task, outcome in zip(profile_tasks, profile_outcomes):
        profiles[task.spec.name][task.n] = outcome.unwrap()

    # Stage 2: every scaled re-simulation, across all applications.
    results: Dict[str, List[Scenario1Row]] = {}
    scaled_tasks: List[SimPointTask] = []
    efficiencies: List[float] = []
    for model in models:
        entries = profiles[model.name]
        if 1 not in entries:
            raise ConfigurationError(
                f"{model.name}: the 1-core baseline is required"
            )
        baseline = entries[1]
        results[model.name] = [
            Scenario1Row(
                app=model.name,
                n=1,
                nominal_efficiency=1.0,
                actual_speedup=1.0,
                normalized_power=1.0,
                normalized_power_density=1.0,
                average_temperature_c=baseline.average_temperature_c,
                frequency_hz=context.f_nominal,
                voltage=context.vf_table.voltage_for_frequency(context.f_nominal),
                total_power_w=baseline.total_power_w,
            )
        ]
        for n in sorted(entries)[1:]:
            eps_n = baseline.execution_time_ps / (n * entries[n].execution_time_ps)
            # Eq. 7, clamped to the chip's legal frequency range (no
            # overclocking even when N * eps < 1; no scaling below
            # 200 MHz).
            f_target = context.clamp_frequency(context.f_nominal / (n * eps_n))
            scaled_tasks.append(
                SimPointTask(
                    spec=model.spec,
                    n=n,
                    frequency_hz=f_target,
                    voltage=context.vf_table.voltage_for_frequency(f_target),
                )
            )
            efficiencies.append(eps_n)
    outcomes = simulate_points(context, executor, scaled_tasks)
    for task, eps_n, outcome in zip(scaled_tasks, efficiencies, outcomes):
        if not outcome.ok:
            continue
        row, baseline = outcome.value, profiles[task.spec.name][1]
        results[task.spec.name].append(
            Scenario1Row(
                app=task.spec.name,
                n=task.n,
                nominal_efficiency=eps_n,
                actual_speedup=baseline.execution_time_ps / row.execution_time_ps,
                normalized_power=row.total_power_w / baseline.total_power_w,
                normalized_power_density=(
                    row.core_power_density_w_m2 / baseline.core_power_density_w_m2
                ),
                average_temperature_c=row.average_temperature_c,
                frequency_hz=task.frequency_hz,
                voltage=task.voltage,
                total_power_w=row.total_power_w,
            )
        )
    return results
