"""Per-core DVFS: the extension the paper marks "beyond the scope".

Section 3.1 notes that letting each core run at its own frequency is
conceivable but out of scope; the related work (Kadayif et al. [21])
proposes exactly that — slow down lightly-loaded threads so everyone
reaches the barrier together, saving energy at (ideally) no performance
cost.  With the simulator's per-core clock domains this policy is a
few lines:

1. run the application once at uniform nominal V/f and record each
   thread's *work time* (busy + memory stalls, excluding barrier waits);
2. set each core's frequency so its work stretches to just fill the
   slowest thread's time — ``f_i = f_nom * work_i / max_work`` — snapped
   *up* to the V/f table's grid (conservative: never slower than the
   policy asks), with the voltage from the table;
3. re-run with per-core operating points and compare time and energy.

The imbalance-heavy applications (Volrend, Cholesky, Raytrace) are where
the policy pays; perfectly balanced codes have nothing to harvest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harness.context import ExperimentContext
from repro.sim.cmp import SimulationResult
from repro.workloads.base import WorkloadModel


@dataclass(frozen=True)
class PerCoreDVFSResult:
    """Uniform-nominal versus per-core-DVFS comparison for one (app, N)."""

    app: str
    n: int
    uniform_time_s: float
    uniform_energy_j: float
    percore_time_s: float
    percore_energy_j: float
    core_frequencies_hz: Tuple[float, ...]
    core_voltages: Tuple[float, ...]

    @property
    def energy_saving(self) -> float:
        """Fractional energy saved by the per-core policy."""
        return 1.0 - self.percore_energy_j / self.uniform_energy_j

    @property
    def slowdown(self) -> float:
        """Execution-time ratio (per-core / uniform); ~1 is the goal."""
        return self.percore_time_s / self.uniform_time_s


def _snap_up(context: ExperimentContext, f_hz: float) -> float:
    """Snap a frequency up to the V/f table's 200 MHz grid."""
    step = 200e6
    snapped = math.ceil(f_hz / step) * step
    return context.clamp_frequency(snapped)


def plan_core_frequencies(
    context: ExperimentContext,
    uniform: SimulationResult,
    guard: float = 1.0,
) -> List[float]:
    """The Kadayif-style frequency assignment from a uniform profile.

    ``guard`` > 1 leaves headroom (runs each core slightly faster than
    the exact fill-the-barrier frequency) to absorb second-order effects
    such as shifted contention.
    """
    if guard < 1.0:
        raise ConfigurationError("guard must be >= 1")
    works = [stats.total_active_ps for stats in uniform.core_stats]
    slowest = max(works)
    if slowest <= 0:
        raise ConfigurationError("uniform profile recorded no work")
    f_nominal = context.f_nominal
    return [
        _snap_up(context, f_nominal * (work / slowest) * guard) for work in works
    ]


def run_percore_dvfs(
    context: ExperimentContext,
    model: WorkloadModel,
    n_threads: int,
    guard: float = 1.0,
) -> PerCoreDVFSResult:
    """Evaluate the per-core DVFS policy on one (application, N) point."""
    if n_threads < 2:
        raise ConfigurationError("per-core DVFS needs at least two threads")

    uniform_result, uniform_power = context.run(model, n_threads)
    frequencies = plan_core_frequencies(context, uniform_result, guard)
    voltages = [context.vf_table.voltage_for_frequency(f) for f in frequencies]

    percore_result, percore_power = context.run(
        model,
        n_threads,
        core_operating_points=list(zip(frequencies, voltages)),
    )

    return PerCoreDVFSResult(
        app=model.name,
        n=n_threads,
        uniform_time_s=uniform_result.execution_time_s,
        uniform_energy_j=uniform_power.energy_j,
        percore_time_s=percore_result.execution_time_s,
        percore_energy_j=percore_power.energy_j,
        core_frequencies_hz=tuple(frequencies),
        core_voltages=tuple(voltages),
    )


def run_percore_dvfs_suite(
    context: ExperimentContext,
    models: Sequence[WorkloadModel],
    n_threads: int = 16,
    guard: float = 1.0,
) -> List[PerCoreDVFSResult]:
    """The policy across a set of applications."""
    results = []
    for model in models:
        if not model.supports(n_threads):
            continue
        results.append(run_percore_dvfs(context, model, n_threads, guard))
    return results
