"""Full-chip power integration: counters -> watts -> temperature -> watts.

Given one :class:`~repro.sim.cmp.SimulationResult`, this module produces
the quantities Figure 3 plots:

* total chip power (dynamic + static, L2 included),
* average power density over the *active* cores (L2 excluded,
  Section 3.3),
* average operating temperature over the active cores.

Static power depends on temperature and temperature on power, so the
evaluation iterates the HotSpot model to a fixed point, exactly like the
analytical scenarios do.  All raw Wattch wattages are renormalised
through the :class:`~repro.power.calibration.PowerCalibration` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConvergenceError
from repro.power.calibration import PowerCalibration
from repro.power.static import StaticPowerModel
from repro.power.wattch import WattchModel
from repro.sim.cmp import SimulationResult
from repro.telemetry.trace import get_tracer
from repro.thermal.hotspot import HotSpotModel, ThermalResult
from repro.units import kelvin_to_celsius


@dataclass(frozen=True)
class ChipPowerResult:
    """Power/thermal outcome of one simulation run."""

    dynamic_w: float
    static_w: float
    power_map: Dict[str, float]
    thermal: ThermalResult
    #: Average temperature over the ACTIVE cores (Celsius).
    average_temperature_c: float
    #: Total active-core power over active-core area (W/m^2), L2 excluded.
    core_power_density_w_m2: float
    #: Measured execution time of the run the power was averaged over (s).
    execution_time_s: float = 0.0

    @property
    def total_w(self) -> float:
        """Total chip power (dynamic + static, L2 included)."""
        return self.dynamic_w + self.static_w

    @property
    def static_fraction(self) -> float:
        """Share of total power that is static."""
        return self.static_w / self.total_w if self.total_w else 0.0

    @property
    def energy_j(self) -> float:
        """Total energy of the run (joules) — the metric the paper's
        follow-on energy-efficiency literature optimises."""
        return self.total_w * self.execution_time_s

    @property
    def energy_delay_j_s(self) -> float:
        """Energy-delay product (J*s)."""
        return self.energy_j * self.execution_time_s


class ChipPowerModel:
    """Evaluates chip power and temperature for simulation results."""

    def __init__(
        self,
        thermal: HotSpotModel,
        wattch: WattchModel,
        static_model: StaticPowerModel,
        calibration: PowerCalibration,
    ) -> None:
        self.thermal = thermal
        self.wattch = wattch
        self.static_model = static_model
        self.calibration = calibration

    def evaluate(
        self,
        result: SimulationResult,
        tol_c: float = 1e-4,
        max_iterations: int = 200,
    ) -> ChipPowerResult:
        """Resolve the power/temperature fixed point for one run."""
        dynamic_map = {
            name: self.calibration.renormalise(watts)
            for name, watts in self.wattch.dynamic_power_map(result).items()
        }
        active_blocks = [name for name in dynamic_map if name != "l2"]
        floorplan = self.thermal.floorplan

        # Fixed point: temperatures determine static power determines
        # temperatures.  Start from the all-dynamic map.
        temperatures_c: Dict[str, float] = {name: 60.0 for name in dynamic_map}
        thermal_result: Optional[ThermalResult] = None
        static_map: Dict[str, float] = {}
        with get_tracer().span("power.solve", blocks=len(dynamic_map)) as span:
            iterations = 0
            for _ in range(max_iterations):
                iterations += 1
                static_map = {
                    name: self.static_model.static_power_w(
                        dynamic_map[name], temperatures_c[name]
                    )
                    for name in dynamic_map
                }
                total_map = {
                    name: dynamic_map[name] + static_map[name]
                    for name in dynamic_map
                }
                thermal_result = self.thermal.solve(total_map)
                updated = {
                    name: kelvin_to_celsius(
                        thermal_result.block_temperatures_k[name]
                    )
                    for name in dynamic_map
                }
                shift = max(
                    abs(updated[name] - temperatures_c[name])
                    for name in dynamic_map
                )
                temperatures_c = updated
                if shift < tol_c:
                    break
            else:
                raise ConvergenceError(
                    "chip power/temperature fixed point diverged"
                )
            span.set(iterations=iterations)

        power_map = {
            name: dynamic_map[name] + static_map[name] for name in dynamic_map
        }
        active_area = sum(floorplan.block(name).area for name in active_blocks)
        active_power = sum(power_map[name] for name in active_blocks)
        avg_temp = sum(
            temperatures_c[name] * floorplan.block(name).area
            for name in active_blocks
        ) / active_area

        return ChipPowerResult(
            # repro: allow[DET-FLOAT-SUM] maps are built in fixed block order
            dynamic_w=sum(dynamic_map.values()),
            # repro: allow[DET-FLOAT-SUM] maps are built in fixed block order
            static_w=sum(static_map.values()),
            power_map=power_map,
            thermal=thermal_result,
            average_temperature_c=avg_temp,
            core_power_density_w_m2=active_power / active_area,
            execution_time_s=result.execution_time_s,
        )
