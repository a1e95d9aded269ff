"""The HotSpot-style facade: power map in, block temperatures out.

This is the interface both halves of the reproduction use:

* the analytical scenarios need only an *average* die temperature for the
  leakage feedback loop of Eqs. 4/8;
* the experimental Scenario I reports the average operating temperature
  (Figure 3, bottom panel), computed over the cores only — the shared L2
  is excluded from temperature/density averages per Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.trace import get_tracer
from repro.thermal.floorplan import Floorplan
from repro.thermal.rcnetwork import ThermalMaterial, ThermalRCNetwork
from repro.units import celsius_to_kelvin


@dataclass(frozen=True)
class ThermalResult:
    """Block temperatures plus the aggregates the experiments report."""

    block_temperatures_k: Dict[str, float]
    average_k: float
    peak_k: float

    def average_celsius(self) -> float:
        """Average temperature in degrees Celsius."""
        return self.average_k - 273.15

    def peak_celsius(self) -> float:
        """Peak block temperature in degrees Celsius."""
        return self.peak_k - 273.15


class HotSpotModel:
    """Steady-state thermal estimation over a floorplan.

    Parameters
    ----------
    floorplan:
        The die layout.
    ambient_celsius:
        In-box ambient air temperature; the paper uses 45 C (Table 1).
    material:
        Optional override of the silicon/package constants.
    exclude_from_average:
        Block names excluded from the reported average (the paper excludes
        the L2, Section 3.3).  Excluded blocks still participate in the RC
        network and in total power.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        ambient_celsius: float = 45.0,
        material: ThermalMaterial | None = None,
        exclude_from_average: Sequence[str] = (),
    ) -> None:
        self.floorplan = floorplan
        self.ambient_k = celsius_to_kelvin(ambient_celsius)
        self.network = ThermalRCNetwork(floorplan, material)
        self._areas = {block.name: block.area for block in floorplan.blocks}
        missing = set(exclude_from_average) - set(floorplan.names)
        if missing:
            raise ConfigurationError(
                f"exclude_from_average names not in floorplan: {sorted(missing)}"
            )
        self.exclude_from_average = tuple(exclude_from_average)

    def _aggregate(self, temperatures: Mapping[str, float]) -> ThermalResult:
        averaged = {
            name: t
            for name, t in temperatures.items()
            if name not in self.exclude_from_average
        }
        if not averaged:
            raise ConfigurationError("all blocks excluded from the average")
        # Area-weighted average over the reported blocks.
        areas = self._areas
        total_area = sum(areas[n] for n in averaged)
        average = (
            # repro: allow[DET-FLOAT-SUM] dict preserves the fixed floorplan block order
            sum(t * areas[n] for n, t in averaged.items())
            / total_area
        )
        return ThermalResult(
            block_temperatures_k=dict(temperatures),
            average_k=average,
            peak_k=max(averaged.values()),
        )

    def solve(self, power_map: Mapping[str, float]) -> ThermalResult:
        """Steady-state temperatures for the given block power map (watts).

        Blocks absent from the map dissipate zero power.  Temperatures are
        floored at ambient by construction of the RC network.
        """
        with get_tracer().span("thermal.solve", blocks=len(power_map)):
            temperatures = self.network.steady_state(power_map, self.ambient_k)
            return self._aggregate(temperatures)
