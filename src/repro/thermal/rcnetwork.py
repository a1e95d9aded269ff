"""The compact RC thermal network behind the HotSpot stand-in.

HotSpot [38] models a chip as a network of thermal resistances: one
node per floorplan block, lateral resistances between adjacent blocks
through the silicon, and a vertical path from every block through the
heat spreader / heat sink to ambient.
Steady state is then a sparse linear system ``G T = P + G_amb T_amb``.

We assemble the conductance matrix straight from the floorplan's
adjacency and solve it with dense :mod:`numpy` linear algebra
(floorplans here have at most a few dozen blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.thermal.floorplan import Floorplan


@dataclass(frozen=True)
class ThermalMaterial:
    """Bulk material/package constants of the thermal network.

    Parameters
    ----------
    silicon_conductivity:
        Thermal conductivity of silicon, W/(m K).  ~100 at hot-die
        temperatures.
    die_thickness:
        Die thickness, metres.
    vertical_resistance_area:
        Specific vertical (die-to-ambient through the package) thermal
        resistance in K m^2/W; the per-block vertical resistance is this
        divided by block area.  This lumps spreader, sink, and convection.
    """

    silicon_conductivity: float = 100.0
    die_thickness: float = 0.5e-3
    vertical_resistance_area: float = 6.0e-5

    def __post_init__(self) -> None:
        if min(
            self.silicon_conductivity,
            self.die_thickness,
            self.vertical_resistance_area,
        ) <= 0:
            raise ConfigurationError("thermal material constants must be positive")


class ThermalRCNetwork:
    """Thermal resistance network over a floorplan with a steady-state solver."""

    def __init__(
        self,
        floorplan: Floorplan,
        material: ThermalMaterial | None = None,
    ) -> None:
        self.floorplan = floorplan
        self.material = material or ThermalMaterial()
        self._names = floorplan.names
        self._index = {name: i for i, name in enumerate(self._names)}
        self._conductance = self._build_conductance_matrix()

    def _vertical_conductance(self, name: str) -> float:
        area = self.floorplan.block(name).area
        resistance = self.material.vertical_resistance_area / area
        return 1.0 / resistance

    def _build_conductance_matrix(self) -> np.ndarray:
        """``G`` of ``G T = P + G_amb T_amb``: lateral plus vertical terms."""
        n = len(self._names)
        g_matrix = np.zeros((n, n))
        mat = self.material
        # Each diagonal entry sums several lateral terms, so their order
        # is part of the result's bits: adjacency() yields pairs block
        # by block in floorplan order (tests/thermal pins the matrices).
        for (a, b), edge_length in self.floorplan.adjacency().items():
            ca = self.floorplan.block(a).center()
            cb = self.floorplan.block(b).center()
            distance = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
            cross_section = edge_length * mat.die_thickness
            g = mat.silicon_conductivity * cross_section / distance
            i, j = self._index[a], self._index[b]
            g_matrix[i, i] += g
            g_matrix[j, j] += g
            g_matrix[i, j] -= g
            g_matrix[j, i] -= g
        for i, name in enumerate(self._names):
            g_matrix[i, i] += self._vertical_conductance(name)
        return g_matrix

    def _power_vector(self, power_map: Mapping[str, float]) -> np.ndarray:
        unknown = set(power_map) - set(self._names)
        if unknown:
            raise ConfigurationError(f"power map names not in floorplan: {sorted(unknown)}")
        vec = np.zeros(len(self._names))
        for name, watts in power_map.items():
            if watts < 0:
                raise ConfigurationError(f"negative power for block {name}")
            vec[self._index[name]] = watts
        return vec

    def steady_state(
        self, power_map: Mapping[str, float], ambient_k: float
    ) -> Dict[str, float]:
        """Steady-state block temperatures (kelvin) for a power map.

        Solves ``G T = P + G_vert T_amb`` where ``G`` includes lateral and
        vertical conductances.
        """
        p = self._power_vector(power_map)
        rhs = p.copy()
        for name in self._names:
            rhs[self._index[name]] += self._vertical_conductance(name) * ambient_k
        temperatures = np.linalg.solve(self._conductance, rhs)
        return dict(zip(self._names, temperatures.tolist()))
