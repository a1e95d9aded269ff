"""Activity-based dynamic power (the Wattch stand-in).

Wattch [3] charges a per-access energy to every microarchitectural event
and a per-cycle clock/base cost, with conditional clock gating for idle
units.  We do the same over the simulator's counters:

* per instruction: fetch/decode/rename/issue/execute/retire energy,
* per I-cache and D-cache access: the CACTI-derived array energy,
* per L2 access and per bus transaction: larger array/wire energies,
* per cycle: clock-tree and always-on energy, at a reduced
  ``idle_gating`` fraction while the core is stalled or parked
  (the "aggressive clock gating" the paper notes for the L2 [3]).

Energies are specified at the nominal supply and scale with (V/Vn)^2 —
per-event energy does not depend on frequency; frequency enters dynamic
*power* through the event rate, exactly as in Eq. 2.

Absolute values are Wattch-class estimates; the paper explicitly treats
Wattch's absolute scale as unreliable and renormalises it against
HotSpot (Section 3.3) — see :mod:`repro.power.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.sim.clock import ClockDomain
from repro.sim.cmp import SimulationResult

NJ = 1e-9


@dataclass(frozen=True)
class UnitEnergies:
    """Per-event dynamic energies (joules) at the nominal supply voltage."""

    v_nominal: float = 1.1
    instruction_j: float = 3.5 * NJ
    l1_access_j: float = 0.20 * NJ
    l2_access_j: float = 1.6 * NJ
    bus_transaction_j: float = 1.0 * NJ
    clock_cycle_j: float = 3.0 * NJ
    #: Fraction of the per-cycle clock/base energy burned while gated
    #: (stalled or parked at a barrier).
    idle_gating: float = 0.25
    #: Per-cycle background energy of the (aggressively gated) L2 block.
    l2_idle_cycle_j: float = 0.15 * NJ

    def __post_init__(self) -> None:
        if self.v_nominal <= 0:
            raise ConfigurationError("v_nominal must be positive")
        if not 0.0 <= self.idle_gating <= 1.0:
            raise ConfigurationError("idle_gating must be in [0, 1]")

    def voltage_scale(self, v: float) -> float:
        """The (V/Vn)^2 energy scaling of Eq. 2."""
        if v <= 0:
            raise ConfigurationError("voltage must be positive")
        return (v / self.v_nominal) ** 2


class WattchModel:
    """Aggregates a simulation's activity counters into dynamic power."""

    def __init__(self, energies: UnitEnergies | None = None) -> None:
        self.energies = energies or UnitEnergies()

    def core_dynamic_energy_j(
        self, result: SimulationResult, core_index: int
    ) -> float:
        """Dynamic energy of one core over the measured run (joules)."""
        e = self.energies
        scale = e.voltage_scale(result.config.voltage)
        stats = result.core_stats[core_index]
        cache = result.l1_caches[core_index]
        clock = ClockDomain(result.config.frequency_hz)

        busy_cycles = clock.ps_to_cycles(stats.busy_ps)
        total_cycles = clock.ps_to_cycles(result.execution_time_ps)
        idle_cycles = max(0.0, total_cycles - busy_cycles)

        energy = (
            stats.instructions * e.instruction_j
            + stats.icache_accesses * e.l1_access_j
            + cache.accesses * e.l1_access_j
            + busy_cycles * e.clock_cycle_j
            + idle_cycles * e.clock_cycle_j * e.idle_gating
        )
        return energy * scale

    def l2_dynamic_energy_j(self, result: SimulationResult) -> float:
        """Dynamic energy of the shared L2 + bus over the run (joules)."""
        e = self.energies
        scale = e.voltage_scale(result.config.voltage)
        clock = ClockDomain(result.config.frequency_hz)
        total_cycles = clock.ps_to_cycles(result.execution_time_ps)
        energy = (
            result.l2.accesses * e.l2_access_j
            + result.bus.transactions * e.bus_transaction_j
            + total_cycles * e.l2_idle_cycle_j
        )
        return energy * scale

    def dynamic_power_map(self, result: SimulationResult) -> Dict[str, float]:
        """Per-block average dynamic power (watts) over the measured run.

        Blocks are named to match :func:`repro.thermal.floorplan.cmp_floorplan`:
        ``core0..core{k-1}`` for the active cores and ``l2``.  Inactive
        cores are shut down and absent (zero power).
        """
        duration = result.execution_time_s
        if duration <= 0:
            raise ConfigurationError("simulation produced no measured time")
        powers = {
            f"core{i}": self.core_dynamic_energy_j(result, i) / duration
            for i in range(result.n_threads)
        }
        powers["l2"] = self.l2_dynamic_energy_j(result) / duration
        return powers

    def total_dynamic_power_w(self, result: SimulationResult) -> float:
        """Chip-wide average dynamic power (watts)."""
        # repro: allow[DET-FLOAT-SUM] map is built in fixed subsystem order
        return sum(self.dynamic_power_map(result).values())
