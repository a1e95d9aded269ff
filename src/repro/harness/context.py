"""Shared experimental infrastructure (Sections 3.1-3.3 assembled).

One :class:`ExperimentContext` owns everything the evaluation pipelines
need: the Table 1 CMP configuration, the HotSpot-style thermal model over
the 16-core floorplan, the Wattch energy model, the static-power curve,
the Section 3.3 power calibration, and the V/f operating-point table.

The calibration is a property of the machine, not of an experiment: it
is computed once per machine configuration and, given a
:class:`~repro.harness.executor.ResultCache` (``--cache``), replayed from
it, so a warm sweep runs no simulation at all.  Contexts are intended to
be built once and shared across experiments.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harness.executor import PointOutcome, ResultCache, config_key
from repro.power.calibration import PowerCalibration, calibrate_power_model
from repro.power.chippower import ChipPowerModel, ChipPowerResult
from repro.power.static import StaticPowerModel
from repro.power.wattch import UnitEnergies, WattchModel
from repro.sim.cmp import ChipMultiprocessor, CMPConfig, SimulationResult
from repro.sim.ops import compile_workload
from repro.tech.technology import NODE_65NM, TechnologyNode, VFTable
from repro.telemetry.record import record_kernel
from repro.thermal.floorplan import cmp_floorplan
from repro.thermal.hotspot import HotSpotModel
from repro.workloads.base import WorkloadModel


class ExperimentContext:
    """The assembled Table 1 machine plus its power/thermal toolchain.

    ``cache`` memoizes the Section 3.3 calibration: it is keyed by the
    machine (CMP config, technology, ambient, Wattch energies, static
    model) and not by ``workload_scale`` or the V/f ladder, so one entry
    serves every sweep on the same machine.
    """

    def __init__(
        self,
        cmp_config: Optional[CMPConfig] = None,
        tech: TechnologyNode = NODE_65NM,
        ambient_celsius: float = 45.0,
        energies: Optional[UnitEnergies] = None,
        static_model: Optional[StaticPowerModel] = None,
        vf_step_hz: float = 200e6,
        f_min_hz: float = 200e6,
        workload_scale: float = 1.0,
        fast_path: bool = True,
        profile: bool = False,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if workload_scale <= 0:
            raise ConfigurationError("workload_scale must be positive")
        #: Which simulation kernel :meth:`run` uses.  The fast path and
        #: the reference interpreter are bitwise-identical in every
        #: counter (tests/sim/test_fastpath_equivalence.py), so neither
        #: flag enters the fingerprint: cached rows are valid across
        #: kernel modes.
        self.fast_path = fast_path
        self.profile = profile
        self.cmp_config = cmp_config or CMPConfig(
            frequency_hz=tech.f_nominal, voltage=tech.vdd_nominal
        )
        self.tech = tech
        self.workload_scale = workload_scale
        self.thermal = HotSpotModel(
            cmp_floorplan(self.cmp_config.n_cores),
            ambient_celsius=ambient_celsius,
            exclude_from_average=("l2",),
        )
        self.wattch = WattchModel(energies)
        self.static_model = static_model or StaticPowerModel(
            design_ratio=tech.static_fraction_nominal
            / (1.0 - tech.static_fraction_nominal)
        )
        #: The Pentium-M-style operating-point table of Section 3.1:
        #: 200 MHz .. f_nominal in 200 MHz steps, VID linear in frequency
        #: like the datasheet the paper extrapolates from [18].
        self.vf_table = VFTable.linear(
            tech, f_min=f_min_hz, f_max=tech.f_nominal, step=vf_step_hz
        )
        self.calibration = self._calibration(cache, ambient_celsius, energies)
        self.chip_power = ChipPowerModel(
            self.thermal, self.wattch, self.static_model, self.calibration
        )
        #: Everything that determines a simulation's outcome, recorded at
        #: construction time for content-addressed result caching.
        self._fingerprint = {
            "kind": "experiment-context",
            "cmp_config": self.cmp_config,
            "tech": tech,
            "ambient_celsius": ambient_celsius,
            "energies": energies,
            "static_model": self.static_model,
            "vf_step_hz": vf_step_hz,
            "f_min_hz": f_min_hz,
            "workload_scale": workload_scale,
        }

    def _calibration(
        self,
        cache: Optional[ResultCache],
        ambient_celsius: float,
        energies: Optional[UnitEnergies],
    ) -> PowerCalibration:
        """The machine's calibration, replayed from ``cache`` when it can be."""
        key = config_key(
            {
                "kind": "power-calibration",
                "cmp_config": self.cmp_config,
                "tech": self.tech,
                "ambient_celsius": ambient_celsius,
                "energies": energies,
                "static_model": self.static_model,
            }
        )
        hit = cache.get(key) if cache is not None else None
        if hit is not None and isinstance(hit.value, PowerCalibration):
            return hit.value
        calibration = calibrate_power_model(
            self.cmp_config, self.thermal, self.wattch, self.static_model
        )
        if cache is not None:
            cache.put(key, PointOutcome(index=0, key=key, value=calibration))
        return calibration

    def fingerprint(self) -> dict:
        """The context's defining parameters, for result-cache keys.

        Two contexts with equal fingerprints produce identical
        simulation results, so the
        :class:`~repro.harness.executor.ResultCache` may reuse rows
        across them.
        """
        return dict(self._fingerprint)

    @property
    def f_nominal(self) -> float:
        """Nominal chip frequency (Table 1: 3.2 GHz)."""
        return self.tech.f_nominal

    @property
    def f_min(self) -> float:
        """Lowest supported chip frequency (Section 3.1: 200 MHz)."""
        return self.vf_table.f_min

    def clamp_frequency(self, f_hz: float) -> float:
        """Clamp a target frequency into the legal scaling range."""
        return min(max(f_hz, self.f_min), self.f_nominal)

    def scaled_model(self, model: WorkloadModel) -> WorkloadModel:
        """``model`` under this context's ``workload_scale``."""
        if self.workload_scale != 1.0:
            return WorkloadModel(model.spec.scaled(self.workload_scale))
        return model

    def precompile(self, model: WorkloadModel, n_threads: int):
        """Warm the process-wide compile cache for one (model, N) pair.

        The executor calls this in the coordinator before dispatching a
        sweep, so forked farm children inherit (and spawned ones receive)
        already-compiled streams instead of recompiling per process.
        Returns the :class:`repro.sim.ops.CompileOutcome`.
        """
        return compile_workload(self.scaled_model(model), n_threads)

    def run(
        self,
        model: WorkloadModel,
        n_threads: int,
        frequency_hz: Optional[float] = None,
        voltage: Optional[float] = None,
        core_operating_points: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> Tuple[SimulationResult, ChipPowerResult]:
        """Simulate one configuration and evaluate its power/thermal state.

        Frequency defaults to nominal.  Without a voltage, the frequency
        is clamped into the legal scaling range and the voltage is the
        V/f table's entry for it.  An explicit (frequency, voltage) pair
        is simulated as given, without clamping.  ``core_operating_points`` — one
        ``(frequency, voltage)`` per thread — gives each core its own
        clock domain (the per-core DVFS study); the chip-wide pair then
        only names the configuration.
        """
        f_hz = frequency_hz or self.f_nominal
        if voltage is None:
            f_hz = self.clamp_frequency(f_hz)
            voltage = self.vf_table.voltage_for_frequency(f_hz)
        config = self.cmp_config.with_operating_point(f_hz, voltage)
        scaled = self.scaled_model(model)
        compiled = compile_workload(scaled, n_threads)
        chip = ChipMultiprocessor(
            config, fast_path=self.fast_path, profile=self.profile
        )
        # The whole program (not just its streams): the fast path reuses
        # the memoized private-line classification across V/f points.
        result = chip.run(
            compiled.program,
            scaled.core_timing(),
            warmup_barriers=scaled.warmup_barriers,
            core_operating_points=core_operating_points,
        )
        if result.kernel is not None:
            result.kernel.compile_s = compiled.seconds
            result.kernel.compile_cache_hit = compiled.from_cache
            result.kernel.compile_cache_evicted = compiled.evicted
            # The point's capture window carries the stats to the
            # executor's kernel ledger from any process.
            record_kernel(result.kernel)
        power = self.chip_power.evaluate(result)
        return result, power
