"""Shared experimental infrastructure (Sections 3.1-3.3 assembled).

The paper runs every experiment on one machine, so the machine is
fixed here: the Table 1 16-way CMP at 65 nm, its V/f ladder and the
static-power curve are module constants.  One :class:`ExperimentContext`
owns everything the evaluation pipelines need: that machine, the
HotSpot-style thermal model over the 16-core floorplan, the Wattch
energy model and the Section 3.3 power calibration.

The calibration is a property of the machine, not of an experiment: it
is computed once per model source and, given a
:class:`~repro.harness.executor.ResultCache` (``--cache``), replayed from
it, so a warm sweep runs no simulation at all.  Contexts are intended to
be built once and shared across experiments.

A warm sweep loads no engine either.  At module level this imports only
descriptions (:mod:`repro.sim.config`, the technology node, the static
power curve, :class:`~repro.power.calibration.PowerCalibration`): the
thermal model, the Wattch energies and the chip-power model are built on
first use, and :meth:`ExperimentContext.run` and
:meth:`~ExperimentContext.precompile` import the simulator and the
compiler when first called.  On a cold path the calibration uses all of
them inside ``__init__``, so cold set-up is unchanged.
"""

from __future__ import annotations

import os
import time
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigurationError
from repro.harness.executor import PointOutcome, ResultCache, config_key
from repro.power.calibration import PowerCalibration, calibrate_power_model
from repro.power.static import StaticPowerModel
from repro.sim.config import CMPConfig
from repro.tech.technology import NODE_65NM, VFTable
from repro.telemetry.record import CaptureWindow, PointTelemetry, record_kernel
from repro.telemetry.trace import now_us
from repro.workloads.base import WorkloadModel

if TYPE_CHECKING:
    from repro.power.chippower import ChipPowerModel, ChipPowerResult
    from repro.power.wattch import WattchModel
    from repro.sim.cmp import SimulationResult
    from repro.thermal.hotspot import HotSpotModel


#: Table 1's technology node.
TECH = NODE_65NM
#: The Table 1 16-way CMP at the node's nominal V/f.
CMP_CONFIG = CMPConfig(frequency_hz=TECH.f_nominal, voltage=TECH.vdd_nominal)
#: Ambient temperature of the HotSpot-style thermal model.
AMBIENT_CELSIUS = 45.0
#: The static-power curve anchored at the node's nominal static fraction.
STATIC_MODEL = StaticPowerModel(
    design_ratio=TECH.static_fraction_nominal / (1.0 - TECH.static_fraction_nominal)
)
#: The Pentium-M-style operating-point table of Section 3.1: 200 MHz ..
#: f_nominal in 200 MHz steps, VID linear in frequency like the
#: datasheet the paper extrapolates from [18].
VF_TABLE = VFTable.linear(TECH, f_min=200e6, f_max=TECH.f_nominal, step=200e6)


class ExperimentContext:
    """The assembled Table 1 machine plus its power/thermal toolchain.

    The machine is fixed (the module constants above): only the
    workloads' run length varies between contexts.  ``cache`` memoizes
    the Section 3.3 calibration under one key, which
    :func:`~repro.harness.executor.config_key` ties to the model source,
    so one entry serves every sweep until the model changes.
    """

    cmp_config = CMP_CONFIG
    tech = TECH
    static_model = STATIC_MODEL
    vf_table = VF_TABLE

    def __init__(
        self, workload_scale: float = 1.0, cache: Optional[ResultCache] = None
    ) -> None:
        if workload_scale <= 0:
            raise ConfigurationError("workload_scale must be positive")
        self.workload_scale = workload_scale
        self.calibration = self._calibration(cache)

    @cached_property
    def thermal(self) -> HotSpotModel:
        """The HotSpot-style model over the CMP floorplan."""
        from repro.thermal.floorplan import cmp_floorplan
        from repro.thermal.hotspot import HotSpotModel

        return HotSpotModel(
            cmp_floorplan(self.cmp_config.n_cores),
            ambient_celsius=AMBIENT_CELSIUS,
            exclude_from_average=("l2",),
        )

    @cached_property
    def wattch(self) -> WattchModel:
        """The Wattch per-event energy model."""
        from repro.power.wattch import WattchModel

        return WattchModel()

    @cached_property
    def chip_power(self) -> ChipPowerModel:
        """The full-chip power/thermal evaluation under the calibration."""
        from repro.power.chippower import ChipPowerModel

        return ChipPowerModel(
            self.thermal, self.wattch, self.static_model, self.calibration
        )

    def _calibration(self, cache: Optional[ResultCache]) -> PowerCalibration:
        """The machine's calibration, replayed from ``cache`` when it can be.

        Also sets :attr:`calibration_outcome`, the calibration as the
        cache holds it: its telemetry carries the microbenchmark run's
        ``KernelStats`` (the original run's on a replay) and, when it
        ran here, its spans, for the sweep's kernel ledger and trace.
        """
        key = config_key({"kind": "power-calibration"})
        hit = cache.get(key) if cache is not None else None
        if hit is not None and isinstance(hit.value, PowerCalibration):
            self.calibration_outcome = PointOutcome(
                0, key, hit.value, cached=True, telemetry=hit.telemetry
            )
            return hit.value
        start_us, start = now_us(), time.perf_counter()
        with CaptureWindow() as window:
            calibration = calibrate_power_model(
                self.cmp_config, self.thermal, self.wattch, self.static_model
            )
        telemetry = PointTelemetry(
            pid=os.getpid(),
            start_us=start_us,
            wall_s=time.perf_counter() - start,
            **window.captured._asdict(),
        )
        self.calibration_outcome = PointOutcome(0, key, calibration, telemetry=telemetry)
        if cache is not None:
            cache.put(key, self.calibration_outcome)
        return calibration

    def fingerprint(self) -> dict:
        """The context's defining parameters, for result-cache keys.

        The machine is fixed and :func:`~repro.harness.executor.config_key`
        already hashes the model source, so the workload scale is all
        that tells two contexts' simulation results apart.
        """
        return {"kind": "experiment-context", "workload_scale": self.workload_scale}

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
        from repro.sim import ops

        return ops.compile_workload(
            self.scaled_model(model), n_threads, self.cmp_config.l1_config
        )

    def run(
        self,
        model: WorkloadModel,
        n_threads: int,
        frequency_hz: Optional[float] = None,
        voltage: Optional[float] = None,
    ) -> Tuple[SimulationResult, ChipPowerResult]:
        """Simulate one configuration and evaluate its power/thermal state.

        Frequency defaults to nominal.  Without a voltage, the frequency
        is clamped into the legal scaling range and the voltage is the
        V/f table's entry for it.  An explicit (frequency, voltage) pair
        is simulated as given, without clamping.
        """
        from repro.sim import ops
        from repro.sim.cmp import ChipMultiprocessor

        f_hz = frequency_hz or self.f_nominal
        if voltage is None:
            f_hz = self.clamp_frequency(f_hz)
            voltage = self.vf_table.voltage_for_frequency(f_hz)
        config = self.cmp_config.with_operating_point(f_hz, voltage)
        scaled = self.scaled_model(model)
        compiled = ops.compile_workload(scaled, n_threads, config.l1_config)
        result = ChipMultiprocessor(config).run(
            compiled.program,
            scaled.core_timing(),
            warmup_barriers=scaled.warmup_barriers,
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
