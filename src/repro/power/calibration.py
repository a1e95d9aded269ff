"""The Wattch <-> HotSpot renormalisation of Section 3.3.

The paper's procedure, reproduced step by step:

1. Use HotSpot to determine the **maximum operational power** — the
   (dynamic + static) power on one core that yields the 100 C maximum
   operating temperature.
2. Split it into dynamic and static components using the
   static/dynamic-vs-temperature curve at 100 C.
3. Run the **compute-intensive microbenchmark** on one core at nominal
   V/f in the simulator and read Wattch's dynamic power.
4. The ratio between Wattch's number and HotSpot's dynamic component
   renormalises every subsequent Wattch wattage, making the two tools
   speak the same (relative) language.

:class:`PowerCalibration` is what the result cache stores, so this
module imports no engine at module level: a calibration replayed from
the cache loads neither the simulator nor the thermal model.
:func:`calibrate_power_model` imports them when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, ConvergenceError
from repro.telemetry.record import record_kernel
from repro.units import celsius_to_kelvin

if TYPE_CHECKING:
    from repro.power.static import StaticPowerModel
    from repro.power.wattch import WattchModel
    from repro.sim.config import CMPConfig
    from repro.thermal.hotspot import HotSpotModel


@dataclass(frozen=True)
class PowerCalibration:
    """The renormalisation constants the experiments run with."""

    #: Power on one core that pins the die at the 100 C design point.
    max_operational_power_w: float
    #: Its dynamic component at 100 C.
    design_dynamic_w: float
    #: Wattch's (raw) dynamic power for the microbenchmark at nominal V/f.
    wattch_microbenchmark_w: float
    #: Divide every raw Wattch wattage by this to renormalise.
    wattch_to_hotspot_ratio: float

    def renormalise(self, raw_wattch_w: float) -> float:
        """Convert a raw Wattch wattage to the HotSpot-anchored scale."""
        return raw_wattch_w / self.wattch_to_hotspot_ratio


def _max_operational_power(
    thermal: HotSpotModel, block: str, peak_celsius: float
) -> float:
    """Bisect the single-block power that reaches ``peak_celsius``."""
    target_k = celsius_to_kelvin(peak_celsius)

    def peak(power_w: float) -> float:
        return thermal.solve({block: power_w}).peak_k

    lo, hi = 0.0, 1.0
    while peak(hi) < target_k:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("thermal model never reaches the design point")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if peak(mid) < target_k:
            lo = mid
        else:
            hi = mid
    return hi


def calibrate_power_model(
    cmp_config: CMPConfig,
    thermal: HotSpotModel,
    wattch: WattchModel,
    static_model: StaticPowerModel,
    design_celsius: float = 100.0,
    hot_block: str = "core0",
) -> PowerCalibration:
    """Run the Section 3.3 renormalisation and return its constants."""
    from repro.sim import ops
    from repro.sim.cmp import ChipMultiprocessor
    from repro.workloads.microbench import max_power_microbenchmark

    if cmp_config.n_cores < 1:
        raise ConfigurationError("need at least one core")

    max_power = _max_operational_power(thermal, hot_block, design_celsius)
    design_dynamic, _design_static = static_model.split_total(
        max_power, design_celsius
    )

    ubench = max_power_microbenchmark()
    # Uncached: the program is run once, and freed with the result.
    compiled = ops.compile_workload(ubench, 1, cmp_config.l1_config, cache=None)
    chip = ChipMultiprocessor(cmp_config)
    result = chip.run(
        compiled.program,
        ubench.core_timing(),
        warmup_barriers=ubench.warmup_barriers,
    )
    if result.kernel is not None:
        result.kernel.compile_s = compiled.seconds
        # A capture window around the calibration takes the run to the
        # sweep's kernel ledger.
        record_kernel(result.kernel)
    raw_dynamic = wattch.total_dynamic_power_w(result)

    return PowerCalibration(
        max_operational_power_w=max_power,
        design_dynamic_w=design_dynamic,
        wattch_microbenchmark_w=raw_dynamic,
        wattch_to_hotspot_ratio=raw_dynamic / design_dynamic,
    )
