"""Process-technology nodes and the alpha-power-law DVFS relation.

The paper's analytical model (Section 2.1) rests on Eq. 1, the alpha-power
law [Sakurai-Newton, via Mudge 31]::

    f_max(V) = k * (V - Vth)^alpha / V

with ``alpha`` and ``k`` experimentally derived constants.  We use
``alpha = 1.5`` (the value commonly attributed to [31]) and calibrate ``k``
so that the nominal supply voltage yields the node's nominal frequency.

Node constants follow the paper where it quotes them (Table 1 gives the
65 nm point: 1.1 V nominal, 0.18 V threshold, 3.2 GHz) and ITRS-typical
values elsewhere.  The key *relative* property the paper leans on is that
the 65 nm node attributes a substantially larger fraction of total power to
static (leakage) power than the 130 nm node does [19]; that fraction is
captured by :attr:`TechnologyNode.static_fraction_nominal`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError, InfeasibleOperatingPoint
from repro.units import GIGA


@dataclass(frozen=True)
class TechnologyNode:
    """Constants describing one CMOS process technology node.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"65nm"``.
    feature_nm:
        Feature size in nanometres.
    vdd_nominal:
        Nominal supply voltage ``V1`` (volts).
    vth:
        Threshold voltage (volts).
    f_nominal:
        Nominal (maximum) clock frequency at ``vdd_nominal`` (hertz).
    alpha:
        Velocity-saturation exponent of the alpha-power law.
    static_fraction_nominal:
        Fraction of *total* chip power that is static at nominal V/f and
        the 100 C design-point temperature.  ITRS data gives roughly 0.15
        at 130 nm and 0.35 at 65 nm; the paper's Fig. 2 discussion hinges
        on 65 nm having the higher static share.
    noise_margin_factor:
        The supply voltage may not scale below
        ``noise_margin_factor * vth`` (the paper cites ITRS noise-margin
        guidance; 2x the threshold voltage is the conventional floor).
    """

    name: str
    feature_nm: float
    vdd_nominal: float
    vth: float
    f_nominal: float
    alpha: float = 1.5
    static_fraction_nominal: float = 0.25
    noise_margin_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.vth <= 0 or self.vdd_nominal <= self.vth:
            raise ConfigurationError(
                f"{self.name}: need 0 < vth < vdd_nominal, got "
                f"vth={self.vth}, vdd={self.vdd_nominal}"
            )
        if self.v_min >= self.vdd_nominal:
            raise ConfigurationError(
                f"{self.name}: voltage floor {self.v_min:.3f} V is not below "
                f"nominal {self.vdd_nominal:.3f} V"
            )
        if not 0.0 < self.static_fraction_nominal < 1.0:
            raise ConfigurationError(
                f"{self.name}: static_fraction_nominal must be in (0, 1)"
            )

    @property
    def v_min(self) -> float:
        """Lowest legal supply voltage (noise-margin floor)."""
        return self.noise_margin_factor * self.vth

    @property
    def _alpha_law_k(self) -> float:
        """Calibration constant of Eq. 1 so f_max(V1) = f1."""
        v1 = self.vdd_nominal
        return self.f_nominal * v1 / (v1 - self.vth) ** self.alpha

    def fmax(self, v: float) -> float:
        """Maximum operating frequency at supply voltage ``v`` (Eq. 1)."""
        if v <= self.vth:
            raise InfeasibleOperatingPoint(
                f"{self.name}: supply {v:.3f} V is at or below threshold "
                f"{self.vth:.3f} V"
            )
        return self._alpha_law_k * (v - self.vth) ** self.alpha / v

    def frequency_scale(self, v: float) -> float:
        """``f_max(v) / f_nominal`` — the Eq. 10 frequency ratio."""
        return self.fmax(v) / self.f_nominal

    def voltage_for_frequency(self, f: float, *, allow_floor: bool = True) -> float:
        """Invert Eq. 1: minimum supply voltage able to sustain ``f``.

        ``f`` must not exceed the nominal frequency (the models never
        overclock).  If ``f`` is sustainable at the voltage floor, the floor
        is returned when ``allow_floor`` is true; otherwise the exact
        (lower) solution would violate the noise margin and
        :class:`InfeasibleOperatingPoint` is raised.
        """
        if f <= 0:
            raise InfeasibleOperatingPoint(f"frequency must be positive, got {f}")
        if f > self.f_nominal * (1 + 1e-12):
            raise InfeasibleOperatingPoint(
                f"{self.name}: {f / GIGA:.3f} GHz exceeds nominal "
                f"{self.f_nominal / GIGA:.3f} GHz"
            )
        if f >= self.fmax(self.v_min):
            # Bisection on the monotonically increasing f_max(V).
            lo, hi = self.v_min, self.vdd_nominal
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if self.fmax(mid) < f:
                    lo = mid
                else:
                    hi = mid
            return hi
        if allow_floor:
            return self.v_min
        raise InfeasibleOperatingPoint(
            f"{self.name}: {f / GIGA:.3f} GHz is sustainable below the "
            f"{self.v_min:.3f} V noise-margin floor"
        )

    def legal_voltage(self, v: float) -> bool:
        """Whether ``v`` lies within [v_min, vdd_nominal]."""
        return self.v_min - 1e-12 <= v <= self.vdd_nominal + 1e-12


@dataclass(frozen=True)
class VFTable:
    """A discrete table of (frequency, voltage) operating points.

    The experimental study (Section 3.1) extrapolates supply voltages from
    the Intel Pentium M datasheet [18] rather than the closed-form alpha-power
    law; this class plays that role.  ``points`` must be sorted by frequency.
    Lookups between grid points interpolate linearly, matching the paper's
    "configuration values that fall between any two profiled values are
    approximated by linearly scaling between the two".
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ConfigurationError("VFTable needs at least two points")
        freqs = [f for f, _ in self.points]
        volts = [v for _, v in self.points]
        if sorted(freqs) != freqs or len(set(freqs)) != len(freqs):
            raise ConfigurationError("VFTable frequencies must be strictly increasing")
        if any(v2 < v1 - 1e-12 for v1, v2 in zip(volts, volts[1:])):
            raise ConfigurationError("VFTable voltages must be non-decreasing")

    @property
    def f_min(self) -> float:
        """Lowest frequency in the table."""
        return self.points[0][0]

    @property
    def f_max(self) -> float:
        """Highest frequency in the table."""
        return self.points[-1][0]

    def voltage_for_frequency(self, f: float) -> float:
        """Supply voltage for frequency ``f``, linearly interpolated."""
        if not self.f_min - 1e-6 <= f <= self.f_max * (1 + 1e-12):
            raise InfeasibleOperatingPoint(
                f"{f / GIGA:.3f} GHz outside table range "
                f"[{self.f_min / GIGA:.3f}, {self.f_max / GIGA:.3f}] GHz"
            )
        freqs = [p[0] for p in self.points]
        idx = bisect.bisect_left(freqs, f)
        if idx == 0:
            return self.points[0][1]
        if idx >= len(self.points):
            return self.points[-1][1]
        f_lo, v_lo = self.points[idx - 1]
        f_hi, v_hi = self.points[idx]
        if math.isclose(f, f_hi):
            return v_hi
        t = (f - f_lo) / (f_hi - f_lo)
        return v_lo + t * (v_hi - v_lo)

    @classmethod
    def linear(
        cls,
        tech: TechnologyNode,
        *,
        f_min: float,
        f_max: float,
        step: float,
    ) -> "VFTable":
        """A datasheet-style table with voltage linear in frequency.

        Real operating-point tables (the Pentium M datasheet [18] the
        paper extrapolates from) run the VID roughly linearly from a
        minimum voltage at the lowest ratio to nominal at the top bin —
        much steeper at mid frequencies than the alpha-power-law minimum.
        The minimum voltage is the technology's noise-margin floor.
        """
        if step <= 0 or f_min <= 0 or f_max < f_min:
            raise ConfigurationError("need 0 < f_min <= f_max and step > 0")
        v_lo, v_hi = tech.v_min, tech.vdd_nominal
        points = []
        f = f_min
        while f <= f_max * (1 + 1e-9):
            f_point = min(f, f_max)
            t = (f_point - f_min) / (f_max - f_min) if f_max > f_min else 1.0
            points.append((f_point, v_lo + t * (v_hi - v_lo)))
            f += step
        if points[-1][0] < f_max * (1 - 1e-9):
            points.append((f_max, v_hi))
        return cls(points=tuple(points))


#: The 130 nm node of Figures 1-2 (ITRS-typical constants; 1.6 GHz keeps the
#: EV6 frequency-scaling rule of Section 3.1 consistent across nodes).
#: The 0.32 V threshold narrows the voltage-scaling range enough that the
#: Scenario II speedup peaks "a little over 4", as the paper reports.
NODE_130NM = TechnologyNode(
    name="130nm",
    feature_nm=130.0,
    vdd_nominal=1.3,
    vth=0.32,
    f_nominal=1.6e9,
    static_fraction_nominal=0.25,
)

#: The 65 nm node of Table 1: 1.1 V / 0.18 V / 3.2 GHz.  ITRS attributes a
#: larger static share at this node (Section 2.3), and its short-channel
#: devices need a proportionally higher noise-margin floor (~0.6 V, about
#: half the nominal supply, as in contemporary low-voltage datasheets);
#: together these make its budget-constrained speedup peak lower and
#: collapse earlier than 130 nm's, as in Figure 2.
NODE_65NM = TechnologyNode(
    name="65nm",
    feature_nm=65.0,
    vdd_nominal=1.1,
    vth=0.18,
    f_nominal=3.2e9,
    static_fraction_nominal=0.35,
    noise_margin_factor=3.4,
)

#: A projected 32 nm node used only by the ablation benchmarks (the paper
#: stops at 65 nm); leakage share keeps growing with scaling, and the
#: minimum operating voltage stops scaling with Vth (SRAM Vmin holds near
#: 0.6 V), so the usable voltage range collapses — the dark-silicon trend
#: the paper foreshadows.
NODE_32NM_PROJECTED = TechnologyNode(
    name="32nm",
    feature_nm=32.0,
    vdd_nominal=0.9,
    vth=0.15,
    f_nominal=4.8e9,
    static_fraction_nominal=0.55,
    noise_margin_factor=4.0,
)

_NODES = {node.name: node for node in (NODE_130NM, NODE_65NM, NODE_32NM_PROJECTED)}


def technology_by_name(name: str) -> TechnologyNode:
    """Look up one of the built-in technology nodes by name."""
    try:
        return _NODES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown technology {name!r}; known: {sorted(_NODES)}"
        ) from None
