"""Leakage-current models: physical equations and the Eq. 3 curve fit.

Section 2.1 of the paper builds its static-power term from two leakage
components [23]:

* **subthreshold leakage** — exponential in ``-Vth/(n * kT/q)`` with a
  drain-induced barrier lowering (DIBL) term that makes it exponential in
  the supply voltage as well, and a threshold voltage that falls with
  temperature;
* **gate-oxide leakage** — ``I_ox ~ W (V/Tox)^2 exp(-delta * Tox / V)``.

Because those expressions are unwieldy inside an analytical model, the
paper replaces them with a curve-fitted multiplier (its Eq. 3)::

    I_leak(V, T) = I_leak(Vn, Tstd) * H(V, T)

validated against HSpice on an inverter chain (max error 9.5 % at 130 nm,
7.5 % at 65 nm).  We reproduce that workflow in software:
:class:`PhysicalLeakageModel` plays HSpice, :func:`fit_leakage_curve`
performs the fit, and :class:`LeakageFit` reports the same max/average
error statistics.

The fitted functional form is::

    H(V, T) = (V/Vn) * (T/Tstd)^2 * exp(P(V - Vn, T - Tstd))

where ``P`` is a quadratic polynomial in the voltage and temperature
deviations (five fitted constants).  The leading ``(T/Tstd)^2`` factor is
the subthreshold ``(kT/q)^2`` prefactor; the exponential captures the DIBL
and threshold-voltage dependencies.  A log-space linear least-squares
solve seeds the coefficients and a Levenberg-Marquardt pass on *relative*
error polishes them, which lands the fit in the same error band the paper
reports for its HSpice validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.technology import TechnologyNode
from repro.units import ROOM_TEMPERATURE_K, celsius_to_kelvin, thermal_voltage


@dataclass(frozen=True)
class LeakageParameters:
    """Device parameters of the physical leakage model.

    Parameters
    ----------
    subthreshold_slope_factor:
        The ``n`` in the subthreshold exponent ``exp(-Vth / (n kT/q))``;
        typically 1.3-1.6 for bulk CMOS.
    dibl:
        DIBL coefficient ``eta`` (V/V): effective threshold drops by
        ``eta * Vds``, which makes subthreshold leakage exponential in the
        supply voltage.
    vth_temp_coeff:
        Threshold-voltage temperature coefficient (V/K, positive means Vth
        *falls* as temperature rises); ~0.8 mV/K is typical and makes
        total leakage roughly double per 20-25 K, the exponential
        temperature/leakage relation the experimental power model also
        uses (Section 3.3).
    tox_nm:
        Gate-oxide thickness in nanometres (enters the gate-leakage
        exponential).
    gate_delta:
        The ``delta`` constant of the gate-leakage exponential
        ``exp(-delta * Tox / V)`` (1/nm * V).
    gate_fraction_ref:
        Fraction of total leakage that is gate leakage at the reference
        point (nominal voltage, room temperature).  Gate leakage is nearly
        temperature-independent, so this controls how strongly total
        leakage responds to temperature.
    """

    subthreshold_slope_factor: float = 1.4
    dibl: float = 0.08
    vth_temp_coeff: float = 0.0008
    tox_nm: float = 1.6
    gate_delta: float = 6.0
    gate_fraction_ref: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.gate_fraction_ref < 1.0:
            raise ConfigurationError("gate_fraction_ref must be in [0, 1)")
        if self.subthreshold_slope_factor <= 0 or self.tox_nm <= 0:
            raise ConfigurationError("slope factor and tox must be positive")


#: Default device parameters for the two paper nodes.  Thinner oxide, a
#: larger gate-leakage share, and much stronger short-channel DIBL at
#: 65 nm, per the ITRS trend the paper cites.  Together with the node's
#: higher noise-margin floor these reproduce the paper's dual behaviour:
#: deep voltage scaling still pays off at 65 nm (Figure 1's 32-core curve
#: saves power) while the budget-constrained speedup collapses early
#: (Figure 2's 65 nm curve).
DEFAULT_PARAMETERS = {
    "130nm": LeakageParameters(tox_nm=2.2, gate_fraction_ref=0.10, dibl=0.07),
    "65nm": LeakageParameters(tox_nm=1.4, gate_fraction_ref=0.15, dibl=0.13),
    "32nm": LeakageParameters(tox_nm=1.1, gate_fraction_ref=0.25, dibl=0.15),
}


class PhysicalLeakageModel:
    """BSIM-flavoured leakage current, normalised at (Vn, Tstd).

    This class stands in for the paper's HSpice inverter-chain simulations:
    it evaluates the subthreshold and gate-oxide leakage equations of
    Section 2.1 and reports total leakage *relative to* the reference point
    (nominal supply voltage, room temperature), which is exactly the ratio
    the Eq. 3 curve fit has to reproduce.
    """

    def __init__(
        self,
        tech: TechnologyNode,
        params: LeakageParameters | None = None,
    ) -> None:
        self.tech = tech
        self.params = params or DEFAULT_PARAMETERS.get(
            tech.name, LeakageParameters()
        )
        self._ref_sub = self._subthreshold_raw(
            tech.vdd_nominal, ROOM_TEMPERATURE_K
        )
        self._ref_gate = self._gate_raw(tech.vdd_nominal)
        if self._ref_sub <= 0 or self._ref_gate <= 0:
            raise ConfigurationError("reference leakage must be positive")

    def _subthreshold_raw(self, v: float, temperature_k: float) -> float:
        """Unnormalised subthreshold current (arbitrary units)."""
        p = self.params
        vt = thermal_voltage(temperature_k)
        vth_eff = (
            self.tech.vth
            - p.vth_temp_coeff * (temperature_k - ROOM_TEMPERATURE_K)
            - p.dibl * v
        )
        drain_term = 1.0 - math.exp(-v / vt)
        return vt * vt * math.exp(-vth_eff / (p.subthreshold_slope_factor * vt)) * drain_term

    def _gate_raw(self, v: float) -> float:
        """Unnormalised gate-oxide current (arbitrary units)."""
        p = self.params
        return (v / p.tox_nm) ** 2 * math.exp(-p.gate_delta * p.tox_nm / v)

    def relative_current(self, v: float, temperature_k: float) -> float:
        """Total leakage relative to the (Vn, Tstd) reference point.

        Returns the exact quantity ``I_leak(V, T) / I_leak(Vn, Tstd)`` that
        Eq. 3's ``H(V, T)`` approximates.
        """
        if v <= 0:
            raise ConfigurationError(f"supply voltage must be positive, got {v}")
        g = self.params.gate_fraction_ref
        sub = self._subthreshold_raw(v, temperature_k) / self._ref_sub
        gate = self._gate_raw(v) / self._ref_gate
        return (1.0 - g) * sub + g * gate


@dataclass(frozen=True)
class LeakageFit:
    """The curve-fitted ``H(V, T)`` multiplier of the paper's Eq. 3.

    ``multiplier(v, t)`` evaluates::

        H(V, T) = (V/Vn) * (T/Tstd)^2
                  * exp(b_v dV + b_t dT + b_vt dV dT + b_vv dV^2 + b_tt dT^2)

    with ``dV = V - Vn`` and ``dT = T - Tstd``.  ``max_error`` /
    ``mean_error`` are the relative fit errors over the validation grid,
    the analogue of the paper's reported 9.5 % / 0.25 % (130 nm) and
    7.5 % / 0.05 % (65 nm) HSpice-validation numbers.
    """

    v_nominal: float
    b_v: float
    b_t: float
    b_vt: float
    b_vv: float
    b_tt: float
    max_error: float
    mean_error: float

    def multiplier(self, v: float, temperature_k: float) -> float:
        """Evaluate ``H(V, T)``; equals 1 at (Vn, Tstd) by construction."""
        dv = v - self.v_nominal
        dt = temperature_k - ROOM_TEMPERATURE_K
        t_ratio = temperature_k / ROOM_TEMPERATURE_K
        exponent = (
            self.b_v * dv
            + self.b_t * dt
            + self.b_vt * dv * dt
            + self.b_vv * dv * dv
            + self.b_tt * dt * dt
        )
        return (v / self.v_nominal) * t_ratio * t_ratio * math.exp(exponent)

    def __call__(self, v: float, temperature_k: float) -> float:
        return self.multiplier(v, temperature_k)


def _default_grids(tech: TechnologyNode) -> Tuple[np.ndarray, np.ndarray]:
    """Validation grid mirroring the paper's HSpice sweep.

    Voltage runs from the noise-margin floor to nominal; temperature from
    30 C to 110 C (the paper sweeps its HSpice runs over the full operating
    range of its thermal model).
    """
    v_grid = np.linspace(tech.v_min, tech.vdd_nominal, 25)
    t_grid = np.array([celsius_to_kelvin(t) for t in np.linspace(30.0, 110.0, 17)])
    return v_grid, t_grid


def fit_leakage_curve(
    model: PhysicalLeakageModel,
    v_grid: Sequence[float] | None = None,
    t_grid: Sequence[float] | None = None,
) -> LeakageFit:
    """Fit Eq. 3's ``H(V, T)`` to the physical leakage model.

    After dividing out the fixed ``(V/Vn) (T/Tstd)^2`` prefactor and taking
    logarithms, the model is linear in the two exponents, so this is an
    ordinary least-squares solve over the (V, T) grid.  The returned
    :class:`LeakageFit` records max and mean relative error, reproducing
    the validation the paper performs against HSpice.
    """
    tech = model.tech
    if v_grid is None or t_grid is None:
        default_v, default_t = _default_grids(tech)
        v_grid = default_v if v_grid is None else np.asarray(v_grid, dtype=float)
        t_grid = default_t if t_grid is None else np.asarray(t_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)

    points = [
        (float(v), float(t), model.relative_current(float(v), float(t)))
        for v in v_grid
        for t in t_grid
    ]

    def features(v: float, t: float) -> np.ndarray:
        dv = v - tech.vdd_nominal
        dt = t - ROOM_TEMPERATURE_K
        return np.array([dv, dt, dv * dt, dv * dv, dt * dt])

    design = np.array([features(v, t) for v, t, _ in points])
    log_targets = np.array(
        [
            math.log(h / ((v / tech.vdd_nominal) * (t / ROOM_TEMPERATURE_K) ** 2))
            for v, t, h in points
        ]
    )
    seed, *_ = np.linalg.lstsq(design, log_targets, rcond=None)

    # Imported here, not at module level: scipy.optimize costs most of
    # ``import repro.cli``, and only this fit (fig1/fig2, ``repro
    # verify``) uses it.
    from scipy.optimize import least_squares

    def relative_residuals(coeffs: np.ndarray) -> np.ndarray:
        residuals = np.empty(len(points))
        for i, ((v, t, h), row) in enumerate(zip(points, design)):
            prefactor = (v / tech.vdd_nominal) * (t / ROOM_TEMPERATURE_K) ** 2
            h_fit = prefactor * math.exp(float(row @ coeffs))
            residuals[i] = (h_fit - h) / h
        return residuals

    solution = least_squares(relative_residuals, seed, method="lm")
    errors = np.abs(relative_residuals(solution.x))
    b_v, b_t, b_vt, b_vv, b_tt = (float(c) for c in solution.x)
    return LeakageFit(
        v_nominal=tech.vdd_nominal,
        b_v=b_v,
        b_t=b_t,
        b_vt=b_vt,
        b_vv=b_vv,
        b_tt=b_tt,
        max_error=float(errors.max()),
        mean_error=float(errors.mean()),
    )


@lru_cache(maxsize=None)
def default_leakage_multiplier(tech: TechnologyNode) -> LeakageFit:
    """The cached default ``H(V, T)`` fit for a technology node.

    This is what the analytical power model (Eq. 4) uses unless the caller
    supplies a custom fit.
    """
    return fit_leakage_curve(PhysicalLeakageModel(tech))
