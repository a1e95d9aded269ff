"""Unit-clean idioms (analyzer fixture; never imported)."""

GIGA = 1e9
KILO = 1e3


def configure_ok(frequency_hz: float) -> float:
    return frequency_hz


def named_conversion(frequency_hz: float) -> float:
    return frequency_hz / GIGA  # named constant: not a magic literal


def consistent_arithmetic(rise_s: float, fall_s: float) -> float:
    return rise_s + fall_s  # same unit on both sides


def matching_call(frequency_hz: float) -> float:
    return configure_ok(frequency_hz)


def tolerance_not_magic(voltage_v: float) -> bool:
    return voltage_v < 1.1 * (1 + 1e-12)  # dimensionless tolerance factor


def converted_argument(speed_mhz: float) -> float:
    # Scaling through a named constant erases the inferred unit, so the
    # converted value passes the call-site check.
    return configure_ok(speed_mhz * KILO * KILO)


def scale(a_hz: float, /, b_s: float) -> float:
    return a_hz * b_s


def positional_only_call(clock_hz: float, wall_s: float) -> float:
    # Positional arguments bind positional-only parameters first:
    # `wall_s` lands on `b_s`, not on `a_hz`.
    return scale(clock_hz, wall_s)


def set_voltage(*, supply_v: float) -> float:
    return supply_v


def keyword_only_call(vdd_v: float) -> float:
    return set_voltage(supply_v=vdd_v)
