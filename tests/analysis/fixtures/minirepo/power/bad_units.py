"""Seeded suffix-unit violations (analyzer fixture; never imported)."""


def configure(frequency_hz: float) -> float:
    return frequency_hz


def mixed_dimensions(clock_hz: float, wall_s: float) -> float:
    return clock_hz + wall_s  # DIM-MISMATCH (frequency + time)


def mixed_scales(fast_hz: float, slow_mhz: float) -> bool:
    return fast_hz < slow_mhz  # DIM-MISMATCH (same dimension, scales differ)


def magic_conversion(frequency_hz: float) -> float:
    return frequency_hz / 1e9  # DIM-MAGIC (bare 1e9)


def magic_spelled_out(delay_ns: float) -> float:
    return delay_ns * 1000.0  # DIM-MAGIC (1000.0 == KILO)


def call_mismatch(speed_mhz: float) -> float:
    return configure(speed_mhz)  # DIM-ARG (mhz into an hz parameter)


def keyword_mismatch(speed_mhz: float) -> float:
    return configure(frequency_hz=speed_mhz)  # DIM-ARG (keyword form)


def set_clock(*, frequency_hz: float) -> float:
    return frequency_hz


def keyword_only_mismatch(speed_mhz: float) -> float:
    return set_clock(frequency_hz=speed_mhz)  # DIM-ARG (keyword-only parameter)


BOOT_CLOCK_HZ = 3.2e9
BOOT_DELAY_S = 0.5
BOOT_SUM = BOOT_CLOCK_HZ + BOOT_DELAY_S  # DIM-MISMATCH (module body)


class Limits:
    ceiling_hz = 3.2e9
    budget_w = 60.0
    headroom = ceiling_hz - budget_w  # DIM-MISMATCH (class body)
