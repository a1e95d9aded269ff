"""A wall clock read through a local alias (analyzer fixture; never imported)."""

import time


def aliased_read() -> float:
    perf_counter = time.perf_counter
    return perf_counter()  # DET-WALLCLOCK (local alias)


def unrelated(perf_counter) -> float:
    return perf_counter()  # a parameter, not the alias above: no finding
