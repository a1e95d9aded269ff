"""Module-level set constants read inside functions (analyzer fixture; never imported).

A function sees the module's set-typed names unless it binds the name
itself.
"""

CORES = {3, 1, 2}
LANES = [0, 1]


def sum_cores() -> int:
    total = 0
    for core in CORES:  # DET-SET-ORDER: a module-level set
        total += core
    return total


def sum_own_cores() -> int:
    CORES = [3, 1, 2]
    total = 0
    for core in CORES:  # the function's own list: not flagged
        total += core
    return total


def sum_lanes() -> int:
    total = 0
    for lane in LANES:  # a module-level list: not flagged
        total += lane
    return total
