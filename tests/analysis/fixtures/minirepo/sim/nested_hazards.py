"""Hazards inside nested functions (analyzer fixture; never imported).

Each hazard is reported once, by the frame that runs it.
"""


def outer_loop() -> int:
    def inner_loop() -> int:
        total = 0
        for item in {3, 1, 2}:  # DET-SET-ORDER, once
            total += item
        return total

    return inner_loop()


def outer_sum() -> float:
    def inner_sum() -> float:
        weights = {0.1, 0.2, 0.3}
        return sum(weights)  # DET-FLOAT-SUM, once

    return inner_sum()


def closure_loop() -> int:
    seen = {4, 5, 6}

    def scan_seen() -> int:
        total = 0
        for item in seen:  # DET-SET-ORDER: a set of the enclosing frame
            total += item
        return total

    return scan_seen()
