"""Two same-name helpers, one tainted (analyzer fixture).

``sim/sampler_dispatch.py`` calls ``read_sample`` on an object of
unknown type, so the call links both definitions.
"""

import time


class ClockSampler:
    def read_sample(self) -> float:
        return time.perf_counter()


class ConstSampler:
    def read_sample(self) -> float:
        return 1.0
