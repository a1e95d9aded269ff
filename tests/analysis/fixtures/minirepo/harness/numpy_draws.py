"""Harness helpers that draw from numpy's RNG (analyzer fixture).

``harness/`` is outside the determinism scope, so nothing here is
flagged directly; the simulation functions in
``sim/numpy_transitive.py`` are flagged where they call the tainted
helpers.
"""

import numpy as np
from numpy.random import default_rng


def jitter_sample() -> float:
    # Global numpy RNG: taints every caller.
    return float(np.random.standard_normal())


def fresh_generator() -> object:
    # Unseeded generator: taints every caller.
    return default_rng()


def seeded_generator(seed: int) -> object:
    # Seeded generator, the supported idiom: taints nothing.
    return np.random.default_rng(seed)
