"""Simulation code reaching numpy's RNG (analyzer fixture; never imported).

The draws live in ``harness/numpy_draws.py``; the findings anchor here,
at the boundary calls.
"""

from minirepo.harness.numpy_draws import (
    fresh_generator,
    jitter_sample,
    seeded_generator,
)


def noisy_step() -> float:
    # Flagged: jitter_sample draws from the global numpy RNG.
    return jitter_sample()


def generator_step() -> object:
    # Flagged: fresh_generator builds an unseeded default_rng().
    return fresh_generator()


def seeded_step() -> object:
    # NOT flagged: the helper seeds its generator.
    return seeded_generator(7)
