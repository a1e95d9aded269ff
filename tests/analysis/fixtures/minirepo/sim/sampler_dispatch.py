"""A call whose candidates disagree on taint (analyzer fixture).

NOT flagged: only one of the two ``read_sample`` definitions reaches a
hazard, and a transitive finding needs every candidate to.
"""


def sample_any(sampler) -> float:
    return sampler.read_sample()
