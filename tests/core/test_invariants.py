"""Property-based invariants of the analytical scenarios (seeded random).

These encode the paper's qualitative claims as properties over randomly
drawn operating points, using only the standard library's ``random``:

* At perfect nominal efficiency (``eps_n = 1``), running N cores at the
  iso-performance point never costs more power than one nominal core on
  the paper's technology nodes (130 nm and 65 nm).  This is Figure 1's
  right edge.  (The repo's extrapolated 32 nm node deliberately breaks
  this — static power dominates there — so it is excluded.)
* Normalized power is monotone non-increasing in nominal efficiency at
  fixed N: a more efficient parallelisation never needs more power to
  hold 1-core performance.  Holds on every node.
* Scenario II never does worse than a single nominal core: the 1-core
  configuration always fits the 1-core power budget, so the best
  budget-legal speedup across candidates that include N = 1 is >= 1.
"""

import random

import pytest

from repro.core import AnalyticalChipModel
from repro.core.efficiency import AmdahlEfficiency
from repro.core.scenario1 import PowerOptimizationScenario
from repro.core.scenario2 import PerformanceOptimizationScenario
from repro.errors import ReproError
from repro.tech.technology import technology_by_name

PAPER_NODES = ("130nm", "65nm")
ALL_NODES = ("130nm", "65nm", "32nm")
TOLERANCE = 1e-9
DRAWS = 40


def scenario1(tech_name):
    return PowerOptimizationScenario(AnalyticalChipModel(technology_by_name(tech_name)))


def scenario2(tech_name):
    return PerformanceOptimizationScenario(
        AnalyticalChipModel(technology_by_name(tech_name))
    )


@pytest.mark.parametrize("tech_name", PAPER_NODES)
def test_perfect_efficiency_never_beats_one_core_power(tech_name):
    rng = random.Random(20050320)
    scenario = scenario1(tech_name)
    for _ in range(DRAWS):
        n = rng.randint(2, 32)
        point = scenario.solve(n, 1.0)
        assert point.normalized_power <= 1.0 + TOLERANCE, (
            f"{tech_name}: N={n} at eps_n=1 needs "
            f"{point.normalized_power:.4f}x the 1-core power"
        )


@pytest.mark.parametrize("tech_name", ALL_NODES)
def test_power_is_monotone_non_increasing_in_efficiency(tech_name):
    rng = random.Random(7 * 104729)
    scenario = scenario1(tech_name)
    checked = 0
    for _ in range(DRAWS):
        n = rng.randint(2, 32)
        # Feasibility requires N * eps_n >= 1; draw a sorted ladder of
        # feasible efficiencies and walk it upward.
        lo = 1.0 / n
        ladder = sorted(rng.uniform(lo, 1.0) for _ in range(4))
        try:
            powers = [scenario.solve(n, eps).normalized_power for eps in ladder]
        except ReproError:
            # A rare thermal-runaway point; the property is about the
            # points that converge.
            continue
        for eps_pair, power_pair in zip(
            zip(ladder, ladder[1:]), zip(powers, powers[1:])
        ):
            assert power_pair[1] <= power_pair[0] + TOLERANCE, (
                f"{tech_name}: N={n}, power rose from {power_pair[0]:.6f} "
                f"to {power_pair[1]:.6f} as eps_n went "
                f"{eps_pair[0]:.4f} -> {eps_pair[1]:.4f}"
            )
        checked += 1
    assert checked >= DRAWS // 2  # the skip branch must stay rare


@pytest.mark.parametrize("tech_name", ALL_NODES)
def test_budget_speedup_never_below_one_core(tech_name):
    rng = random.Random(1234)
    scenario = scenario2(tech_name)
    for _ in range(DRAWS):
        serial_fraction = rng.uniform(0.0, 0.9)
        candidates = sorted({1, *(rng.randint(2, 32) for _ in range(4))})
        best = scenario.best_configuration(
            AmdahlEfficiency(serial_fraction), candidates
        )
        assert best.speedup >= 1.0 - TOLERANCE, (
            f"{tech_name}: best speedup {best.speedup:.6f} < 1 with "
            f"serial fraction {serial_fraction:.3f}, candidates {candidates}"
        )


@pytest.mark.parametrize("tech_name", ALL_NODES)
def test_one_nominal_core_is_exactly_the_reference(tech_name):
    point = scenario2(tech_name).solve(1, 1.0)
    assert point.regime == "nominal"
    assert point.speedup == pytest.approx(1.0, abs=TOLERANCE)
