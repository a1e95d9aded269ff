"""Benchmarks for the library's beyond-the-paper extensions.

Four extensions, each rooted in the paper's own discussion:

* **Scenario III** (energy / energy-delay optimization) — the metric the
  paper's related work ([21], [26]) optimises, solved on the analytical
  model;
* **per-core DVFS** — Section 3.1's "beyond the scope" note, implemented
  as the Kadayif-style slow-the-light-threads policy;
* **thrifty barrier** — the paper's reference [26]: sleep through long
  barrier waits instead of spinning;
* **multiprogrammed mix** — the paper's framing of a parallel
  application against independent programs at equal core count.
"""


from repro.core import (
    AnalyticalChipModel,
    ConstantEfficiency,
    EnergyOptimizationScenario,
    SAMPLE_APPLICATION,
)
from repro.harness import render_table, run_percore_dvfs_suite
from repro.tech import NODE_130NM, NODE_65NM
from repro.workloads import workload_by_name


def test_scenario3_energy_curves(benchmark):
    """Energy-optimal operating points across N for both nodes."""

    def sweep():
        out = {}
        for node in (NODE_130NM, NODE_65NM):
            scenario = EnergyOptimizationScenario(AnalyticalChipModel(node))
            out[node.name] = scenario.energy_curve(
                ConstantEfficiency(1.0), (1, 2, 4, 8, 16, 32)
            )
        return out

    curves = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    rows = [
        [tech, p.n, p.frequency_hz / 1e9, p.relative_energy, p.relative_time]
        for tech, points in curves.items()
        for p in points
    ]
    print(
        render_table(
            ["tech", "N", "f* (GHz)", "E / E_nominal", "T / T_nominal"],
            rows,
            title="Scenario III: energy-optimal operating points",
        )
    )
    for tech, points in curves.items():
        # Racing at nominal is never energy-optimal with leakage present.
        for p in points:
            assert p.relative_energy < 1.0, (tech, p.n)
        # Energy is nearly flat in N; it never *improves* with more cores
        # at perfect efficiency (static-while-running effect).
        energies = [p.relative_energy for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:])), tech


def test_scenario3_edp_prefers_parallelism(benchmark):
    """EDP pushes the optimum to more cores than pure energy does."""

    def best_pair():
        chip = AnalyticalChipModel(NODE_65NM)
        energy = EnergyOptimizationScenario(chip, delay_weight=0.0)
        edp = EnergyOptimizationScenario(chip, delay_weight=1.0)
        counts = (1, 2, 4, 8, 16)
        return (
            energy.best_configuration(SAMPLE_APPLICATION, counts),
            edp.best_configuration(SAMPLE_APPLICATION, counts),
        )

    e_best, edp_best = benchmark.pedantic(best_pair, rounds=1, iterations=1)
    print(
        f"\nenergy-optimal: N={e_best.n} (E={e_best.relative_energy:.3f}); "
        f"EDP-optimal: N={edp_best.n} (E={edp_best.relative_energy:.3f}, "
        f"T={edp_best.relative_time:.3f})"
    )
    assert edp_best.n > e_best.n


def test_percore_dvfs_policy(benchmark, experiment_context):
    """Per-core DVFS saves energy roughly in proportion to imbalance."""
    apps = [workload_by_name(a) for a in ("Cholesky", "Volrend", "Water-Sp")]

    results = benchmark.pedantic(
        lambda: run_percore_dvfs_suite(experiment_context, apps, n_threads=8),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            ["app", "N", "energy saving", "slowdown"],
            [[r.app, r.n, f"{r.energy_saving:.1%}", r.slowdown] for r in results],
            title="Per-core DVFS (slow the lightly-loaded threads)",
        )
    )
    by_app = {r.app: r for r in results}
    # Everyone saves something; the imbalanced apps save the most.
    for r in results:
        assert r.energy_saving > 0.0, r.app
        assert r.slowdown < 1.3, r.app
    assert by_app["Cholesky"].energy_saving > by_app["Water-Sp"].energy_saving


def test_thrifty_barrier(benchmark, experiment_context):
    """Sleeping through barrier waits saves energy at tiny slowdown."""
    from repro.sim.cmp import ChipMultiprocessor
    from repro.workloads.base import WorkloadModel

    model = WorkloadModel(
        workload_by_name("Volrend").spec.scaled(experiment_context.workload_scale)
    )

    def run(sleep: bool):
        config = experiment_context.cmp_config
        config = type(config)(
            n_cores=config.n_cores,
            frequency_hz=config.frequency_hz,
            voltage=config.voltage,
            barrier_sleep=sleep,
        )
        result = ChipMultiprocessor(config).run(
            [model.thread_ops(t, 16) for t in range(16)],
            model.core_timing(),
            warmup_barriers=model.warmup_barriers,
        )
        power = experiment_context.chip_power.evaluate(result)
        return result, power

    def both():
        return run(False), run(True)

    (awake, awake_power), (asleep, asleep_power) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    saving = 1.0 - asleep_power.energy_j / awake_power.energy_j
    slowdown = asleep.execution_time_s / awake.execution_time_s
    slept = sum(s.sleep_ps for s in asleep.core_stats)
    waited = sum(s.sync_wait_ps for s in awake.core_stats)
    print(
        f"\nthrifty barrier on Volrend@16: energy saving {saving:.1%}, "
        f"slowdown {slowdown:.3f}, slept {slept / max(1, waited):.0%} of the "
        "spin time"
    )
    assert slept > 0
    assert saving > 0.0
    assert slowdown < 1.05


def test_parallel_vs_multiprogrammed(benchmark, experiment_context):
    """The paper's framing, measured: a parallel application versus a
    multiprogrammed mix of the same program at equal core count.

    The mix has no parallel-efficiency loss (every core always computes)
    so it burns *more* power and runs hotter than the parallel code at
    iso-corecount — but the parallel code is the one that can trade its
    efficiency for power through Eq. 7, which is the paper's whole point.
    """
    from repro.sim.cmp import ChipMultiprocessor
    from repro.workloads import homogeneous_mix
    from repro.workloads.base import WorkloadModel

    model = WorkloadModel(
        workload_by_name("Water-Sp").spec.scaled(experiment_context.workload_scale)
    )
    n = 8

    def study():
        chip = ChipMultiprocessor(experiment_context.cmp_config)
        parallel = chip.run(
            [model.thread_ops(t, n) for t in range(n)],
            model.core_timing(),
            warmup_barriers=model.warmup_barriers,
        )
        mix = homogeneous_mix(model, n)
        mixed = ChipMultiprocessor(experiment_context.cmp_config).run(
            [mix.thread_ops(t, n) for t in range(n)],
            mix.core_timing(),
            warmup_barriers=mix.warmup_barriers,
        )
        return (
            (parallel, experiment_context.chip_power.evaluate(parallel)),
            (mixed, experiment_context.chip_power.evaluate(mixed)),
        )

    (parallel, p_power), (mixed, m_power) = benchmark.pedantic(
        study, rounds=1, iterations=1
    )
    print(
        f"\nWater-Sp @ {n} cores: parallel {p_power.total_w:.1f} W / "
        f"{p_power.average_temperature_c:.1f} C (sync share "
        f"{sum(s.sync_wait_ps for s in parallel.core_stats) / max(1, sum(s.total_active_ps + s.sync_wait_ps for s in parallel.core_stats)):.0%}); "
        f"mix {m_power.total_w:.1f} W / {m_power.average_temperature_c:.1f} C"
    )
    # The mix keeps every core busy: at least as much power and heat.
    assert m_power.total_w >= p_power.total_w * 0.95
    # And zero coherence interaction between its programs.
    assert mixed.coherence.cache_to_cache == 0
