"""Adaptive design-space optimization: model-seeded search over (N, f).

The paper's deliverable is an *optimization* — pick the (N, V/f)
configuration that minimizes power at iso-performance (Scenario I) or
maximizes speedup under a power budget (Scenario II) — yet the paper
answers it by profiling the full 200 MHz ladder.  The
power/performance surfaces such sweeps trace are smooth and monotone
(power rises with frequency, time falls), so a search that measures a
few points finds the same optimum with a fraction of the simulations.
Figure 4 (:func:`~repro.harness.scenario2.run_scenario2`) is the
``speedup-budget`` search of this module.

Boundary objectives search each (application, N) pair's frequency
ladder for the flip of a monotone feasibility predicate, seeded by the
model's own shape for the constraint: execution time is affine in
``1/f`` (off-chip time does not scale with the clock) and chip power is
affine in ``f*V(f)^2`` (Eq. 4).  The search

1. probes the top of the ladder, which alone settles a search whose
   nominal point fits the budget (or misses the iso-performance
   target);
2. probes the floor; feasibility equal at both ends is uniform;
3. fits a line through the constraint values at the ends of the
   bracket, in the objective's model coordinate, and probes the
   adjacent pair the line puts the flip in — twice at most, each time
   on the bracket the last probes left;
4. bisects whatever bracket remains.

It stops only on an adjacent measured flip pair, so the pick, the
final bracket and the interpolated boundary are exactly what an
exhaustive sweep of the ladder gives; the model only decides which
points to measure.  The energy-delay objectives are unimodal in
frequency and refine a three-point bracket around the incumbent
minimum from a coarse sub-ladder.

Every round evaluates the *frontier* — the points every active search
needs next — as one flat fan-out through the
:class:`~repro.harness.executor.SweepExecutor`, so rounds parallelize
across workers and across searches (in groups that fit the compile
cache, so no program recompiles round after round).  Evaluations go
through :func:`~repro.harness.profiling.simulate_points` under the
standard ``simpoint`` cache key, so optimizer probes share the result
cache with the other sweeps: a warm cache makes refinement incremental
across campaigns and reruns, and the chosen row is
bitwise-identical to the corresponding exhaustive measurement.  The
1-core search's top probe *is* the application's 1-core nominal
baseline, so it is taken from the baseline instead of measured again.

For budget-style objectives the final bracket also yields the paper's
"linearly scaling between the two" profiled points: the budget boundary
is located by linear interpolation between the bracketing measurements
and reported as :attr:`OptimizerRow.f_interpolated_hz`.  The
interpolated frequency is metadata — the chosen operating point stays
on the grid so adaptive results match the exhaustive sweep exactly.

Objectives are pluggable (:data:`OBJECTIVES`): ``power-iso`` (Scenario
I as a measured search), ``speedup-budget`` (Scenario II), and the
``edp``/``ed2p`` energy-delay products the report's Scenario III
extension plots.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harness.context import ExperimentContext
from repro.harness.executor import SweepExecutor
from repro.harness.profiling import SimPointRow, SimPointTask, simulate_points
from repro.sim.config import STREAM_CACHE_SIZE
from repro.telemetry.trace import get_tracer
from repro.units import PICO
from repro.workloads.base import WorkloadModel

def frequency_ladder(context: ExperimentContext) -> List[float]:
    """The paper's profiling ladder: the frequencies of the context's V/f table.

    Scenario II (:func:`~repro.harness.scenario2.run_scenario2`) and
    every optimizer search pick their operating points on this ladder.
    """
    return [f for f, _ in context.vf_table.points]


def _energy_j(row: SimPointRow) -> float:
    """Energy of one measured point (power times execution time)."""
    return row.total_power_w * (row.execution_time_ps * PICO)


class MinPowerAtIsoPerformance:
    """Scenario I as a measured search: least power still meeting T1.

    Execution time falls monotonically with frequency, so the feasible
    region (``T_N(f) <= T1``) is a suffix of the ladder; the optimum is
    its lowest frequency — the least power that holds 1-core
    performance.
    """

    name = "power-iso"
    kind = "boundary"
    #: The low-frequency side of the ladder is the *infeasible* side.
    feasible_low = False

    def constraint(self, row: SimPointRow) -> float:
        """Observed value of the binding constraint (feasible at most
        :meth:`limit`)."""
        return float(row.execution_time_ps)

    def limit(self, t1_ps: int, budget_w: float) -> float:
        return float(t1_ps)

    def fit_x(self, context: ExperimentContext, f_hz: float) -> float:
        """Model coordinate the constraint is affine in: the on-chip
        part of execution time scales with ``1/f``, the off-chip part
        not at all."""
        return 1.0 / f_hz

    def metric(self, row: SimPointRow, t1_ps: int) -> float:
        return row.total_power_w

    def fallback_index(self, num_points: int) -> int:
        """No frequency meets T1: nominal is the best-effort point."""
        return num_points - 1


class MaxSpeedupUnderBudget:
    """Scenario II: the highest frequency whose power fits the budget.

    Power rises monotonically with frequency, so the feasible region is
    a prefix of the ladder; the optimum is its highest frequency.
    """

    name = "speedup-budget"
    kind = "boundary"
    feasible_low = True

    def constraint(self, row: SimPointRow) -> float:
        return row.total_power_w

    def limit(self, t1_ps: int, budget_w: float) -> float:
        return budget_w

    def fit_x(self, context: ExperimentContext, f_hz: float) -> float:
        """Model coordinate the constraint is affine in: dynamic power
        is ``a*C*V^2*f`` (Eq. 4), with ``V`` the V/f table's entry."""
        voltage = context.vf_table.voltage_for_frequency(f_hz)
        return f_hz * voltage * voltage

    def metric(self, row: SimPointRow, t1_ps: int) -> float:
        return t1_ps / row.execution_time_ps

    def fallback_index(self, num_points: int) -> int:
        """Even the floor exceeds the budget: the floor is the best the
        chip can do (the paper's range stops at 200 MHz)."""
        return 0


class MinEnergyDelay:
    """Scenario III: minimize E * T^k (EDP for k=1, ED^2P for k=2).

    Energy-delay products are unimodal in frequency — leakage dominates
    at the slow end, dynamic power at the fast end — so the search
    refines a three-point bracket around the incumbent minimum.
    """

    kind = "unimodal"

    def __init__(self, delay_exponent: int = 1) -> None:
        if delay_exponent < 1:
            raise ConfigurationError("delay_exponent must be >= 1")
        self.delay_exponent = delay_exponent
        self.name = "edp" if delay_exponent == 1 else f"ed{delay_exponent}p"

    def metric(self, row: SimPointRow, t1_ps: int) -> float:
        time_s = row.execution_time_ps * PICO
        return _energy_j(row) * time_s ** self.delay_exponent


#: The pluggable objective registry (also the CLI's ``--objective`` set).
OBJECTIVES = {
    "power-iso": MinPowerAtIsoPerformance,
    "speedup-budget": MaxSpeedupUnderBudget,
    "edp": partial(MinEnergyDelay, delay_exponent=1),
    "ed2p": partial(MinEnergyDelay, delay_exponent=2),
}


def objective_by_name(name: str):
    """Instantiate a registered objective, or raise with the known set."""
    try:
        factory = OBJECTIVES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown objective {name!r}; expected one of "
            f"{', '.join(sorted(OBJECTIVES))}"
        ) from None
    return factory()


def _coarse_indices(num_points: int, stride: int) -> List[int]:
    """Round-0 probe set: every ``stride``-th index plus both endpoints."""
    points = set(range(0, num_points, stride))
    points.add(num_points - 1)
    return sorted(points)


def _default_stride(num_points: int) -> int:
    """Largest power of two below the ladder length (halves cleanly)."""
    if num_points <= 2:
        return 1
    return 2 ** max(0, (num_points - 1).bit_length() - 1)


def pick_boundary(
    flags: Sequence[bool], feasible_low: bool
) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
    """Select the boundary optimum from a fully evaluated ladder.

    Returns ``(index, bracket)`` where ``index`` is the optimal ladder
    position (``None`` when nothing is feasible) and ``bracket`` the
    adjacent (feasible, infeasible) flip pair, ``None`` when feasibility
    is uniform.  This is the single pick rule both the exhaustive sweep
    and the refined search reduce to, so their tie semantics agree by
    construction.
    """
    feasible = [i for i, flag in enumerate(flags) if flag]
    if not feasible:
        return None, None
    index = max(feasible) if feasible_low else min(feasible)
    if feasible_low:
        bracket = (index, index + 1) if index + 1 < len(flags) else None
    else:
        bracket = (index - 1, index) if index > 0 else None
    return index, bracket


class _BoundarySearch:
    """Locate a monotone feasibility flip on a ladder, seeded by a model.

    ``xs[i]`` is ladder point ``i``'s model coordinate, in which the
    constraint is expected to be affine; ``known[i]`` is its measured
    constraint value, feasible when at most ``limit``.  The model only
    chooses probes: the search ends on an adjacent measured flip pair
    (or a uniform ladder), so any monotone values — shaped like the
    model or not — resolve to :func:`pick_boundary`'s pick.
    """

    #: Model predictions before the search falls back to bisection.
    max_predictions = 2

    def __init__(self, xs: Sequence[float], limit: float, feasible_low: bool):
        self.xs = xs
        self.num_points = len(xs)
        self.limit = limit
        self.feasible_low = feasible_low
        self.known: Dict[int, float] = {}
        self.predictions = 0
        self.bracket: Optional[Tuple[int, int]] = None
        self.done = self.num_points == 0
        self.result: Optional[int] = None
        self.boundary: Optional[Tuple[int, int]] = None
        self._wanted: List[int] = []
        self.advance()

    def feasible(self, index: int) -> bool:
        return self.known[index] <= self.limit

    def frontier(self) -> List[int]:
        """Ladder indices this search needs evaluated next."""
        return list(self._wanted)

    def advance(self) -> None:
        """Fold the frontier's results in and choose the next probes.

        Values may also arrive outside a round (the 1-core search's top
        probe is the application's baseline); each call plans from
        everything known so far.
        """
        if self.done:
            return
        top = self.num_points - 1
        if top not in self.known:
            self._wanted = [top]
            return
        if self.feasible(top) == self.feasible_low:
            # A feasible top is the best a feasible-low ladder offers; an
            # infeasible top leaves a feasible-high ladder nothing.
            self._finish(top if self.feasible_low else None)
            return
        if 0 not in self.known:
            self._wanted = [0]
            return
        probes = sorted(self.known)
        flip = next(
            (
                (lo, hi)
                for lo, hi in zip(probes, probes[1:])
                if self.feasible(lo) != self.feasible(hi)
            ),
            None,
        )
        if flip is None:
            # Both ends agree, and the predicate is monotone.
            self._finish(0 if self.feasible(0) else None)
            return
        self.bracket = lo, hi = flip
        if hi - lo == 1:
            self.boundary = flip
            self._finish(lo if self.feasible(lo) else hi)
            return
        pair = None
        if self.predictions < self.max_predictions:
            pair = self._predicted_pair(lo, hi)
        if pair is None:
            self._wanted = [(lo + hi) // 2]
        else:
            self.predictions += 1
            self._wanted = [i for i in pair if i not in self.known]

    def _predicted_pair(self, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """The adjacent pair a line through the bracket ends puts the
        flip in, or ``None`` when rounding puts it past ``hi``."""
        x_lo, value_lo = self.xs[lo], self.known[lo]
        slope = (self.known[hi] - value_lo) / (self.xs[hi] - x_lo)
        side = self.feasible(lo)
        for k in range(lo + 1, hi + 1):
            if (value_lo + slope * (self.xs[k] - x_lo) <= self.limit) != side:
                return k - 1, k
        return None

    def _finish(self, result: Optional[int]) -> None:
        self.done = True
        self.result = result
        self._wanted = []


class _UnimodalSearch:
    """Refine a three-point bracket around a unimodal metric's minimum."""

    def __init__(self, num_points: int):
        self.num_points = num_points
        self.stride = _default_stride(num_points)
        self.known: Dict[int, float] = {}
        self.done = num_points == 0
        self.result: Optional[int] = None
        self.boundary: Optional[Tuple[int, int]] = None

    def _best(self) -> int:
        return min(sorted(self.known), key=lambda i: (self.known[i], i))

    def _gaps(self) -> Tuple[int, int, int]:
        """(previous probe, incumbent minimum, next probe)."""
        probes = sorted(self.known)
        best = self._best()
        at = probes.index(best)
        prev = probes[at - 1] if at > 0 else best
        nxt = probes[at + 1] if at + 1 < len(probes) else best
        return prev, best, nxt

    def frontier(self) -> List[int]:
        if self.done:
            return []
        if not self.known:
            return _coarse_indices(self.num_points, self.stride)
        prev, best, nxt = self._gaps()
        points = []
        if best - prev > 1:
            points.append((prev + best) // 2)
        if nxt - best > 1:
            points.append((best + nxt) // 2)
        return points

    def advance(self) -> None:
        if self.done:
            return
        prev, best, nxt = self._gaps()
        if best - prev <= 1 and nxt - best <= 1:
            self.done = True
            self.result = best


@dataclass(frozen=True)
class OptimizerRow:
    """One (application, N) optimum chosen by an optimizer campaign.

    ``metric`` is the objective's headline scalar at the chosen point
    (power in watts for ``power-iso``, speedup for ``speedup-budget``,
    the energy-delay product in J*s^k for ``edp``/``ed2p``).
    ``f_interpolated_hz`` is the linearly interpolated constraint
    boundary between the bracketing profiled points; it equals
    ``frequency_hz`` when the constraint never flips on the ladder (or
    the objective has no constraint).  ``evaluations`` counts the
    search's own probes; a 1-core boundary search takes its top probe
    from the baseline, so one its top probe settles reports 0.
    """

    objective: str
    app: str
    n: int
    frequency_hz: float
    voltage: float
    execution_time_ps: int
    total_power_w: float
    speedup: float
    metric: float
    feasible: bool
    f_interpolated_hz: float
    f_nominal_hz: float
    budget_w: float
    evaluations: int
    grid_points: int
    #: ``T1 / TN`` at nominal frequency, from the search's top-of-ladder
    #: probe.  0.0 marks rows stored before the field existed.
    nominal_speedup: float = 0.0

    @property
    def energy_j(self) -> float:
        """Energy at the chosen point (power times execution time)."""
        return self.total_power_w * (self.execution_time_ps * PICO)


@dataclass
class OptimizerCampaign:
    """Everything one :func:`run_optimizer` invocation produced.

    ``evaluations`` counts the distinct grid points the searches
    requested — exactly the simulations a cold cache would run on top
    of the ``baseline_evaluations`` (the 1-core search's top probe is
    its application's baseline, so it is counted there only).
    ``cold_evaluations`` is how many of them actually simulated in
    *this* invocation (the rest were result-cache hits), so a warm
    re-run reports the same ``evaluations`` with ``cold_evaluations``
    of zero.
    """

    objective: str
    rows: List[OptimizerRow] = field(default_factory=list)
    evaluations: int = 0
    cold_evaluations: int = 0
    cache_hits: int = 0
    baseline_evaluations: int = 0
    exhaustive_evaluations: int = 0
    rounds: int = 0
    #: (app, n) searches abandoned because a probe failed/quarantined;
    #: a failed 1-core baseline skips its application as (app, 1).
    skipped: List[Tuple[str, int]] = field(default_factory=list)
    #: Applications whose 1-core baseline failed (none of their
    #: searches ran).
    failed_baselines: List[str] = field(default_factory=list)

    @property
    def simulations_saved(self) -> int:
        """Grid evaluations the adaptive search avoided."""
        return self.exhaustive_evaluations - self.evaluations

    @property
    def evaluation_ratio(self) -> float:
        """Adaptive evaluations as a fraction of the exhaustive grid."""
        if not self.exhaustive_evaluations:
            return 0.0
        return self.evaluations / self.exhaustive_evaluations

    def summary(self) -> str:
        """One human-readable accounting line for the CLI."""
        saved = self.simulations_saved
        percent = 100.0 * (1.0 - self.evaluation_ratio)
        return (
            f"[optimizer] {self.objective}: {self.evaluations} grid "
            f"evaluations ({self.cold_evaluations} simulated, "
            f"{self.cache_hits} cached) vs {self.exhaustive_evaluations} "
            f"exhaustive — saved {saved} ({percent:.0f}%) in "
            f"{self.rounds} round(s)"
        )


class _SearchState:
    """One (application, N) search plus everything its rows need."""

    def __init__(
        self, model: WorkloadModel, n: int, t1_ps: int, search
    ) -> None:
        self.model = model
        self.n = n
        #: The application's 1-core nominal execution time (T1).
        self.t1_ps = t1_ps
        self.search = search
        self.rows: Dict[int, SimPointRow] = {}
        self.evaluations = 0
        self.failed = False


def _interpolated_frequency(
    search, ladder: Sequence[float], chosen_hz: float
) -> float:
    """Locate the constraint boundary between two profiled points.

    The paper interpolates "by linearly scaling between the two"
    profiled measurements; the crossing is clamped into the bracket so
    measurement noise can never put it outside the profiled pair.
    """
    if search.boundary is None:
        return chosen_hz
    lo, hi = search.boundary
    value_lo, value_hi = search.known[lo], search.known[hi]
    f_lo, f_hi = ladder[lo], ladder[hi]
    crossing = f_lo + (search.limit - value_lo) * (f_hi - f_lo) / (
        value_hi - value_lo
    )
    return min(max(crossing, f_lo), f_hi)


def _program_groups(
    models: Sequence[WorkloadModel], core_counts: Sequence[int], capacity: int
) -> List[List[Tuple[WorkloadModel, int]]]:
    """Split the (application, N) searches into compile-cache-sized groups.

    The search is round-major: every round touches every program in
    play, so once a campaign has more (application, N) programs than
    the bounded stream cache holds, LRU eviction recompiles each of
    them every round.  Groups of at most ``capacity`` programs
    (counting each application's 1-core baseline) compile every program
    once.
    """
    groups: List[List[Tuple[WorkloadModel, int]]] = []
    programs: set = set()
    for model in models:
        for n in model.supported_thread_counts(core_counts):
            pair = {(model.name, 1), (model.name, n)}
            if not groups or len(programs | pair) > capacity:
                groups.append([])
                programs = set()
            groups[-1].append((model, n))
            programs |= pair
    return groups


def _compile_cache_capacity() -> int:
    """The capacity of the process-wide compile cache.

    Read without importing the compiler: a campaign replayed from the
    result cache compiles nothing, and until :mod:`repro.sim.ops` is
    loaded its cache has the default capacity.
    """
    ops = sys.modules.get("repro.sim.ops")
    return ops.stream_cache.maxsize if ops is not None else STREAM_CACHE_SIZE


def run_optimizer(
    context: ExperimentContext,
    models: Sequence[WorkloadModel],
    objective,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    budget_w: Optional[float] = None,
    executor: Optional[SweepExecutor] = None,
    exhaustive: bool = False,
) -> OptimizerCampaign:
    """Search every (application, N) pair's ladder for the optimum.

    With ``exhaustive=True`` the full ladder is evaluated in one round
    and the same pick rule applied — the reference the differential
    tests and ``bench_optimizer.py`` hold the adaptive search to.

    Searches run in groups that fit the process-wide compile cache
    (:data:`repro.sim.ops.stream_cache`), so every (application, N)
    program compiles once however large the campaign.

    A probe that fails (or quarantines, under a retrying executor)
    abandons that (application, N) search — recorded in
    :attr:`OptimizerCampaign.skipped` and in the executor's ``failed``
    accumulator, which the CLI's ``[quarantine]`` summary and the
    report's Robustness section read — without aborting the campaign.
    """
    if isinstance(objective, str):
        objective = objective_by_name(objective)
    executor = executor if executor is not None else SweepExecutor()
    budget = budget_w if budget_w is not None else (
        context.calibration.max_operational_power_w
    )
    ladder = frequency_ladder(context)
    xs = (
        [objective.fit_x(context, f_hz) for f_hz in ladder]
        if objective.kind == "boundary"
        else None
    )

    campaign = OptimizerCampaign(objective=objective.name)
    baselines: Dict[str, SimPointRow] = {}
    with get_tracer().span(
        "optimizer.campaign",
        objective=objective.name,
        apps=len(models),
        exhaustive=exhaustive,
    ) as span:
        for group in _program_groups(models, core_counts, _compile_cache_capacity()):
            # Baselines: each application's 1-core nominal time (T1),
            # the reference both feasibility and the speedup column are
            # built on.  Shared with the scenario pipelines through the
            # cache.
            fresh = {
                model.name: model
                for model, _ in group
                if model.name not in baselines
                and model.name not in campaign.failed_baselines
            }
            baseline_tasks = [SimPointTask(spec=m.spec, n=1) for m in fresh.values()]
            baseline_outcomes = simulate_points(context, executor, baseline_tasks)
            campaign.baseline_evaluations += len(baseline_tasks)
            for task, outcome in zip(baseline_tasks, baseline_outcomes):
                if outcome.ok:
                    baselines[task.spec.name] = outcome.value
                else:
                    campaign.failed_baselines.append(task.spec.name)
                    campaign.skipped.append((task.spec.name, 1))

            states: List[_SearchState] = []
            for model, n in group:
                baseline = baselines.get(model.name)
                if baseline is None:
                    continue
                t1_ps = baseline.execution_time_ps
                if objective.kind == "boundary":
                    search = _BoundarySearch(
                        xs, objective.limit(t1_ps, budget), objective.feasible_low
                    )
                else:
                    search = _UnimodalSearch(len(ladder))
                state = _SearchState(model, n, t1_ps, search)
                if n == 1 and objective.kind == "boundary" and not exhaustive:
                    # ``SimPointTask(n=1)`` at nominal is bitwise this
                    # search's top probe: take it from the baseline.
                    top = len(ladder) - 1
                    state.rows[top] = baseline
                    search.known[top] = objective.constraint(baseline)
                    search.advance()
                states.append(state)
            campaign.exhaustive_evaluations += len(ladder) * len(states)
            _search(
                context, executor, objective, ladder, states, exhaustive,
                campaign,
            )
            for state in states:
                if state.failed:
                    continue
                row = _row_from_state(state, objective, ladder, context, budget)
                if row is not None:
                    campaign.rows.append(row)
        campaign.rows.sort(key=lambda r: (r.app, r.n))
        span.set(
            evaluations=campaign.evaluations,
            simulations_saved=campaign.simulations_saved,
        )
    return campaign


def _search(
    context: ExperimentContext,
    executor: SweepExecutor,
    objective,
    ladder: Sequence[float],
    states: List[_SearchState],
    exhaustive: bool,
    campaign: OptimizerCampaign,
) -> None:
    """Refine ``states`` round by round until every search resolves.

    Each round evaluates the union of the searches' frontiers as one
    flat fan-out through the executor.
    """
    while True:
        frontier: List[Tuple[_SearchState, int]] = []
        for state in states:
            if state.failed:
                continue
            if exhaustive:
                wanted = [
                    i for i in range(len(ladder)) if i not in state.search.known
                ]
            else:
                wanted = state.search.frontier()
            frontier.extend((state, index) for index in wanted)
        if not frontier:
            return
        campaign.rounds += 1
        tasks = [
            SimPointTask(
                spec=state.model.spec, n=state.n, frequency_hz=ladder[index]
            )
            for state, index in frontier
        ]
        widths = [
            state.search.bracket[1] - state.search.bracket[0]
            for state, _ in frontier
            if getattr(state.search, "bracket", None) is not None
        ]
        with get_tracer().span(
            "optimizer.round",
            index=campaign.rounds,
            points=len(tasks),
            bracket_steps=max(widths, default=0),
        ):
            outcomes = simulate_points(context, executor, tasks)
        advanced = set()
        for (state, index), outcome in zip(frontier, outcomes):
            state.evaluations += 1
            campaign.evaluations += 1
            if not outcome.ok:
                state.failed = True
                campaign.skipped.append((state.model.name, state.n))
                continue
            if outcome.cached:
                campaign.cache_hits += 1
            else:
                campaign.cold_evaluations += 1
            row = outcome.value
            state.rows[index] = row
            if objective.kind == "boundary":
                state.search.known[index] = objective.constraint(row)
            else:
                state.search.known[index] = objective.metric(row, state.t1_ps)
            advanced.add(id(state))
        for state in states:
            if id(state) in advanced and not state.failed:
                if exhaustive:
                    _resolve_exhaustive(state, objective)
                else:
                    state.search.advance()


def _resolve_exhaustive(state: _SearchState, objective) -> None:
    """Apply the shared pick rule to a fully evaluated ladder."""
    search = state.search
    if len(search.known) < search.num_points:
        return
    if objective.kind == "boundary":
        flags = [search.feasible(i) for i in range(search.num_points)]
        index, bracket = pick_boundary(flags, objective.feasible_low)
        search.result = index
        search.boundary = bracket
    else:
        search.result = min(
            range(search.num_points), key=lambda i: (search.known[i], i)
        )
    search.done = True


def _row_from_state(
    state: _SearchState,
    objective,
    ladder: Sequence[float],
    context: ExperimentContext,
    budget: float,
) -> Optional[OptimizerRow]:
    """Assemble the final row for one resolved (application, N) search."""
    search = state.search
    index = search.result
    feasible = index is not None
    if index is None:
        index = objective.fallback_index(search.num_points)
    row = state.rows.get(index)
    if row is None:
        return None
    t1_ps = state.t1_ps
    chosen_hz = ladder[index]
    # Every search measures the top of the ladder (nominal frequency).
    nominal = state.rows[search.num_points - 1]
    return OptimizerRow(
        objective=objective.name,
        app=state.model.name,
        n=state.n,
        frequency_hz=chosen_hz,
        voltage=row.voltage,
        execution_time_ps=row.execution_time_ps,
        total_power_w=row.total_power_w,
        speedup=t1_ps / row.execution_time_ps,
        metric=objective.metric(row, t1_ps),
        feasible=feasible,
        f_interpolated_hz=_interpolated_frequency(search, ladder, chosen_hz),
        f_nominal_hz=context.f_nominal,
        budget_w=budget,
        evaluations=state.evaluations,
        grid_points=search.num_points,
        nominal_speedup=t1_ps / nominal.execution_time_ps,
    )

