"""Command-line interface: regenerate the paper's figures from a shell.

Installed behaviours (also reachable via ``python -m repro``):

* ``repro fig1 [--tech 130nm|65nm]`` — analytical Scenario I sweep,
* ``repro fig2 [--tech ...]`` — analytical Scenario II speedup curve,
* ``repro fig3 [--apps ...] [--scale X]`` — experimental Scenario I,
* ``repro fig4 [--apps ...] [--scale X]`` — experimental Scenario II,
* ``repro optimize [--objective ...]`` — adaptive coarse-to-fine search
  over the (N, frequency) design space (see docs/MODEL.md); ``fig4``
  is its ``speedup-budget`` search rendered as Figure 4,
* ``repro characterize [--scale X]`` — workload-model signatures,
* ``repro info`` — machine configuration (Table 1) and suite (Table 2).

The experimental commands accept ``--scale`` to trade run length for
fidelity (1.0 = the calibrated default run length).

The sweep-shaped commands (``fig1``–``fig4``, ``characterize``) also
accept ``--jobs N`` to fan independent sweep points out over N worker
processes, and ``--cache DIR`` to memoize completed points on disk so a
re-run only simulates points whose configuration changed
(``--no-cache`` disables a configured cache for one invocation).

They are also fault tolerant: ``--max-retries N`` re-attempts points
whose failure was transient (a crashed worker, a timeout, an escaped
exception) with exponential backoff before quarantining them,
``--point-timeout S`` bounds each attempt's wall clock, and a cached
sweep journals its progress so ``--resume RUN_ID`` (or ``--resume
latest``) picks an interrupted campaign back up, replaying finished
points from the cache and re-attempting only quarantined or missing
ones — bitwise identical to an uninterrupted run.  See
docs/OBSERVABILITY.md for the failure model.

Every sweep accepts ``--profile`` to print executor/cache statistics
(and, for the experimental sweeps, how the simulation kernel performed:
ops/sec, fast-path hit ratio, per-subsystem slow-path time) and
``--telemetry-dir DIR`` to record a structured run manifest, per-point
JSONL events, and span traces under ``DIR/<run_id>/`` (see
docs/OBSERVABILITY.md).  ``repro trace export|metrics|validate`` reads
those artifacts back: ``export`` writes Chrome ``trace_event`` JSON for
chrome://tracing / Perfetto, ``metrics`` prints a per-phase wall-time
table, ``validate`` checks a run against the manifest schema.

``repro check`` runs the static invariant analyzer over the source tree
(determinism, SI units, hot-path discipline, picklability — see
docs/ANALYSIS.md) and exits non-zero on findings beyond the committed
baseline; ``--update-baseline`` rewrites ``analysis/baseline.json``
from the current tree.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core import AnalyticalChipModel, figure1_sweep, figure2_sweep
from repro.harness import render_table
from repro.tech import technology_by_name
from repro.units import GIGA


def _add_tech_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tech",
        default="65nm",
        choices=("130nm", "65nm", "32nm"),
        help="process technology node (default: 65nm)",
    )


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload run-length scale, 1.0 = full (default: 0.25)",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for independent sweep points (default: 1)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="memoize completed sweep points in DIR (default: no cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache for this invocation (recompute everything)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help=(
            "resume an interrupted sweep: replay the journalled points "
            "of RUN_ID from the cache and evaluate only the rest "
            "(requires --cache; 'latest' picks the newest journal)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help=(
            "re-attempt a point whose failure is transient (worker "
            "crash, timeout, escaped exception) up to N times with "
            "exponential backoff, then quarantine it (default: 0)"
        ),
    )
    parser.add_argument(
        "--point-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock deadline; an attempt exceeding it is "
            "killed and counts as a transient failure (default: none)"
        ),
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        # Hidden: the deterministic chaos plane exists for tests and CI
        # rehearsals, not everyday sweeps.
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help=(
            "record a run manifest, per-point events, and span traces "
            "under DIR/<run_id>/ (default: no telemetry)"
        ),
    )


def _executor_from_args(args, telemetry_run=None, command: str = "sweep"):
    from repro.errors import ConfigurationError
    from repro.harness.executor import ResultCache, RetryPolicy, SweepExecutor
    from repro.harness.faults import parse_fault_plan
    from repro.harness.journal import SweepJournal, list_run_ids

    cache = None
    if args.cache and not args.no_cache:
        cache = ResultCache(args.cache)

    resume_id = getattr(args, "resume", None)
    if resume_id is not None and cache is None:
        print(
            f"{command}: --resume requires --cache (the cache holds the "
            "completed points a resumed run replays)",
            file=sys.stderr,
        )
        raise SystemExit(2)

    retry = None
    if args.max_retries or args.point_timeout is not None:
        retry = RetryPolicy(
            max_retries=args.max_retries, point_timeout_s=args.point_timeout
        )
    fault_plan = None
    if getattr(args, "inject_faults", None):
        try:
            fault_plan = parse_fault_plan(args.inject_faults)
        except ConfigurationError as exc:
            print(f"{command}: --inject-faults: {exc}", file=sys.stderr)
            raise SystemExit(2)
        if retry is None:
            # Injection without an explicit budget still gets retries —
            # a chaos rehearsal that aborts on its first fault tests
            # nothing.
            retry = RetryPolicy(max_retries=2)

    journal = None
    if cache is not None:
        try:
            if resume_id is not None:
                if resume_id == "latest":
                    known = list_run_ids(cache.root)
                    if not known:
                        print(
                            f"{command}: --resume latest: no journalled "
                            f"runs under {cache.root}",
                            file=sys.stderr,
                        )
                        raise SystemExit(2)
                    resume_id = known[-1]
                journal = SweepJournal(
                    cache.root, resume_id, command=command, resume=True
                )
                done = journal.counts()
                print(
                    f"[journal] resuming run {journal.run_id}: "
                    f"{done['ok']} ok, {done['failed']} failed points "
                    "journalled",
                    file=sys.stderr,
                )
                if telemetry_run is not None:
                    telemetry_run.set_resume(
                        journal.run_id, len(journal.completed)
                    )
            else:
                run_id = telemetry_run.run_id if telemetry_run else None
                journal = SweepJournal(cache.root, run_id, command=command)
                print(
                    f"[journal] run {journal.run_id} "
                    f"(resume with --resume {journal.run_id})",
                    file=sys.stderr,
                )
        except ConfigurationError as exc:
            print(f"{command}: {exc}", file=sys.stderr)
            raise SystemExit(2)

    if telemetry_run is not None and fault_plan is not None:
        telemetry_run.set_fault_plan(fault_plan.describe())

    executor = SweepExecutor(
        jobs=args.jobs,
        cache=cache,
        retry=retry,
        fault_plan=fault_plan,
        journal=journal,
    )
    executor.telemetry_run = telemetry_run
    return executor


def _telemetry_run_from_args(args, command: str):
    """Enable tracing and open a run directory when ``--telemetry-dir`` is set.

    Tracing and counter sampling must be on before any farm child forks
    so the children inherit the enabled tracer and sampler (and with
    them the shared wall-clock anchor).
    """
    if not getattr(args, "telemetry_dir", None):
        return None
    from repro.telemetry import TelemetryRun, enable_sampling, enable_tracing

    enable_tracing()
    enable_sampling()
    return TelemetryRun(
        args.telemetry_dir, command=command, argv=list(sys.argv[1:])
    )


def _finalize_telemetry(telemetry_run, executor) -> None:
    if telemetry_run is None:
        return
    telemetry_run.finalize(executor=executor)
    print(f"[telemetry] run {telemetry_run.run_id}: {telemetry_run.directory}")


def _print_executor_summary(executor, args=None) -> None:
    stats = executor.stats
    if getattr(args, "profile", False):
        print(stats.summary())
        if executor.cache is not None:
            print(executor.cache.stats.summary())
    elif executor.cache is not None or stats.failures:
        print(
            f"[executor] {stats.evaluated} evaluated, "
            f"{stats.cache_hits} cache hits, {stats.failures} failures"
        )
    quarantined = getattr(stats, "quarantined", 0)
    if quarantined:
        # Degraded mode: the sweep completed, but some points exhausted
        # their retry budget.  Say which, and how to pick them back up.
        journal = getattr(executor, "journal", None)
        hint = (
            f"rerun with --resume {journal.run_id} to retry them"
            if journal is not None
            else "rerun with --cache and --resume to retry them"
        )
        print(f"[quarantine] {quarantined} point(s) failed after retries; {hint}")
        for outcome in executor.failed:
            failure = outcome.failure
            if failure is not None and failure.retryable:
                print(
                    f"  point {outcome.index}: {failure.error_type}: "
                    f"{failure.message} ({outcome.attempts} attempts)"
                )


def _close_journal(executor) -> None:
    journal = getattr(executor, "journal", None)
    if journal is not None:
        journal.close()


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print simulation-kernel profiling (ops/sec, fast-path hit "
            "ratio, per-subsystem time) after the sweep"
        ),
    )


def _print_kernel_summary(executor, args) -> None:
    if getattr(args, "profile", False):
        print(executor.kernels.summary())


def _add_apps_argument(parser: argparse.ArgumentParser, default: Sequence[str]) -> None:
    parser.add_argument(
        "--apps",
        nargs="+",
        default=list(default),
        help=f"applications to run (default: {' '.join(default)})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Li & Martinez, 'Power-Performance Implications "
            "of Thread-level Parallelism on Chip Multiprocessors' (ISPASS 2005)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fig1 = commands.add_parser("fig1", help="analytical Figure 1")
    _add_tech_argument(fig1)
    _add_executor_arguments(fig1)
    _add_profile_argument(fig1)

    fig2 = commands.add_parser("fig2", help="analytical Figure 2")
    _add_tech_argument(fig2)
    _add_executor_arguments(fig2)
    _add_profile_argument(fig2)

    fig3 = commands.add_parser("fig3", help="experimental Figure 3")
    _add_apps_argument(fig3, ("FMM", "LU", "Ocean", "Cholesky", "Radix"))
    _add_scale_argument(fig3)
    _add_executor_arguments(fig3)
    _add_profile_argument(fig3)

    fig4 = commands.add_parser("fig4", help="experimental Figure 4")
    _add_apps_argument(fig4, ("FMM", "Cholesky", "Radix"))
    _add_scale_argument(fig4)
    _add_executor_arguments(fig4)
    _add_profile_argument(fig4)

    optimize = commands.add_parser(
        "optimize", help="adaptive (N, f) design-space search"
    )
    _add_apps_argument(optimize, ("FMM", "Cholesky", "Radix"))
    optimize.add_argument(
        "--objective",
        default="speedup-budget",
        choices=("edp", "ed2p", "power-iso", "speedup-budget"),
        help=(
            "what to optimize per (app, N): min power at iso-performance, "
            "max speedup under the power budget, or min EDP/ED2P "
            "(default: speedup-budget)"
        ),
    )
    optimize.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        metavar="WATTS",
        help=(
            "power budget for speedup-budget (default: the calibrated "
            "1-core maximum operational power)"
        ),
    )
    optimize.add_argument(
        "--cores",
        nargs="+",
        type=_positive_int,
        default=[1, 2, 4, 8, 16],
        metavar="N",
        help="core counts to search (default: 1 2 4 8 16)",
    )
    optimize.add_argument(
        "--exhaustive",
        action="store_true",
        help=(
            "evaluate the full frequency ladder instead of refining — "
            "the reference the adaptive search provably matches"
        ),
    )
    optimize.add_argument(
        "--store",
        default=None,
        metavar="FILE",
        help="save the chosen rows as an 'optimizer' group in FILE",
    )
    _add_scale_argument(optimize)
    _add_executor_arguments(optimize)
    _add_profile_argument(optimize)

    characterize = commands.add_parser(
        "characterize", help="workload-model signatures"
    )
    _add_scale_argument(characterize)
    _add_executor_arguments(characterize)
    _add_profile_argument(characterize)

    commands.add_parser("info", help="machine and suite summary")

    trace = commands.add_parser(
        "trace", help="inspect recorded telemetry runs"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    for name, help_text in (
        ("export", "write Chrome trace_event JSON for chrome://tracing"),
        ("metrics", "print per-phase span counts and wall time"),
        ("timeline", "render sampled counter channels as sparklines"),
        ("validate", "check a run directory against the manifest schema"),
    ):
        sub = trace_commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--telemetry-dir",
            required=True,
            metavar="DIR",
            help="telemetry directory a sweep wrote runs into",
        )
        sub.add_argument(
            "--run",
            default=None,
            metavar="RUN_ID",
            help="run to read (default: the newest run in DIR)",
        )
        if name == "export":
            sub.add_argument(
                "--output",
                default="trace.json",
                help="output file (default: trace.json)",
            )
        if name == "timeline":
            sub.add_argument(
                "--channel",
                action="append",
                default=None,
                metavar="NAME",
                help="channel to render (repeatable; default: all sampled)",
            )
            sub.add_argument(
                "--width",
                type=int,
                default=60,
                help="sparkline width in characters (default: 60)",
            )

    report = commands.add_parser(
        "report", help="run everything and write a markdown report"
    )
    _add_scale_argument(report)
    report.add_argument(
        "--output",
        default="repro_report.md",
        help="output file (default: repro_report.md)",
    )
    report.add_argument(
        "--analytical-only",
        action="store_true",
        help="skip the (slower) experimental pipelines",
    )

    check = commands.add_parser(
        "check", help="static invariant analysis (see docs/ANALYSIS.md)"
    )
    check.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="source tree to analyze (default: the installed repro package)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    check.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "gate only findings on lines changed since REF "
            "(default ref: HEAD); analysis still covers the whole tree"
        ),
    )
    check.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    check.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="RULE-ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    check.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file (default: analysis/baseline.json next to src/)",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: every finding is new",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its severity and summary",
    )

    verify = commands.add_parser(
        "verify", help="self-check the reproduction's claims"
    )
    verify.add_argument(
        "--analytical-only",
        action="store_true",
        help="skip the (slower) experimental checks",
    )
    verify.add_argument(
        "--scale",
        type=float,
        default=0.15,
        help="workload scale for the experimental checks (default: 0.15)",
    )
    return parser


def _cmd_fig1(args) -> int:
    chip = AnalyticalChipModel(technology_by_name(args.tech))
    telemetry_run = _telemetry_run_from_args(args, "fig1")
    executor = _executor_from_args(args, telemetry_run, "fig1")
    try:
        curves = figure1_sweep(chip, efficiency_points=41, executor=executor)
        rows = []
        for curve in curves:
            pairs = list(zip(curve.efficiencies, curve.normalized_power))
            for eps, power in pairs:
                if round(eps * 100) % 10 == 0:  # print a decile grid
                    rows.append([curve.n, eps, power])
        print(
            render_table(
                ["N", "eps_n", "P_N / P_1"],
                rows,
                title=f"Figure 1 ({args.tech}): normalized power at iso-performance",
            )
        )
        _print_executor_summary(executor, args)
        return 0
    finally:
        _close_journal(executor)
        _finalize_telemetry(telemetry_run, executor)


def _cmd_fig2(args) -> int:
    chip = AnalyticalChipModel(technology_by_name(args.tech))
    telemetry_run = _telemetry_run_from_args(args, "fig2")
    executor = _executor_from_args(args, telemetry_run, "fig2")
    try:
        curve = figure2_sweep(chip, executor=executor)
        print(
            render_table(
                ["N", "speedup", "regime"],
                list(zip(curve.core_counts, curve.speedups, curve.regimes)),
                title=f"Figure 2 ({args.tech}): speedup under the 1-core power budget",
            )
        )
        n_peak, s_peak = curve.peak()
        print(f"peak: {s_peak:.2f}x at N = {n_peak}")
        _print_executor_summary(executor, args)
        return 0
    finally:
        _close_journal(executor)
        _finalize_telemetry(telemetry_run, executor)


def _experimental_context(scale: float, profile: bool = False):
    from repro.harness import ExperimentContext

    print("building experiment context (calibration microbenchmark)...")
    return ExperimentContext(workload_scale=scale, profile=profile)


def _set_context_fingerprint(telemetry_run, context) -> None:
    if telemetry_run is None:
        return
    from repro.harness.executor import config_key

    telemetry_run.set_context_fingerprint(config_key(context.fingerprint()))


def _cmd_fig3(args) -> int:
    from repro.harness import run_scenario1
    from repro.workloads import workload_by_name

    telemetry_run = _telemetry_run_from_args(args, "fig3")
    context = _experimental_context(args.scale, args.profile)
    _set_context_fingerprint(telemetry_run, context)
    executor = _executor_from_args(args, telemetry_run, "fig3")
    try:
        models = [workload_by_name(app) for app in args.apps]
        results = run_scenario1(context, models, executor=executor)
        rows = [
            [
                app,
                r.n,
                r.nominal_efficiency,
                r.actual_speedup,
                r.normalized_power,
                r.normalized_power_density,
                r.average_temperature_c,
            ]
            for app, app_rows in results.items()
            for r in app_rows
        ]
        print(
            render_table(
                ["app", "N", "eps_n", "speedup", "norm-P", "norm-dens", "T (C)"],
                rows,
                title="Figure 3: experimental Scenario I",
            )
        )
        _print_executor_summary(executor, args)
        _print_kernel_summary(executor, args)
        return 0
    finally:
        _close_journal(executor)
        _finalize_telemetry(telemetry_run, executor)


def _cmd_fig4(args) -> int:
    from repro.harness import run_scenario2
    from repro.workloads import workload_by_name

    telemetry_run = _telemetry_run_from_args(args, "fig4")
    context = _experimental_context(args.scale, args.profile)
    _set_context_fingerprint(telemetry_run, context)
    executor = _executor_from_args(args, telemetry_run, "fig4")
    try:
        models = [workload_by_name(app) for app in args.apps]
        results = run_scenario2(
            context, models, core_counts=(1, 2, 4, 8, 12, 16), executor=executor
        )
        rows = [
            [app, r.n, r.nominal_speedup, r.actual_speedup, r.frequency_hz / GIGA, r.power_w]
            for app, app_rows in results.items()
            for r in app_rows
        ]
        print(
            render_table(
                ["app", "N", "nominal", "actual", "f (GHz)", "P (W)"],
                rows,
                title="Figure 4: speedup under the 1-core power budget",
            )
        )
        _print_executor_summary(executor, args)
        _print_kernel_summary(executor, args)
        return 0
    finally:
        _close_journal(executor)
        _finalize_telemetry(telemetry_run, executor)


def _cmd_optimize(args) -> int:
    from repro.harness import run_optimizer, save_results
    from repro.workloads import workload_by_name

    telemetry_run = _telemetry_run_from_args(args, "optimize")
    context = _experimental_context(args.scale, args.profile)
    _set_context_fingerprint(telemetry_run, context)
    executor = _executor_from_args(args, telemetry_run, "optimize")
    try:
        models = [workload_by_name(app) for app in args.apps]
        campaign = run_optimizer(
            context,
            models,
            args.objective,
            core_counts=tuple(args.cores),
            budget_w=args.budget,
            executor=executor,
            exhaustive=args.exhaustive,
        )
        rows = [
            [
                r.app,
                r.n,
                r.frequency_hz / GIGA,
                r.f_interpolated_hz / GIGA,
                r.voltage,
                r.total_power_w,
                r.speedup,
                r.metric,
                "yes" if r.feasible else "no",
            ]
            for r in campaign.rows
        ]
        print(
            render_table(
                [
                    "app",
                    "N",
                    "f (GHz)",
                    "f~ (GHz)",
                    "V",
                    "P (W)",
                    "speedup",
                    "metric",
                    "feasible",
                ],
                rows,
                title=f"Optimal (N, f) per application — objective {args.objective}",
            )
        )
        print(campaign.summary())
        if campaign.skipped:
            skipped = ", ".join(f"{app}@N={n}" for app, n in campaign.skipped)
            print(f"[quarantine] skipped searches: {skipped}", file=sys.stderr)
        if args.store:
            save_results({"optimizer": campaign.rows}, args.store)
            print(f"wrote {args.store} ({len(campaign.rows)} rows)")
        _print_executor_summary(executor, args)
        _print_kernel_summary(executor, args)
        return 0
    finally:
        _close_journal(executor)
        _finalize_telemetry(telemetry_run, executor)


def _cmd_characterize(args) -> int:
    from functools import partial

    from repro.harness.profiling import SimPointTask, sim_point_key, simulate_point
    from repro.workloads import SPLASH2

    telemetry_run = _telemetry_run_from_args(args, "characterize")
    context = _experimental_context(args.scale, args.profile)
    _set_context_fingerprint(telemetry_run, context)
    executor = _executor_from_args(args, telemetry_run, "characterize")
    try:
        # One flat fan-out over every (application, N) profiling point.
        tasks = [
            SimPointTask(spec=model.spec, n=n)
            for model in SPLASH2
            for n in (1, 16)
        ]
        points = executor.map_values(
            partial(simulate_point, context),
            tasks,
            key_configs=[sim_point_key(context, task) for task in tasks],
        )
        rows = []
        for index, model in enumerate(SPLASH2):
            one, sixteen = points[2 * index], points[2 * index + 1]
            rows.append(
                [
                    model.name,
                    one.average_cpi,
                    one.l1_miss_rate,
                    one.memory_stall_fraction,
                    one.execution_time_ps / (16 * sixteen.execution_time_ps),
                    one.total_power_w,
                ]
            )
        print(
            render_table(
                ["app", "CPI", "L1 miss", "mem-stall", "eps_n(16)", "P1 (W)"],
                rows,
                title="SPLASH-2 workload models at nominal V/f",
            )
        )
        _print_executor_summary(executor, args)
        _print_kernel_summary(executor, args)
        return 0
    finally:
        _close_journal(executor)
        _finalize_telemetry(telemetry_run, executor)


def _cmd_info(_args) -> int:
    from repro.area import CMPAreaModel
    from repro.workloads import SPLASH2

    area = CMPAreaModel()
    print(
        render_table(
            ["parameter", "value"],
            [
                ["CMP", "16-way EV6-class, 65 nm, 3.2 GHz, 1.1 V"],
                ["die", f"{area.die_area_mm2():.1f} mm^2"],
                ["L1", "64 KB / 64 B / 2-way, 2-cycle RT"],
                ["L2", "4 MB shared / 128 B / 8-way, 12-cycle RT"],
                ["memory", "75 ns RT, DVFS-independent"],
            ],
            title="Table 1 machine",
        )
    )
    print()
    print(
        render_table(
            ["application", "problem size"],
            [[m.name, m.spec.problem_size] for m in SPLASH2],
            title="Table 2 applications",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.errors import ConfigurationError
    from repro.telemetry import (
        export_chrome_trace,
        metrics_table,
        resolve_run_dir,
        validate_run_dir,
    )

    try:
        run_dir = resolve_run_dir(args.telemetry_dir, args.run)
        if args.trace_command == "export":
            document = export_chrome_trace(run_dir, args.output)
            print(
                f"wrote {args.output} "
                f"({len(document['traceEvents'])} trace events from {run_dir})"
            )
        elif args.trace_command == "metrics":
            print(metrics_table(run_dir))
        elif args.trace_command == "timeline":
            print(_render_timeline(run_dir, args.channel, args.width))
        else:  # validate
            summary = validate_run_dir(run_dir)
            line = (
                f"{run_dir}: OK — status {summary['manifest']['status']!r}, "
                f"{summary['points']} point events, {summary['spans']} spans, "
                f"{summary['samples']} timeline samples"
            )
            if summary["torn_samples"]:
                line += f" ({summary['torn_samples']} torn lines skipped)"
            print(line)
    except ConfigurationError as exc:
        print(f"trace {args.trace_command}: {exc}", file=sys.stderr)
        return 1
    return 0


def _render_timeline(run_dir, channels, width: int) -> str:
    """Sparklines plus alert findings for one run's sampled timeline."""
    from repro.errors import ConfigurationError
    from repro.harness.asciichart import sparkline
    from repro.telemetry import (
        evaluate_rules,
        load_manifest,
        load_timeline,
        stats_from_samples,
    )
    from repro.telemetry.timeseries import SampleRecord

    entries, torn = load_timeline(run_dir)
    samples = [
        SampleRecord.from_dict(entry)
        for entry in entries
        if isinstance(entry.get("channel"), str)
    ]
    if not samples:
        return f"{run_dir}: no timeline samples (was sampling enabled?)"
    grouped: dict = {}
    for record in samples:
        grouped.setdefault(record.channel, []).append(record.value)
    if channels:
        missing = [name for name in channels if name not in grouped]
        if missing:
            raise ConfigurationError(
                f"{run_dir}: no samples for channel(s) {', '.join(missing)}; "
                f"sampled: {', '.join(sorted(grouped))}"
            )
        grouped = {name: grouped[name] for name in channels}
    label_width = max(len(name) for name in grouped)
    lines = []
    for name in sorted(grouped):
        values = grouped[name]
        lines.append(
            f"{name.ljust(label_width)}  {sparkline(values, width=width)}  "
            f"[{min(values):.4g} .. {max(values):.4g}] n={len(values)}"
        )
    if torn:
        lines.append(f"({torn} torn timeline lines skipped)")

    manifest = load_manifest(run_dir)
    dropped = 0
    declared = manifest.get("timeline")
    if isinstance(declared, dict) and isinstance(declared.get("dropped"), int):
        dropped = declared["dropped"]
    findings = evaluate_rules(stats_from_samples(samples), dropped=dropped)
    if findings:
        lines.append("")
        lines.append("alerts:")
        for finding in findings:
            where = f" on {finding.channel}" if finding.channel else ""
            lines.append(
                f"  [{finding.rule}]{where}: {finding.message} "
                f"(observed {finding.value:.4g}, threshold {finding.threshold:.4g})"
            )
    else:
        lines.append("")
        lines.append("alerts: none fired")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    from repro.harness.report import ReportOptions, generate_report

    options = ReportOptions(
        include_experimental=not args.analytical_only,
        workload_scale=args.scale,
    )
    document = generate_report(options)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {args.output} ({len(document.splitlines())} lines)")
    return 0


def _cmd_verify(args) -> int:
    from repro.validation import run_verification

    results = run_verification(
        include_experimental=not args.analytical_only, scale=args.scale
    )
    rows = [
        [
            "PASS" if r.passed else "FAIL",
            r.name,
            f"{r.seconds:.1f}s",
            r.detail,
        ]
        for r in results
    ]
    print(render_table(["status", "check", "time", "detail"], rows))
    failed = [r for r in results if not r.passed]
    print(
        f"\n{len(results) - len(failed)}/{len(results)} checks passed"
        + ("" if not failed else f"; FAILED: {', '.join(r.name for r in failed)}")
    )
    return 1 if failed else 0


def _cmd_check(args) -> int:
    # Imported lazily: the analyzer is a dev-facing subsystem and the
    # figure commands should not pay for it.
    import json
    from pathlib import Path

    from repro import analysis

    if args.list_rules:
        rows = [
            [rule.id, rule.family, rule.severity, rule.summary]
            for rule in analysis.RULES
        ]
        print(render_table(["rule", "family", "severity", "summary"], rows))
        return 0

    if args.root is not None:
        root = Path(args.root)
    else:
        root = Path(__file__).resolve().parent
    if not root.is_dir():
        print(f"error: analysis root {root} is not a directory", file=sys.stderr)
        return 2

    report = analysis.analyze_tree(
        analysis.AnalysisOptions(
            root=root, rules=tuple(r.upper() for r in args.rule)
        )
    )

    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        baseline_path = analysis.default_baseline_path(root)

    if args.update_baseline:
        previous = analysis.load_baseline(baseline_path)
        updated = analysis.baseline_from_findings(report.findings, previous)
        analysis.save_baseline(updated, baseline_path)
        print(
            f"wrote {baseline_path} ({len(updated.entries)} entries, "
            f"{len(report.findings)} findings)"
        )
        return 0

    if args.no_baseline:
        baseline = analysis.Baseline()
    else:
        baseline = analysis.load_baseline(baseline_path)
    new = baseline.new_findings(report.findings)
    stale = baseline.stale_keys(report.findings)

    gating_findings = list(new)
    gating_errors = list(report.errors)
    if args.changed is not None:
        try:
            changed = analysis.changed_lines(root, args.changed)
        except analysis.ChangedLinesError as exc:
            print(f"error: --changed: {exc}", file=sys.stderr)
            return 2
        gating_findings, gating_errors = analysis.gate_findings(
            new, report.errors, changed
        )

    def emit(text: str) -> None:
        if args.output is not None:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text, end="" if text.endswith("\n") else "\n")

    if args.format == "json":
        document = report.to_document()
        document["new_count"] = len(new)
        document["new"] = [finding.to_dict() for finding in new]
        document["stale_baseline_keys"] = stale
        if args.changed is not None:
            document["changed_ref"] = args.changed
            document["gated_count"] = len(gating_findings)
            document["gated"] = [f.to_dict() for f in gating_findings]
        emit(json.dumps(document, indent=2, sort_keys=True) + "\n")
    elif args.format == "sarif":
        uri_prefix = ""
        try:
            uri_prefix = str(root.resolve().relative_to(Path.cwd().resolve()))
        except ValueError:
            pass
        if uri_prefix == ".":
            uri_prefix = ""
        document = analysis.to_sarif(report, new, uri_prefix=uri_prefix)
        emit(json.dumps(document, indent=2, sort_keys=True) + "\n")
    else:
        lines = analysis.format_text(report, new)
        extra: List[str] = []
        for key in stale:
            extra.append(
                f"stale baseline entry (debt paid — run --update-baseline): {key}"
            )
        if args.changed is not None:
            extra.append(
                f"--changed={args.changed}: {len(gating_findings)} gating "
                f"finding(s), {len(gating_errors)} parse error(s) on "
                "changed lines"
            )
        emit(lines + ("\n".join(extra) + "\n" if extra else ""))

    failed = bool(gating_findings) or bool(gating_errors)
    return 1 if failed else 0


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "optimize": _cmd_optimize,
    "characterize": _cmd_characterize,
    "info": _cmd_info,
    "trace": _cmd_trace,
    "check": _cmd_check,
    "report": _cmd_report,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
