"""Campaign benchmark: the real ``repro`` CLI, one fresh interpreter per command.

Usage::

    python3 campaignbench/run.py --workload fig3-cold --seed 0 --seconds 30 --trace 0
    python3 campaignbench/run.py --pin        # re-pin the seed-0 table digests

A closed loop with one client: each command starts only after the
previous one exited, always with ``--jobs 1`` and the fixed ``SCALE``.
After one untimed warm-up pass, the workload's command list is repeated
while another repetition fits in ``--seconds``.  Every command is an operation; it
fails when it exits non-zero, prints a ``[quarantine]`` line, or prints
a table that differs from the pinned digest (seed 0) or from the
warm-up pass's table.

``--trace 0`` prints the end-to-end metrics (medians over the timed
iterations).  ``--trace 1`` alternates untraced and traced iterations
and prints the per-layer ledger of the traced ones; see README.md.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".bench_work"

#: One workload scale for every workload: large enough that simulation
#: is a visible share of fig3/fig4, small enough for several iterations
#: of the slowest workload in one run.
SCALE = 0.05
#: A command that runs this long is killed and counts as failed.
COMMAND_TIMEOUT_S = 90.0
#: Status lines that legitimately differ between a cold and a warm run
#: (evaluated/hit counts, run ids); every other line of stdout is table.
STATUS_PREFIXES = ("[executor]", "[telemetry]")


@dataclass(frozen=True)
class Workload:
    """CLI subcommands run back to back as one iteration."""

    commands: tuple
    #: ``none``: no cache; ``fresh``: an empty cache per iteration;
    #: ``primed``: one cache filled by the untimed warm-up pass.
    cache: str
    telemetry: bool


WORKLOADS = {
    "fig3-cold": Workload(("fig3",), "none", False),
    "fig4-cold": Workload(("fig4",), "fresh", True),
    "warm-replay": Workload(("fig3", "fig4", "characterize"), "primed", True),
}

#: Traced layer spans: span name -> (self-time metric, call-count metric).
LAYERS = {
    "context.init": ("context.init_s", None),
    "context.calibration": ("context.calibration_s", None),
    "ops.compile": ("ops.compile_s", "ops.compile_calls"),
    "cmp.kernel": ("cmp.kernel_s", "cmp.runs"),
    "chippower.evaluate": ("chippower.evaluate_s", "chippower.evaluations"),
    "hotspot.solve": ("hotspot.solve_s", "hotspot.solves"),
    "executor.dispatch": ("executor.dispatch_s", None),
    "cache.get": ("cache.get_s", "cache.gets"),
    "cache.put": ("cache.put_s", "cache.puts"),
    "journal.record": ("journal.record_s", "journal.records"),
    "telemetry.write": ("telemetry.write_s", "telemetry.calls"),
}
#: Every ledger row: their sum plus ``ledger.residual_s`` is ``trace.wall_s``.
LEDGER_ROWS = ("interp.start_s", "cli.import_s") + tuple(t for t, _ in LAYERS.values())
#: Child counters (read from return values) -> reported per-layer metric.
COUNTS = {
    "sim_ops": "cmp.sim_ops",
    "executor_points": "executor.points",
    "executor_points_failed": "executor.points_failed",
    "simulations": "pipeline.simulations",
    "rows": "pipeline.rows",
}
#: Child counters only used as ratio numerators.
RATIO_COUNTS = ("compile_hits", "fast_path_ops", "cache_hits")
#: Ratio numerators that are never reported themselves.
NUMERATORS = RATIO_COUNTS + ("solves_in_evaluate",)

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class CommandRun:
    """One CLI command: its host-side measurements and its output."""

    command: str
    argv: List[str]
    spawn: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: Optional[int]
    stdout: str
    stderr: str
    report: Optional[dict]
    failure: Optional[str] = None

    @property
    def setup_s(self) -> float:
        """Spawn to the end of ``ExperimentContext(...)`` (or the whole run)."""
        end = (self.report or {}).get("context_end")
        return end - self.spawn if end is not None else self.wall_s

    @property
    def table(self) -> str:
        return "".join(
            line
            for line in self.stdout.splitlines(keepends=True)
            if not line.startswith(STATUS_PREFIXES)
        )


@dataclass
class Iteration:
    traced: bool
    runs: List[CommandRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digests(scale: float) -> Dict[str, str]:
    """The committed seed-0 table digests, if they were pinned at ``scale``."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return pinned["tables"] if pinned["scale"] == scale else {}


def spawn(argv: List[str], out_dir: Path, tag: str) -> tuple:
    """Run ``argv`` to completion.

    Returns ``(start, end, exit_code, rusage, stdout, stderr)``, with
    ``exit_code`` None when the command hit ``COMMAND_TIMEOUT_S``.

    ``os.wait4`` runs in a helper thread so the command can be given a
    deadline while its own rusage (CPU time, peak RSS) is still read.
    """
    out_path, err_path = out_dir / f"{tag}.out", out_dir / f"{tag}.err"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    waited: dict = {}

    def wait(pid: int) -> None:
        waited["result"] = os.wait4(pid, 0)
        waited["end"] = time.monotonic()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
    waiter = threading.Thread(target=wait, args=(proc.pid,))
    waiter.start()
    try:
        waiter.join(COMMAND_TIMEOUT_S)
    except BaseException:
        # Interrupted (Ctrl-C, SIGTERM): never leave the child running.
        proc.kill()
        waiter.join()
        raise
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    _pid, status, usage = waited["result"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    code = None if timed_out else proc.returncode
    return start, waited["end"], code, usage, stdout, stderr


class Campaign:
    """One benchmark run of one workload: warm-up, timed loop, checks."""

    def __init__(self, name: str, seed: int, scale: float, digests: Dict[str, str]):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.digests = digests
        self.references: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.work = WORK / f"{name}-{os.getpid()}"
        self._serial = 0

    def argv(self, command: str, trace: bool, cache: Optional[Path], telemetry: Optional[Path]) -> List[str]:
        report = self.work / f"report-{self._serial}.json"
        argv = [sys.executable, str(CHILD), str(report), str(self.seed), "1" if trace else "0"]
        argv += [command, "--scale", str(self.scale), "--jobs", "1"]
        if cache is not None:
            argv += ["--cache", str(cache)]
        if telemetry is not None:
            argv += ["--telemetry-dir", str(telemetry)]
        return argv

    def run_command(self, command: str, trace: bool, cache: Optional[Path], telemetry: Optional[Path]) -> CommandRun:
        self._serial += 1
        argv = self.argv(command, trace, cache, telemetry)
        report_path = Path(argv[2])
        start, end, code, usage, stdout, stderr = spawn(argv, self.work, f"cmd-{self._serial}")
        report = None
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            report_path.unlink()
        run = CommandRun(
            command=command,
            argv=argv[5:],
            spawn=start,
            wall_s=end - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=code,
            stdout=stdout,
            stderr=stderr,
            report=report,
        )
        run.failure = self.check(run)
        self.attempted += 1
        if run.failure is not None:
            self.failed += 1
            tail = "\n".join(stderr.splitlines()[-15:])
            print(
                f"[campaignbench] FAILED workload {self.name}, command "
                f"`repro {' '.join(run.argv)}`: {run.failure}\n"
                f"--- stderr tail ---\n{tail}",
                file=sys.stderr,
            )
        return run

    def check(self, run: CommandRun) -> Optional[str]:
        """Why ``run`` failed as an operation, or None."""
        if run.exit_code is None:
            return f"timed out after {COMMAND_TIMEOUT_S:.0f} s"
        if run.exit_code != 0:
            return f"exit code {run.exit_code}"
        if "[quarantine]" in run.stdout or "[quarantine]" in run.stderr:
            return "printed a [quarantine] line"
        if run.report is None:
            return "the child wrote no report"
        table = run.table
        expected = self.digests.get(run.command)
        if expected is not None and digest(table) != expected:
            return f"table digest {digest(table)[:16]} != pinned {expected[:16]}"
        reference = self.references.setdefault(run.command, table)
        if table != reference:
            return "table differs from the warm-up (cold) pass's table"
        return None

    def iteration(self, traced: bool, cache: Optional[Path]) -> Iteration:
        """Run the command list once; scratch dirs live outside the timing."""
        result = Iteration(traced)
        for command in self.workload.commands:
            telemetry = None
            if self.workload.telemetry:
                telemetry = self.work / "telemetry"
                telemetry.mkdir()
            run = self.run_command(command, traced, cache, telemetry)
            if telemetry is not None:
                shutil.rmtree(telemetry)
            result.runs.append(run)
            if run.failure is not None:
                break
        return result

    @contextlib.contextmanager
    def scratch(self):
        """The run's scratch directory, removed with everything in it."""
        self.work.mkdir(parents=True)
        try:
            yield
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass  # another run still uses it

    def run(self, seconds: float, trace: bool) -> List[Iteration]:
        with self.scratch():
            return self._loop(seconds, trace)

    def _cache_for_iteration(self) -> Optional[Path]:
        cache = self.work / "cache"
        if self.workload.cache == "fresh":
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir()
        elif self.workload.cache == "primed":
            # Only the cached points are shared; each run's journal is not.
            shutil.rmtree(cache / "journal", ignore_errors=True)
        else:
            return None
        return cache

    def _loop(self, seconds: float, trace: bool) -> List[Iteration]:
        if self.workload.cache == "primed":
            (self.work / "cache").mkdir()
        # Untimed warm-up: hot bytecode and page cache, the cold
        # reference tables, and (primed) the cache the loop replays.
        warm = self.iteration(False, self._cache_for_iteration())
        if any(r.failure for r in warm.runs):
            return []
        iterations: List[Iteration] = []
        start = time.monotonic()
        while True:
            traced = trace and len(iterations) % 2 == 1
            done = self.iteration(traced, self._cache_for_iteration())
            if any(r.failure for r in done.runs):
                break
            iterations.append(done)
            print(
                f"[campaignbench] {self.name} iteration {len(iterations)}"
                f"{' (traced)' if traced else ''}: {done.wall_s:.3f} s",
                file=sys.stderr,
            )
            # Start another iteration only if it should end within
            # ``seconds``, so a run lasts the warm-up plus ``seconds``.
            projected = time.monotonic() - start + done.wall_s
            if projected > seconds and (not trace or len(iterations) >= 2):
                break
        return iterations


def end_to_end(iterations: List[Iteration]) -> Dict[str, float]:
    """Medians over the untraced iterations."""
    plain = [it for it in iterations if not it.traced]
    return {
        "wall_s": statistics.median(it.wall_s for it in plain),
        "setup_s": statistics.median(sum(r.setup_s for r in it.runs) for it in plain),
        "cpu_s": statistics.median(sum(r.cpu_s for r in it.runs) for it in plain),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in it.runs) for it in plain),
    }


def command_ledger(run: CommandRun) -> Dict[str, float]:
    """Additive per-layer values of one traced command."""
    report = run.report
    values = dict.fromkeys(LEDGER_ROWS, 0.0)
    values.update(dict.fromkeys((c for _, c in LAYERS.values() if c), 0))
    values["trace.wall_s"] = run.wall_s
    values["interp.start_s"] = report["start"] - run.spawn
    values["cli.import_s"] = report["import_end"] - report["import_start"]
    spans = report["spans"]
    solves_in_evaluate = 0
    for name, start, end, parent in spans:
        self_metric, count_metric = LAYERS[name]
        values[self_metric] += end - start
        if count_metric:
            values[count_metric] += 1
        if parent >= 0:
            parent_name = spans[parent][0]
            values[LAYERS[parent_name][0]] -= end - start
            solves_in_evaluate += name == "hotspot.solve" and parent_name == "chippower.evaluate"
    values["ledger.residual_s"] = run.wall_s - sum(values[row] for row in LEDGER_ROWS)
    counts = report["counts"]
    for counter, metric in COUNTS.items():
        values[metric] = counts.get(counter, 0)
    for counter in RATIO_COUNTS:
        values[counter] = counts.get(counter, 0)
    values["solves_in_evaluate"] = solves_in_evaluate
    return values


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(iterations: List[Iteration]) -> Dict[str, float]:
    """Means over the traced iterations, so the ledger still closes."""
    traced = [it for it in iterations if it.traced]
    totals: Dict[str, float] = {}
    for it in traced:
        for run in it.runs:
            for key, value in command_ledger(run).items():
                totals[key] = totals.get(key, 0) + value
    mean = {key: value / len(traced) for key, value in totals.items()}
    untraced = statistics.median(it.wall_s for it in iterations if not it.traced)
    metrics = {key: value for key, value in mean.items() if key not in NUMERATORS}
    metrics.update(
        {
            "ops.compile_hit_ratio": ratio(mean["compile_hits"], mean["ops.compile_calls"]),
            "cmp.ops_per_s": ratio(mean["cmp.sim_ops"], mean["cmp.kernel_s"]),
            "cmp.fast_path_ratio": ratio(mean["fast_path_ops"], mean["cmp.sim_ops"]),
            "hotspot.solves_per_evaluation": ratio(
                mean["solves_in_evaluate"], mean["chippower.evaluations"]
            ),
            "cache.hit_ratio": ratio(mean["cache_hits"], mean["cache.gets"]),
            "pipeline.rows_per_simulation": ratio(
                mean["pipeline.rows"], mean["pipeline.simulations"]
            ),
            "ledger.residual_share": ratio(mean["ledger.residual_s"], mean["trace.wall_s"]),
            "trace.overhead_share": statistics.median(it.wall_s for it in traced) / untraced - 1.0,
        }
    )
    return metrics


def units(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_evaluation", "_per_simulation")):
        return "ratio"
    return "count"


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = SCALE,
    digests: Optional[Dict[str, str]] = None,
) -> dict:
    """One benchmark run; returns the result object ``main`` prints."""
    if digests is None:
        digests = pinned_digests(scale) if seed == 0 else {}
    campaign = Campaign(workload, seed, scale, digests)
    iterations = campaign.run(seconds, trace)
    metrics: Dict[str, float] = {}
    if trace and any(it.traced for it in iterations):
        metrics = per_layer(iterations)
    elif iterations and not trace:
        metrics = end_to_end(iterations)
    return {
        "correct": campaign.failed == 0,
        "attempted": campaign.attempted,
        "failed": campaign.failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }


def pin() -> int:
    """Re-pin the seed-0 digest of every command's table at ``SCALE``."""
    campaign = Campaign("warm-replay", 0, SCALE, {})
    with campaign.scratch():
        runs = [campaign.run_command(c, False, None, None) for c in WORKLOADS["warm-replay"].commands]
    if campaign.failed:
        return 1
    tables = {run.command: digest(run.table) for run in runs}
    DIGESTS.write_text(json.dumps({"scale": SCALE, "tables": tables}, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {sorted(tables)} at scale {SCALE} in {DIGESTS.name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE, help="digests are checked only at SCALE")
    parser.add_argument("--pin", action="store_true", help="re-pin the seed-0 digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"campaignbench: {ROOT} holds no src/repro/cli.py to benchmark", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    # A terminated run still kills and reaps its child (see ``spawn``).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
