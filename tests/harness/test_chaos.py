"""Chaos meta-tests: the real ``fig1`` pipeline under seeded sabotage.

The unit layer proves the executor's retry/rerun mechanics in
isolation; these tests prove the property users actually rely on — the
published figure survives chaos.  Each test runs the genuine CLI
(``repro fig1``) under a deterministic fault plan injecting crashes,
hangs, and kills, and asserts the rendered table is *identical* to the
fault-free run's: same rows, same digits, nothing silently missing.
"""

import re

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    # Journal/bookkeeping notices must stay off stdout (warm-cache runs
    # are compared byte-for-byte), so assert the split holds everywhere.
    assert "[journal]" not in captured.out
    return code, captured.out


def tally(summary):
    """``(evaluated, cache hits, failures)`` of an ``[executor]`` line."""
    match = re.match(r" (\d+) evaluated, (\d+) cache hits, (\d+) failures", summary)
    return tuple(int(group) for group in match.groups())


@pytest.fixture(scope="module")
def clean_fig1(tmp_path_factory):
    """The reference: a fault-free serial fig1 table (computed once)."""
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fig1"]) == 0
    return out.getvalue()


class TestChaosConvergence:
    def test_serial_raise_chaos_matches_clean_run(self, capsys, clean_fig1):
        code, out = run_cli(
            capsys,
            "fig1",
            "--inject-faults",
            "seed=3,rate=0.2,kinds=raise",
            "--max-retries",
            "2",
        )
        assert code == 0
        assert out == clean_fig1

    def test_parallel_crash_hang_kill_chaos_matches_clean_run(
        self, capsys, clean_fig1
    ):
        code, out = run_cli(
            capsys,
            "fig1",
            "--jobs",
            "4",
            "--inject-faults",
            "seed=11,rate=0.12,kinds=raise+kill+hang,hang=0.3",
            "--point-timeout",
            "5",
            "--max-retries",
            "3",
        )
        assert code == 0
        assert out == clean_fig1

    def test_same_seed_sabotages_the_same_points(self, capsys, clean_fig1):
        # Determinism of the chaos itself: two runs under the same plan
        # print byte-identical output (including any recovery effects).
        code_a, out_a = run_cli(
            capsys,
            "fig1",
            "--inject-faults",
            "seed=9,rate=0.3,kinds=raise",
            "--max-retries",
            "2",
        )
        code_b, out_b = run_cli(
            capsys,
            "fig1",
            "--inject-faults",
            "seed=9,rate=0.3,kinds=raise",
            "--max-retries",
            "2",
        )
        assert code_a == code_b == 0
        assert out_a == out_b == clean_fig1


class TestQuarantineAndResume:
    def test_permanent_faults_quarantine_then_resume_completes(
        self, capsys, tmp_path, clean_fig1
    ):
        # Resuming is rerunning the same command over the same cache.
        cache = str(tmp_path / "cache")
        code, degraded = run_cli(
            capsys,
            "fig1",
            "--cache",
            cache,
            "--inject-faults",
            "seed=3,rate=0.1,kinds=raise,permanent=1.0",
            "--max-retries",
            "1",
        )
        assert code == 0
        quarantined = int(degraded.split("[quarantine] ")[1].split()[0])
        assert quarantined > 0
        assert "rerun with the same --cache" in degraded
        assert degraded != clean_fig1

        # The rerun re-attempts exactly the quarantined points and
        # converges to the clean table (cache replays the rest bitwise,
        # the deterministic infeasible points included).
        code, rerun = run_cli(capsys, "fig1", "--cache", cache)
        assert code == 0
        table, _, summary = rerun.rpartition("[executor]")
        clean_table, _, clean_summary = clean_fig1.rpartition("[executor]")
        assert "[quarantine]" not in rerun
        assert table == clean_table
        evaluated, hits, failures = tally(summary)
        assert evaluated == quarantined
        assert evaluated + hits == tally(clean_summary)[0]
        # The only failures left are the clean run's infeasible points.
        assert failures == tally(clean_summary)[2]

    def test_journal_notices_go_to_stderr_not_stdout(self, capsys, tmp_path):
        code = main(["fig2", "--cache", str(tmp_path / "cache")])
        captured = capsys.readouterr()
        assert code == 0
        assert "[journal] run " in captured.err
        assert "[journal]" not in captured.out
