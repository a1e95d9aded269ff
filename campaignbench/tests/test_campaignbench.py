"""Self-test of the campaign benchmark at a tiny scale.

Run from the repository root::

    python3 -m pytest campaignbench/tests -q

Every workload runs once through ``run.main`` — the entry point
BENCHMARK.json names — with tracing on, so both the end-to-end and the
per-layer outputs are checked against BENCHMARK.json, and the traced
ledger must close.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = "0.01"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, *args):
    code = run.main(["--scale", TINY, "--seconds", "0", *args])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
    return result


def unattributed_s(command):
    """Wall time of a traced command outside its interpreter start, import
    and root spans, after checking that the spans nest and never overlap."""
    report = command.report
    spans = report["spans"]
    for name, start, end, parent in spans:
        if parent < 0:
            low, high = report["import_end"], command.spawn + command.wall_s
        else:
            low, high = spans[parent][1], spans[parent][2]
        assert low <= start <= end <= high, name
    roots = [(start, end) for _name, start, end, parent in spans if parent < 0]
    for (_, earlier_end), (later_start, _) in zip(roots, roots[1:]):
        assert earlier_end <= later_start
    covered = (report["start"] - command.spawn) + (report["import_end"] - report["import_start"])
    return command.wall_s - covered - sum(end - start for start, end in roots)


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_traced_run_prints_every_layer_and_closes_the_ledger(capsys, monkeypatch, workload):
    traced = []
    ledger = run.command_ledger

    def recording_ledger(command):
        traced.append(command)
        return ledger(command)

    monkeypatch.setattr(run, "command_ledger", recording_ledger)
    result = bench(capsys, "--workload", workload, "--seed", "3", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in CONFIG["per_layer"]}
    for m in CONFIG["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert metrics["cmp.runs"] >= 1 and metrics["executor.points"] >= 1

    # The ledger closes: no layer's self time is negative, and the
    # residual is what the raw spans leave uncovered, never negative.
    for row in run.LEDGER_ROWS:
        assert metrics[row] >= 0, row
    residuals = [unattributed_s(command) for command in traced]
    assert min(residuals) >= 0
    iterations = len(traced) // len(run.WORKLOADS[workload].commands)
    assert metrics["ledger.residual_s"] == pytest.approx(sum(residuals) / iterations, rel=1e-9)
    assert 0 <= metrics["ledger.residual_share"] < 1


def test_untimed_run_prints_every_end_to_end_metric(capsys):
    result = bench(capsys, "--workload", "fig3-cold", "--seed", "0", "--trace", "0")
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    for m in CONFIG["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_wrong_digest_is_a_failed_operation(capsys):
    result = run.run_benchmark(
        "fig3-cold", 0, 0, False, scale=float(TINY), digests={"fig3": "0" * 64}
    )
    assert not result["correct"] and result["failed"] == 1
    err = capsys.readouterr().err
    assert "workload fig3-cold" in err and "repro fig3 --scale" in err
    assert "table digest" in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "fig3-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
