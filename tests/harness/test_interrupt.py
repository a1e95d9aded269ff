"""Regression tests: Ctrl-C must never leak sweep worker processes.

Each test launches a real coordinator process that starts a sweep whose
points block for a minute, waits until worker processes have announced
themselves, sends the coordinator a ``SIGINT``, and then asserts that
every worker pid is gone — i.e. the executor tore its children down
before letting ``KeyboardInterrupt`` propagate.  Both farm flavours are
covered: the plain one, where bugs propagate, and the resilient one,
where bugs are captured and retried.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

# The coordinator script: argv = [mark_dir, mode].  Workers drop a
# pid-named marker file before blocking, so the test knows both that the
# sweep is underway and which pids must die with it.
COORDINATOR = """
import os, sys, time

mark_dir, mode = sys.argv[1], sys.argv[2]

def slow(point):
    with open(os.path.join(mark_dir, str(os.getpid())), "w") as handle:
        handle.write(str(point))
    time.sleep(60)
    return point

from repro.harness.executor import RetryPolicy, SweepExecutor

if mode == "plain":
    executor = SweepExecutor(jobs=2)
else:
    executor = SweepExecutor(
        jobs=2, retry=RetryPolicy(max_retries=1, point_timeout_s=120)
    )
try:
    executor.map(slow, list(range(8)))
except KeyboardInterrupt:
    os._exit(43)
os._exit(0)
"""


def _wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout_s}s waiting for {what}")


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


@pytest.mark.parametrize("mode", ["plain", "farm"])
def test_sigint_kills_all_workers(tmp_path, mode):
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR, str(tmp_path), mode],
        env=env,
    )
    try:
        # Both workers must be mid-point before we interrupt.
        _wait_for(
            lambda: len(list(tmp_path.iterdir())) >= 2,
            timeout_s=30,
            what="worker marker files",
        )
        worker_pids = [int(p.name) for p in tmp_path.iterdir()]
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 43

        # The coordinator is dead; its workers must not have outlived
        # it.  (A leaked worker would keep sleeping for the full 60s.)
        _wait_for(
            lambda: not any(_alive(pid) for pid in worker_pids),
            timeout_s=10,
            what=f"worker pids {worker_pids} to exit",
        )
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
