"""Shared fixtures for the figure-regeneration benchmarks.

The experimental benchmarks share one :class:`ExperimentContext` (its
construction runs the Section 3.3 calibration microbenchmark).  The
``workload_scale`` trades fidelity for wall-clock time; 0.5 keeps every
behavioural signature intact while the full Figure 3 pipeline finishes
in a couple of minutes.
"""

from pathlib import Path

import pytest

from repro.harness import ExperimentContext

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


@pytest.fixture(scope="session")
def experiment_context():
    return ExperimentContext(workload_scale=0.5)


@pytest.fixture(scope="session")
def experiments_section():
    """The text of one ``## `` section of EXPERIMENTS.md, by heading."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")

    def section(heading):
        start = text.index(heading)
        end = text.find("\n## ", start + len(heading))
        return text[start:] if end < 0 else text[start:end]

    return section
