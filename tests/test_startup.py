"""Start-up cost guard: scipy is imported only by the leakage fit,
``import repro.cli`` loads a bounded number of ``repro`` modules,
``import repro.sim`` loads none of the simulator's submodules, and a
warm experimental replay imports no engine: neither numpy, the
analytical model, the simulator, the thermal model, the Wattch and
chip-power models nor the calibration microbenchmark (nor, untraced,
the telemetry manifest writer).

fig1/fig2 and ``repro verify`` need scipy for the Eq. 3 fit, the
experimental sweeps do not; a sweep replayed from the cache simulates
nothing and solves no thermal network, so it needs only the machine's
description (:mod:`repro.sim.config`), its keys, records and rows.
Each check runs in a fresh interpreter, since this process may already
have imported them.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main
from repro.tech import NODE_65NM, PhysicalLeakageModel, fit_leakage_curve

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCIPY_MODULES = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)


def _fresh(code, tmp_path):
    """Run ``code`` in a new interpreter; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy(tmp_path):
    code = f"import json, sys\nimport repro.cli\nprint(json.dumps({SCIPY_MODULES}))"
    assert _fresh(code, tmp_path) == []


#: Upper bound on the ``repro`` modules a fresh ``import repro.cli``
#: loads; the package façades load a re-exported name's module only when
#: the name is first used, so each command imports its own pipeline.
MAX_CLI_MODULES = 10


def test_import_cli_loads_a_bounded_number_of_modules(tmp_path):
    code = (
        "import json, sys\nimport repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    loaded = _fresh(code, tmp_path)
    assert len(loaded) <= MAX_CLI_MODULES, loaded


def test_experimental_sweeps_load_no_scipy(tmp_path):
    code = f"""
import json, sys
from repro.cli import main
loaded = {{}}
for argv in (
    ["fig3", "--apps", "FMM", "--scale", "0.01"],
    ["fig4", "--apps", "FMM", "--scale", "0.01"],
    ["characterize", "--scale", "0.01"],
):
    assert main(argv) == 0
    loaded[argv[0]] = {SCIPY_MODULES}
print(json.dumps(loaded))
"""
    assert _fresh(code, tmp_path) == {"fig3": [], "fig4": [], "characterize": []}


#: Modules a warm replay must not load: the numerical libraries (only a
#: simulation's thermal solve needs numpy), the analytical model, the
#: analyzer, every engine — the simulator, its compiler and the flat
#: program writer, the thermal model, the Wattch and chip-power models and the calibration
#: microbenchmark — and, without ``--telemetry-dir``, the run-manifest
#: writer and its alert rules (the ``--cache`` journal only writes, so
#: it needs neither).
WARM_FORBIDDEN_MODULES = (
    "repro.core",
    "repro.analysis",
    "repro.thermal",
    "repro.telemetry.manifest",
    "repro.telemetry.alerts",
    "repro.power.wattch",
    "repro.power.chippower",
    "repro.workloads.microbench",
    "repro.workloads.writer",
    *(
        f"repro.sim.{engine}"
        for engine in ("cmp", "cpu", "cache", "coherence", "bus", "memory", "clock", "ops")
    ),
)
WARM_FORBIDDEN = (
    "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')"
    f" or m in {WARM_FORBIDDEN_MODULES!r}"
    " or m.startswith(('repro.core.', 'repro.analysis.', 'repro.thermal.')))"
)


def test_warm_replay_loads_no_numpy_and_no_analytical_model(tmp_path):
    cache = str(tmp_path / "cache")
    commands = (["fig3", "--apps", "FMM"], ["fig4", "--apps", "FMM"], ["characterize"])
    for argv in commands:
        assert main([*argv, "--scale", "0.01", "--cache", cache]) == 0
    code = f"""
import contextlib, io, json, sys
from repro.cli import main
loaded = {{}}
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--scale", "0.01", "--cache", {cache!r}]) == 0
    assert "[executor] 0 evaluated" in out.getvalue(), out.getvalue()
    loaded[argv[0]] = {WARM_FORBIDDEN}
print(json.dumps(loaded))
"""
    assert _fresh(code, tmp_path) == {"fig3": [], "fig4": [], "characterize": []}


def test_import_sim_loads_no_submodule_and_keeps_its_names(tmp_path):
    code = """
import json, sys
import repro.sim
loaded = sorted(m for m in sys.modules if m.startswith('repro.sim.'))
from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim import ops
print(json.dumps([loaded, ChipMultiprocessor.__module__, CMPConfig.__module__,
                  ops.compile_workload.__module__]))
"""
    assert _fresh(code, tmp_path) == [
        [],
        "repro.sim.cmp",
        "repro.sim.config",
        "repro.sim.ops",
    ]


def test_leakage_fit_still_imports_scipy_and_fits_the_same(tmp_path):
    code = f"""
import dataclasses, json, sys
from repro.tech import NODE_65NM, PhysicalLeakageModel, fit_leakage_curve
before = {SCIPY_MODULES}
fit = fit_leakage_curve(PhysicalLeakageModel(NODE_65NM))
print(json.dumps([before, "scipy.optimize" in sys.modules,
                  [v.hex() for v in dataclasses.astuple(fit)]]))
"""
    before, imported, fields = _fresh(code, tmp_path)
    assert before == [] and imported
    fit = fit_leakage_curve(PhysicalLeakageModel(NODE_65NM))
    assert fields == [value.hex() for value in dataclasses.astuple(fit)]
