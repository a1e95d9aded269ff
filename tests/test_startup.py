"""Start-up cost guard: scipy is imported only by the leakage fit, and
``import repro.cli`` loads a bounded number of ``repro`` modules.

``scipy.optimize`` is most of ``import repro.cli``; fig1/fig2 and
``repro verify`` need it for the Eq. 3 fit, the experimental sweeps do
not.  Each check runs in a fresh interpreter, since this process may
already have imported scipy.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
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
#: loads; the package façades import eagerly, so every module a façade
#: re-exports counts.
MAX_CLI_MODULES = 61


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
