"""``repro check`` end-to-end: exit codes, formats, rule selection."""

import json

import pytest

from repro.analysis import validate_report_document
from repro.cli import main

from tests.analysis.conftest import FIXTURE_ROOT


def test_seeded_tree_fails_per_family(capsys):
    # One seeded violation per checker family must each trip the gate.
    for rule in ("DET-WALLCLOCK", "DIM-ARG", "DIM-MISMATCH"):
        code = main(["check", "--root", str(FIXTURE_ROOT), "--rule", rule])
        out = capsys.readouterr().out
        assert code == 1, f"{rule} did not gate"
        assert rule in out


def test_shipped_tree_exits_zero(capsys):
    assert main(["check"]) == 0
    assert " 0 findings" in capsys.readouterr().out


def test_json_format_validates(capsys):
    code = main(["check", "--root", str(FIXTURE_ROOT), "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert validate_report_document(document) == []
    assert document["finding_count"] > 0


#: Every (path, line) the fixture tree flagged before the unit checkers
#: merged, with the rule that flagged it then.  Each must stay flagged.
PINNED_FIXTURE_LINES = (
    ("power/bad_dimensions.py", 26, "DIM-MISMATCH"),
    ("power/bad_dimensions.py", 32, "DIM-MISMATCH"),
    ("power/bad_dimensions.py", 35, "DIM-RETURN"),
    ("power/bad_dimensions.py", 42, "DIM-EXP"),
    ("power/bad_units.py", 9, "DIM-MISMATCH"),
    ("power/bad_units.py", 9, "UNIT-MIXED"),
    ("power/bad_units.py", 13, "DIM-MISMATCH"),
    ("power/bad_units.py", 13, "UNIT-MIXED"),
    ("power/bad_units.py", 17, "UNIT-MAGIC"),
    ("power/bad_units.py", 21, "UNIT-MAGIC"),
    ("power/bad_units.py", 25, "UNIT-ARG"),
    ("power/bad_units.py", 29, "UNIT-ARG"),
    ("sim/bad_determinism.py", 9, "DET-WALLCLOCK"),
    ("sim/bad_determinism.py", 10, "DET-WALLCLOCK"),
    ("sim/bad_determinism.py", 11, "DET-WALLCLOCK"),
    ("sim/bad_determinism.py", 16, "DET-RANDOM"),
    ("sim/bad_determinism.py", 17, "DET-RANDOM"),
    ("sim/bad_determinism.py", 23, "DET-SET-ORDER"),
    ("sim/bad_determinism.py", 26, "DET-SET-ORDER"),
    ("sim/bad_determinism.py", 32, "DET-FLOAT-SUM"),
    ("sim/bad_determinism.py", 33, "DET-FLOAT-SUM"),
    ("sim/clock_alias.py", 8, "DET-WALLCLOCK"),
    ("sim/module_sets.py", 13, "DET-SET-ORDER"),
    ("sim/nested_hazards.py", 10, "DET-SET-ORDER"),
    ("sim/nested_hazards.py", 20, "DET-FLOAT-SUM"),
    ("sim/nested_hazards.py", 30, "DET-SET-ORDER"),
    ("sim/numpy_transitive.py", 16, "DET-RANDOM"),
    ("sim/numpy_transitive.py", 21, "DET-RANDOM"),
    ("sim/stale_allow.py", 8, "ALLOW-UNUSED"),
    ("sim/transitive.py", 13, "DET-WALLCLOCK"),
)


def test_fixture_coverage_is_pinned(capsys):
    main(["check", "--root", str(FIXTURE_ROOT), "--format", "json"])
    document = json.loads(capsys.readouterr().out)
    flagged = {(f["path"], f["line"]) for f in document["findings"]}
    missing = [
        (path, line, rule)
        for path, line, rule in PINNED_FIXTURE_LINES
        if (path, line) not in flagged
    ]
    assert missing == []
    assert document["suppressed_count"] == 7


def test_rule_filter_unknown_id_raises():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        main(["check", "--root", str(FIXTURE_ROOT), "--rule", "NOPE"])


def test_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("DET-WALLCLOCK", "DIM-MAGIC", "DIM-RETURN", "ALLOW-UNUSED"):
        assert rule in out


def test_parse_error_gates(tmp_path, capsys):
    tree = tmp_path / "sim"
    tree.mkdir()
    (tree / "broken.py").write_text("def f(:\n")
    assert main(["check", "--root", str(tmp_path)]) == 1
    assert "PARSE-ERROR" in capsys.readouterr().out
