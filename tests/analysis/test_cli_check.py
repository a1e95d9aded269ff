"""``repro check`` end-to-end: exit codes, formats, rule selection."""

import json

import pytest

from repro.analysis import validate_report_document
from repro.cli import main

from tests.analysis.conftest import FIXTURE_ROOT


def test_seeded_tree_fails_per_family(capsys):
    # One seeded violation per checker family must each trip the gate.
    for rule in ("DET-WALLCLOCK", "UNIT-MIXED", "DIM-MISMATCH"):
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


def test_rule_filter_unknown_id_raises():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        main(["check", "--root", str(FIXTURE_ROOT), "--rule", "NOPE"])


def test_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("DET-WALLCLOCK", "UNIT-MAGIC", "DIM-RETURN", "ALLOW-UNUSED"):
        assert rule in out


def test_parse_error_gates(tmp_path, capsys):
    tree = tmp_path / "sim"
    tree.mkdir()
    (tree / "broken.py").write_text("def f(:\n")
    assert main(["check", "--root", str(tmp_path)]) == 1
    assert "PARSE-ERROR" in capsys.readouterr().out
