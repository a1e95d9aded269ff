"""The JSON report document and its schema validator."""

import json

from repro.analysis import (
    REPORT_SCHEMA,
    Finding,
    validate_report_document,
)


def test_fixture_report_document_is_valid(fixture_report):
    document = fixture_report.to_document()
    assert validate_report_document(document) == []
    assert document["schema"] == REPORT_SCHEMA
    assert document["finding_count"] == len(document["findings"])
    assert document["finding_count"] > 0  # the fixtures seed violations


def test_document_round_trips_through_json(fixture_report):
    document = json.loads(json.dumps(fixture_report.to_document()))
    assert validate_report_document(document) == []
    rebuilt = [Finding(**raw) for raw in document["findings"]]
    assert tuple(rebuilt) == fixture_report.findings


def test_validator_rejects_missing_keys(fixture_report):
    document = fixture_report.to_document()
    del document["findings"]
    problems = validate_report_document(document)
    assert any("findings" in p for p in problems)


def test_validator_rejects_bad_types(fixture_report):
    document = fixture_report.to_document()
    document["file_count"] = "many"
    assert any("file_count" in p for p in validate_report_document(document))


def test_validator_rejects_unknown_rule(fixture_report):
    document = fixture_report.to_document()
    document["findings"][0]["rule"] = "NOT-A-RULE"
    assert any("NOT-A-RULE" in p for p in validate_report_document(document))


def test_validator_rejects_count_mismatch(fixture_report):
    document = fixture_report.to_document()
    document["finding_count"] += 1
    assert any("finding_count" in p for p in validate_report_document(document))


def test_findings_sorted_deterministically(fixture_report):
    assert list(fixture_report.findings) == sorted(fixture_report.findings)
