"""DET-* rules: positives in the seeded fixtures, negatives in the ok ones."""

from repro.analysis.determinism import DEFAULT_SCOPE, in_scope

from tests.analysis.conftest import findings_for

BAD = "sim/bad_determinism.py"
OK = "sim/ok_determinism.py"
NESTED = "sim/nested_hazards.py"
MODULE_SETS = "sim/module_sets.py"


def test_wallclock_reads_flagged(fixture_report):
    found = findings_for(fixture_report, "DET-WALLCLOCK", BAD)
    assert len(found) == 3
    assert {f.severity for f in found} == {"error"}
    messages = " ".join(f.message for f in found)
    assert "time" in messages and "perf_counter" in messages


def test_random_draws_flagged(fixture_report):
    found = findings_for(fixture_report, "DET-RANDOM", BAD)
    assert len(found) == 2
    assert any("random.random" in f.message for f in found)
    assert any("unseeded random.Random()" in f.message for f in found)


def test_set_iteration_flagged(fixture_report):
    found = findings_for(fixture_report, "DET-SET-ORDER", BAD)
    assert len(found) == 2  # annotated parameter + set-literal local


def test_float_sums_flagged(fixture_report):
    found = findings_for(fixture_report, "DET-FLOAT-SUM", BAD)
    assert len(found) == 2
    reasons = " ".join(f.message for f in found)
    assert "a set" in reasons and "dict view" in reasons


def test_nested_function_hazards_flagged_once(fixture_report):
    # The frame that runs a hazard reports it, not every frame around it.
    # Line 30 iterates a set local of the enclosing function.
    assert [
        f.line for f in findings_for(fixture_report, "DET-SET-ORDER", NESTED)
    ] == [10, 30]
    assert [
        f.line for f in findings_for(fixture_report, "DET-FLOAT-SUM", NESTED)
    ] == [20]


def test_module_level_set_seen_unless_shadowed(fixture_report):
    # Line 13 iterates a module-level set; a function that binds the
    # name itself (line 21) or a module-level list (line 28) is clean.
    assert [
        f.line for f in fixture_report.findings if f.path == MODULE_SETS
    ] == [13]


def test_clean_idioms_not_flagged(fixture_report):
    assert not [f for f in fixture_report.findings if f.path == OK]


def test_telemetry_is_out_of_scope(fixture_report):
    assert not [
        f for f in fixture_report.findings if f.path.startswith("telemetry/")
    ]


def test_scope_predicate():
    assert in_scope("sim/cpu.py")
    assert in_scope("power/wattch.py")
    assert in_scope("thermal/hotspot.py")
    assert in_scope("workloads/splash2.py")
    assert not in_scope("harness/executor.py")
    assert not in_scope("telemetry/trace.py")
    assert not in_scope("harness/profiling.py")
    assert DEFAULT_SCOPE == ("sim/", "power/", "thermal/", "workloads/")


def test_findings_carry_locations(fixture_report):
    for finding in findings_for(fixture_report, "DET-WALLCLOCK", BAD):
        assert finding.line > 0
        assert finding.location == f"{BAD}:{finding.line}"
        assert finding.snippet  # the offending source line travels along
