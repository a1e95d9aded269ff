"""Transitive determinism taint: hazards reached through call chains."""

from tests.analysis.conftest import findings_for

TRANSITIVE = "sim/transitive.py"
NUMPY = "sim/numpy_transitive.py"


def _transitive(report):
    # Transitive findings are the ones whose message carries a taint
    # path; direct findings say what the statement itself does.
    return [
        f
        for f in findings_for(report, "DET-WALLCLOCK", TRANSITIVE)
        if "transitively reaches" in f.message
    ]


def test_boundary_call_is_flagged_with_the_taint_path(fixture_report):
    found = _transitive(fixture_report)
    assert [f.line for f in found] == [13]
    message = found[0].message
    assert "call to `outer_helper`" in message
    # The hazard's true location, two frames down...
    assert "harness/clocky.py:19" in message
    # ...and the chain that reaches it.
    assert "via outer_helper -> inner_helper" in message


def test_only_the_tainted_step_is_flagged(fixture_report):
    # audited_step (suppressed hazard), exempt_step (telemetry/), and
    # clean_step must all stay silent: exactly one finding in the file.
    in_file = [
        f for f in fixture_report.findings if f.path == TRANSITIVE
    ]
    assert [f.line for f in in_file] == [13]


def test_audited_hazard_does_not_taint_callers(fixture_report):
    # The suppression sits on the hazard in harness/clocky.py; no
    # finding may anchor at audited_step's call site (line 19).
    assert not any(
        f.path == TRANSITIVE and f.line == 19
        for f in fixture_report.findings
    )


def test_out_of_scope_helpers_are_not_flagged_directly(fixture_report):
    # harness/ is outside the determinism scope: the hazards there feed
    # taint but never produce findings of their own.
    assert not any(
        f.path == "harness/clocky.py" for f in fixture_report.findings
    )


def test_numpy_rng_taints_callers(fixture_report):
    # The direct rule's numpy classifiers feed taint too: a global numpy
    # draw and an unseeded default_rng() each flag their one call site;
    # the seeded generator flags nothing.
    found = findings_for(fixture_report, "DET-RANDOM", NUMPY)
    assert [f.line for f in found] == [16, 21]
    assert "global numpy RNG `numpy.random.standard_normal`" in found[0].message
    assert "harness/numpy_draws.py:15 via jitter_sample" in found[0].message
    assert "unseeded default_rng() at harness/numpy_draws.py:20" in (
        found[1].message
    )
    assert {f.severity for f in found} == {"error"}
    assert [f.line for f in fixture_report.findings if f.path == NUMPY] == [
        16,
        21,
    ]


def test_disagreeing_candidates_are_not_flagged(fixture_report):
    # `sampler.read_sample()` links a tainted and a clean definition;
    # a flag needs every candidate tainted, whatever order they come in.
    assert not any(
        f.path == "sim/sampler_dispatch.py" for f in fixture_report.findings
    )


def test_live_tree_has_no_transitive_leaks(live_report):
    assert not any(
        "transitively reaches" in f.message for f in live_report.findings
    )
