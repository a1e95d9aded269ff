"""Dimensional analysis: the DIM-* rules and the unit algebra."""

from repro.analysis import dimensions
from repro.analysis.dimensions import (
    BOTTOM,
    TOP,
    Quantity,
    add_or_compare,
    join,
    multiply,
    power,
    quantity_for_suffix,
)

from tests.analysis.conftest import findings_for

BAD = "power/bad_dimensions.py"
OK = "power/ok_dimensions.py"


# ---------------------------------------------------------------- rules


def test_mismatch_flows_through_unsuffixed_locals(fixture_report):
    lines = {
        f.line: f.message
        for f in findings_for(fixture_report, "DIM-MISMATCH", BAD)
    }
    assert set(lines) == {26, 32}
    # W + s: invisible to the lexical checker, caught by dataflow.
    assert "different dimensions" in lines[26]
    assert "W" in lines[26] and "s" in lines[26]
    # GHz + Hz: same vector, mixed magnitudes.
    assert "mixed magnitudes" in lines[32]
    assert "1e+09" in lines[32]


def test_return_suffix_contract_is_enforced(fixture_report):
    returns = findings_for(fixture_report, "DIM-RETURN", BAD)
    assert len(returns) == 1
    assert "bogus_energy_j" in returns[0].message
    assert "`_j`" in returns[0].message


def test_fractional_exponent_is_flagged(fixture_report):
    exps = findings_for(fixture_report, "DIM-EXP", BAD)
    assert [f.line for f in exps] == [42]
    assert exps[0].severity == "warning"


def test_clean_idioms_stay_clean(fixture_report):
    for rule in ("DIM-MISMATCH", "DIM-RETURN", "DIM-EXP"):
        assert findings_for(fixture_report, rule, OK) == []


def test_live_tree_has_no_dim_findings(live_report):
    for rule in ("DIM-MISMATCH", "DIM-RETURN", "DIM-EXP", "DIM-ARG", "DIM-MAGIC"):
        assert findings_for(live_report, rule) == []


def test_units_module_is_exempt_from_magic(tmp_path):
    from repro.analysis import AnalysisOptions, analyze_tree

    body = "def to_ghz(frequency_hz):\n    return frequency_hz / 1e9\n"
    (tmp_path / "units.py").write_text(body)
    (tmp_path / "convert.py").write_text(body)
    report = analyze_tree(AnalysisOptions(root=tmp_path, rules=("DIM-MAGIC",)))
    assert [f.path for f in report.findings] == ["convert.py"]


# -------------------------------------------------------------- algebra


def test_power_times_time_unifies_with_energy():
    watts = quantity_for_suffix("w")
    seconds = quantity_for_suffix("s")
    joules = quantity_for_suffix("j")
    assert isinstance(watts, Quantity) and isinstance(joules, Quantity)
    product = multiply(watts, seconds)
    assert isinstance(product, Quantity)
    assert product.dims == joules.dims
    assert product.scale == joules.scale


def test_ed2p_compound_suffix_matches_energy_delay_squared():
    joules = quantity_for_suffix("j")
    seconds = quantity_for_suffix("s")
    squared, fractional = power(seconds, dimensions._Const(2.0))
    assert not fractional
    ed2p = multiply(joules, squared)
    declared = dimensions._suffix_of("ed2p_j_s2")
    assert isinstance(ed2p, Quantity) and isinstance(declared, Quantity)
    assert ed2p.dims == declared.dims


def test_compound_suffix_with_and_without_exponent():
    j_s = dimensions._suffix_of("energy_delay_j_s")
    assert isinstance(j_s, Quantity)
    assert j_s.describe().startswith("W·s^2")
    # A digit exponent multiplies the trailing token's vector.
    j_s2 = dimensions._suffix_of("ed2p_j_s2")
    assert isinstance(j_s2, Quantity)
    assert j_s2.describe().startswith("W·s^3")
    # A bare unit token alone is NOT a suffix ("w" the identifier).
    assert dimensions._suffix_of("w") is None


def test_fractional_exponent_reported_by_power():
    watts = quantity_for_suffix("w")
    result, fractional = power(watts, dimensions._Const(0.5))
    assert fractional
    assert result is TOP


def test_mixed_magnitude_sum_records_a_scale_mismatch():
    ghz = quantity_for_suffix("ghz")
    hz = quantity_for_suffix("hz")
    mismatches = []
    add_or_compare(ghz, hz, line=1, mismatches=mismatches)
    assert len(mismatches) == 1
    assert mismatches[0].kind == "scale"


def test_celsius_offset_converts_to_kelvin():
    celsius = quantity_for_suffix("c")
    kelvin = quantity_for_suffix("k")
    assert isinstance(celsius, Quantity) and isinstance(kelvin, Quantity)
    mismatches = []
    result = add_or_compare(
        celsius, dimensions._Offset(), line=1, mismatches=mismatches
    )
    assert mismatches == []
    assert isinstance(result, Quantity)
    assert result.dims == kelvin.dims


def test_join_is_a_least_upper_bound():
    watts = quantity_for_suffix("w")
    seconds = quantity_for_suffix("s")
    assert join(BOTTOM, watts) is watts
    assert join(watts, watts) == watts
    assert join(watts, seconds) is TOP
    assert join(TOP, watts) is TOP


def test_scale_constant_division_normalizes_to_dimensionless():
    joules = quantity_for_suffix("j")
    ratio = multiply(joules, joules, divide=True)
    assert isinstance(ratio, Quantity)
    assert ratio.dims == ()
    assert ratio.scale == 1.0
