"""Suffix-unit rules of the dimension pass: DIM-ARG, DIM-MAGIC, mixed units."""

import ast

from repro.analysis import dimensions
from repro.analysis.dimensions import Quantity, quantity_for_suffix, unit_of_name

from tests.analysis.conftest import findings_for

BAD = "power/bad_units.py"
OK = "power/ok_units.py"


def test_mixed_units_flagged(fixture_report):
    found = findings_for(fixture_report, "DIM-MISMATCH", BAD)
    by_line = {f.line: f.message for f in found}
    assert "different dimensions" in by_line[9]  # hz + s
    assert "mixed magnitudes" in by_line[13]  # hz < mhz


def test_mixed_units_flagged_outside_functions(fixture_report):
    found = findings_for(fixture_report, "DIM-MISMATCH", BAD)
    lines = {f.line: f.message for f in found}
    assert "outside any function" in lines[42]  # module body
    assert "outside any function" in lines[48]  # class body
    assert "W" in lines[48]


def test_mixed_units_flagged_in_every_directory(fixture_report):
    found = findings_for(fixture_report, "DIM-MISMATCH", "harness/report_units.py")
    assert [f.line for f in found] == [9]


def test_magic_constants_flagged(fixture_report):
    found = findings_for(fixture_report, "DIM-MAGIC", BAD)
    assert [f.line for f in found] == [17, 21]
    assert any("GIGA" in f.message for f in found)
    assert any("KILO" in f.message for f in found)  # 1000.0 matches by value


def test_call_site_mismatch_flagged(fixture_report):
    found = findings_for(fixture_report, "DIM-ARG", BAD)
    # Positional, keyword and keyword-only forms.
    assert [f.line for f in found] == [25, 29, 37]
    assert all("frequency_hz" in f.message for f in found)


def test_keyword_only_parameter_is_checked(fixture_report):
    found = findings_for(fixture_report, "DIM-ARG", BAD)
    assert any("`set_clock`" in f.message for f in found)


def test_positional_only_parameters_keep_argument_positions(fixture_report):
    # scale(a_hz, /, b_s) called as scale(clock_hz, wall_s) is correct.
    assert findings_for(fixture_report, "DIM-ARG", OK) == []


def test_clean_units_not_flagged(fixture_report):
    assert not [f for f in fixture_report.findings if f.path == OK]


def test_unit_of_name():
    assert unit_of_name("frequency_hz") == "hz"
    assert unit_of_name("wall_s") == "s"
    assert unit_of_name("die_area_m2") == "m2"
    assert unit_of_name("temperature_k") == "k"
    assert unit_of_name("ns") == "ns"  # bare multi-char token
    assert unit_of_name("s") is None  # bare single letters never match
    assert unit_of_name("plain_name") is None
    assert unit_of_name("hz_table") is None  # suffix position only


def _quantity_of(expression: str, index):
    ctx = dimensions._EvalContext(index=index, summaries={})
    return dimensions._eval(ast.parse(expression, mode="eval").body, {}, ctx)


def _is(value, suffix: str) -> bool:
    expected = quantity_for_suffix(suffix)
    assert expected is not None
    return isinstance(value, Quantity) and dimensions._compatible(value, expected)


def test_inference_through_expressions(fixture_index):
    def unit(expression):
        return _quantity_of(expression, fixture_index)

    assert _is(unit("frequency_hz"), "hz")
    assert _is(unit("chip.frequency_hz"), "hz")
    assert _is(unit("event['wall_s']"), "s")
    assert _is(unit("access_time_ns(geometry)"), "ns")
    assert _is(unit("-duration_us"), "us")
    assert _is(unit("rise_s + fall_s"), "s")
    assert unit("rise_s + fall_ms") is dimensions.TOP  # mixed: no single unit
    assert _is(unit("wall_s * 3"), "s")  # dimensionless scaling
    assert _is(unit("start_ns / 1000.0"), "us")  # a conversion converts
    assert _is(unit("start_ns / KILO"), "us")  # named conversion too
