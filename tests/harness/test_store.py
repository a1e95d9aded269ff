"""Tests for the JSON results store."""

import json

import pytest

from repro.core.sweeps import Figure1Row, Figure2Row
from repro.errors import ConfigurationError
from repro.harness.profiling import SimPointRow
from repro.harness.scenario1 import Scenario1Row
from repro.harness.scenario2 import Scenario2Row
from repro.harness.store import SCHEMA_VERSION, load_results, save_results


def sample_rows():
    return {
        "fig3": [
            Scenario1Row(
                app="FMM",
                n=4,
                nominal_efficiency=0.85,
                actual_speedup=1.2,
                normalized_power=0.45,
                normalized_power_density=0.12,
                average_temperature_c=48.5,
                frequency_hz=0.9e9,
                voltage=0.73,
                total_power_w=4.0,
            )
        ],
        "fig4": [
            Scenario2Row(
                app="Radix",
                n=8,
                nominal_speedup=6.5,
                actual_speedup=6.5,
                frequency_hz=3.2e9,
                voltage=1.1,
                power_w=12.0,
                budget_w=17.2,
            )
        ],
    }


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        path = tmp_path / "campaign.json"
        original = sample_rows()
        save_results(original, path)
        loaded = load_results(path)
        assert loaded == original

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "c.json"
        save_results(sample_rows(), path)
        document = json.loads(path.read_text())
        assert document["schema"] == SCHEMA_VERSION
        assert set(document["groups"]) == {"fig3", "fig4"}

    def test_saved_campaigns_record_their_provenance(self, tmp_path):
        from repro.telemetry.manifest import git_sha

        path = tmp_path / "c.json"
        save_results(sample_rows(), path)
        document = json.loads(path.read_text())
        assert document["provenance"] == {"git_sha": git_sha()}
        # Provenance is metadata only; loading still round-trips the rows.
        assert load_results(path) == sample_rows()

    def test_sweep_and_profiling_row_types_round_trip(self, tmp_path):
        campaign = {
            "fig1": [
                Figure1Row(
                    technology="65nm",
                    n=8,
                    eps_n=0.8,
                    normalized_power=0.35,
                    frequency_hz=0.5e9,
                    voltage=0.75,
                    voltage_floored=False,
                )
            ],
            "fig2": [
                Figure2Row(
                    technology="130nm",
                    n=4,
                    eps_n=1.0,
                    speedup=3.1,
                    regime="voltage-scaling",
                    frequency_hz=2.4e9,
                    voltage=1.2,
                )
            ],
            "profile": [
                SimPointRow(
                    app="Ocean",
                    n=16,
                    frequency_hz=3.2e9,
                    voltage=1.1,
                    execution_time_ps=123456,
                    total_power_w=40.0,
                    core_power_density_w_m2=3.2e5,
                    average_temperature_c=55.0,
                    peak_temperature_c=56.0,
                    average_cpi=1.4,
                    l1_miss_rate=0.06,
                    memory_stall_fraction=0.45,
                    bus_utilisation=0.6,
                )
            ],
        }
        path = tmp_path / "sweep.json"
        save_results(campaign, path)
        assert load_results(path) == campaign


class TestDeterminism:
    def test_groups_are_saved_and_loaded_sorted(self, tmp_path):
        rows = sample_rows()
        scrambled = {
            name: rows[name] for name in ("fig4", "fig3")
        }
        path = tmp_path / "c.json"
        save_results(scrambled, path)
        document = json.loads(path.read_text())
        assert list(document["groups"]) == sorted(rows)
        assert list(load_results(path)) == sorted(rows)

    def test_identical_campaigns_produce_identical_bytes(self, tmp_path):
        rows = sample_rows()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_results(rows, first)
        save_results(dict(reversed(list(rows.items()))), second)
        assert first.read_bytes() == second.read_bytes()


class TestValidation:
    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ConfigurationError):
            load_results(path)

    def test_reads_older_schemas_entry_by_entry(self, tmp_path):
        # Schema 1 predates SimPointRow.peak_temperature_c: its other
        # rows still load, and a simpoint row without the field is refused.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"schema": 1, "groups": {}}))
        assert load_results(path) == {}
        simpoint = {
            "app": "Ocean", "n": 16, "frequency_hz": 3.2e9, "voltage": 1.1,
            "execution_time_ps": 1, "total_power_w": 40.0,
            "core_power_density_w_m2": 1.0, "average_temperature_c": 55.0,
            "average_cpi": 1.4, "l1_miss_rate": 0.06,
            "memory_stall_fraction": 0.45, "bus_utilisation": 0.6,
        }
        path.write_text(
            json.dumps(
                {"schema": 1, "groups": {"g": [{"type": "simpoint", "data": simpoint}]}}
            )
        )
        with pytest.raises(ConfigurationError, match="peak_temperature_c"):
            load_results(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 999, "groups": {}}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_results(path)

    def test_wrong_schema_error_names_file_and_versions(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 999, "groups": {}}))
        with pytest.raises(ConfigurationError) as excinfo:
            load_results(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "999" in message
        assert str(SCHEMA_VERSION) in message

    def test_not_json_error_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ truncated")
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_results(path)

    def test_rejects_malformed_groups_section(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION, "groups": [1, 2]}))
        with pytest.raises(ConfigurationError, match="groups"):
            load_results(path)

    def test_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "groups": {
                        "g": [{"type": "scenario2", "data": {"bogus": 1}}]
                    },
                }
            )
        )
        with pytest.raises(ConfigurationError):
            load_results(path)

    def test_rejects_unknown_row_type(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "groups": {"g": [{"type": "mystery", "data": {}}]},
                }
            )
        )
        with pytest.raises(ConfigurationError):
            load_results(path)

    def test_rejects_unsupported_row_objects(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_results({"g": [object()]}, tmp_path / "x.json")
