"""Tests for the alert-rule engine over point rows."""

import pytest

from repro.telemetry.alerts import (
    DEFAULT_RULES,
    AlertRule,
    ChannelStats,
    RowStats,
    evaluate_rules,
)


def seeded_stats(*rows):
    """Row statistics folded from row dicts."""
    stats = RowStats()
    for row in rows:
        stats.observe(row)
    return stats


def field_rows(field, values, app="FMM"):
    """One single-field row per value, all of one application."""
    return [{"app": app, field: value} for value in values]


class TestAlertRule:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown alert rule kind"):
            AlertRule(name="x", kind="banana", field="c", threshold=1.0)


class TestChannelStats:
    def test_observe_tracks_min_max_mean_last(self):
        stats = ChannelStats()
        for value in (3.0, 1.0, 2.0):
            stats.observe(value)
        assert stats.to_dict() == {
            "count": 3,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
            "last": 2.0,
        }

    def test_empty_stats_mean_is_zero(self):
        assert ChannelStats().mean() == 0.0

    def test_row_stats_fold_numeric_fields_overall_and_per_app(self):
        stats = seeded_stats(
            {"app": "FMM", "n": 1, "total_power_w": 5.0, "flag": True},
            {"app": "FMM", "n": 2, "total_power_w": 9.0},
            {"app": "Radix", "n": 1, "total_power_w": 3.0},
            {},  # a failed point's row adds nothing
        )
        assert stats.points == 3
        assert sorted(stats.fields) == ["n", "total_power_w"]
        assert stats.fields["total_power_w"].count == 3
        assert stats.fields["total_power_w"].maximum == 9.0
        assert stats.apps["Radix"]["total_power_w"].minimum == 3.0
        block = stats.to_dict()
        assert block["points"] == 3
        assert block["fields"]["n"]["max"] == 2.0


class TestRuleKinds:
    def test_above_fires_at_and_over_threshold(self):
        rule = AlertRule(name="r", kind="above", field="c", threshold=10.0)
        assert not evaluate_rules(seeded_stats(*field_rows("c", [9.9])), [rule])
        (finding,) = evaluate_rules(
            seeded_stats(*field_rows("c", [4.0, 10.0])), [rule]
        )
        assert finding.rule == "r" and finding.value == 10.0

    def test_collapse_is_relative_and_needs_two_samples(self):
        rule = AlertRule(name="r", kind="collapse", field="c", threshold=2.0)
        # One row can't collapse against itself.
        assert not evaluate_rules(seeded_stats(*field_rows("c", [9.0])), [rule])
        assert not evaluate_rules(
            seeded_stats(*field_rows("c", [1.0, 2.0])), [rule]
        )
        (finding,) = evaluate_rules(
            seeded_stats(*field_rows("c", [1.0, 2.5])), [rule]
        )
        assert finding.value == 2.5

    def test_unsampled_channels_are_silently_skipped(self):
        rules = [
            AlertRule(name="a", kind="above", field="never", threshold=1.0),
            AlertRule(name="b", kind="collapse", field="never", threshold=2.0),
        ]
        assert evaluate_rules(seeded_stats(*field_rows("c", [99.0, 1.0])), rules) == []


class TestDefaultRules:
    def fired(self, stats):
        return {f.rule for f in evaluate_rules(stats, DEFAULT_RULES)}

    def test_quiet_run_fires_nothing(self):
        stats = seeded_stats(
            {"app": "FMM", "peak_temperature_c": 55.0, "total_power_w": 30.0,
             "average_cpi": 0.5},
            {"app": "FMM", "peak_temperature_c": 60.0, "total_power_w": 41.0,
             "average_cpi": 0.55},
        )
        assert self.fired(stats) == set()

    def test_thermal_ceiling_fires_on_a_seeded_violation(self):
        stats = seeded_stats(*field_rows("peak_temperature_c", [60.0, 97.3]))
        assert self.fired(stats) == {"thermal-ceiling"}

    def test_power_budget_fires_on_a_seeded_violation(self):
        stats = seeded_stats(*field_rows("total_power_w", [30.0, 65.0]))
        assert self.fired(stats) == {"power-budget"}

    def test_ipc_collapse_fires_past_the_optimal_thread_count(self):
        # IPC 2.5, 2.0, 0.9: the last point is under half the peak.
        stats = seeded_stats(*field_rows("average_cpi", [0.4, 0.5, 1 / 0.9]))
        assert self.fired(stats) == {"ipc-collapse"}

    def test_a_spread_across_apps_alone_stays_silent(self):
        # FMM's IPC runs 1.0-1.6 and Radix's 0.15-0.21: Radix sits
        # under half of FMM's peak, but neither collapses on its own.
        stats = seeded_stats(
            *field_rows("average_cpi", [1 / 1.6, 1 / 1.0], app="FMM"),
            *field_rows("average_cpi", [1 / 0.21, 1 / 0.15], app="Radix"),
        )
        assert self.fired(stats) == set()

    def test_a_collapse_within_one_app_fires(self):
        stats = seeded_stats(
            *field_rows("average_cpi", [1 / 1.6, 1 / 1.0], app="FMM"),
            *field_rows("average_cpi", [1 / 0.21, 1 / 0.08], app="Radix"),
        )
        (finding,) = evaluate_rules(stats, DEFAULT_RULES)
        assert finding.rule == "ipc-collapse"
        assert finding.value == pytest.approx(0.21 / 0.08)

    def test_findings_serialize_for_the_manifest(self):
        stats = seeded_stats(*field_rows("total_power_w", [65.0]))
        (finding,) = evaluate_rules(stats, DEFAULT_RULES)
        document = finding.to_dict()
        assert document["rule"] == "power-budget"
        assert document["field"] == "total_power_w"
        assert document["value"] == 65.0
        assert document["threshold"] == 60.0
