"""SLO specs, checks, and baseline diffs.

The contracts under test:

* spec parsing rejects malformed rules loudly (no silent skips),
* ``worst`` aggregation resolves to the bound's conservative side,
* instrument selectors reach embedded canonical metrics blocks and
  respect label + block filters,
* a selector matching nothing is a *failed* verdict,
* ``diff_payloads`` flags only bad-direction moves past tolerance, with
  direction inferred from the metric name.
"""

import pytest

from repro.common.errors import ConfigError
from repro.metrics import MetricsRegistry, metrics_block
from repro.slo import (
    SLORule,
    SLOSpec,
    diff_payloads,
    evaluate,
    parse_tolerance,
    resolve_metric,
)


class TestSpecParsing:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[slo]]\nname = "p99"\nmetric = "latency.p99"\nmax = 45.0\n'
            '[[slo]]\nmetric = "hits"\nmin = 1\nagg = "sum"\n'
        )
        spec = SLOSpec.from_file(path)
        assert [rule.display_name for rule in spec.rules] == ["p99", "hits"]
        assert spec.rules[0].max == 45.0
        assert spec.rules[1].agg == "sum"

    def test_json_spec_also_loads(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"slo": [{"metric": "m", "min": 0.5}]}')
        assert SLOSpec.from_file(path).rules[0].min == 0.5

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"metric": "m"}, "min.*or.*max"),
            ({"min": 1.0}, "metric"),
            ({"metric": "m", "min": 1.0, "agg": "median"}, "agg"),
            ({"metric": "m", "min": "fast"}, "number"),
            ({"metric": "m", "min": 1.0, "bogus": 1}, "unknown"),
        ],
    )
    def test_bad_rules_rejected(self, data, match):
        with pytest.raises(ConfigError, match=match):
            SLORule.from_data(data)

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            SLOSpec.from_data({"slo": []})


class TestResolveAndEvaluate:
    PAYLOAD = {
        "report": {"latency": {"p99": 7.0}},
        "points": [
            {"result": {"report": {"latency": {"p99": 3.0}}}},
            {"result": {"report": {"latency": {"p99": 9.0}}}},
        ],
    }

    def test_direct_path_wins_over_points(self):
        rule = SLORule(metric="report.latency.p99", max=10.0)
        assert resolve_metric(self.PAYLOAD, rule) == [
            ("report.latency.p99", 7.0)
        ]

    def test_sweep_points_fan_out(self):
        points = {"points": self.PAYLOAD["points"]}
        rule = SLORule(metric="report.latency.p99", max=10.0)
        assert [v for _w, v in resolve_metric(points, rule)] == [3.0, 9.0]

    def test_worst_resolves_per_bound(self):
        points = {"points": self.PAYLOAD["points"]}
        upper = evaluate(SLORule(metric="report.latency.p99", max=5.0), points)
        assert upper[0].agg == "max" and upper[0].value == 9.0
        assert not upper[0].ok
        lower = evaluate(SLORule(metric="report.latency.p99", min=1.0), points)
        assert lower[0].agg == "min" and lower[0].value == 3.0
        assert lower[0].ok

    def test_both_bounds_yield_two_verdicts(self):
        verdicts = evaluate(
            SLORule(metric="report.latency.p99", min=1.0, max=5.0),
            {"points": self.PAYLOAD["points"]},
        )
        assert [v.bound for v in verdicts] == ["min", "max"]
        assert [v.ok for v in verdicts] == [True, False]

    def test_missing_metric_is_a_failed_verdict(self):
        verdicts = evaluate(SLORule(metric="gone", min=1.0), self.PAYLOAD)
        assert len(verdicts) == 1
        assert not verdicts[0].ok
        assert verdicts[0].n == 0 and verdicts[0].value is None

    def _block_payload(self):
        reg = MetricsRegistry()
        reg.declare("hits_total", "counter", "Hits", labels=("node",))
        reg.inc("hits_total", 3, node="c0")
        reg.inc("hits_total", 5, node="c1")
        return {
            "report": {
                "squirrel": {"metrics": metrics_block(reg)},
            }
        }

    def test_instrument_selector_sums_samples(self):
        payload = self._block_payload()
        verdicts = evaluate(
            SLORule(metric="hits_total", agg="sum", min=8.0), payload
        )
        assert verdicts[0].ok and verdicts[0].value == 8.0
        assert verdicts[0].n == 2

    def test_instrument_label_filter(self):
        payload = self._block_payload()
        rule = SLORule(metric="hits_total{node=c1}", min=4.0)
        matches = resolve_metric(payload, rule)
        assert [v for _w, v in matches] == [5.0]

    def test_block_filter_skips_other_sides(self):
        payload = self._block_payload()
        rule = SLORule(metric="hits_total", block="baseline", min=1.0)
        assert resolve_metric(payload, rule) == []


class TestDiff:
    def test_parse_tolerance_forms(self):
        assert parse_tolerance("5%") == pytest.approx(0.05)
        assert parse_tolerance("0.25") == 0.25
        assert parse_tolerance(0.1) == 0.1
        with pytest.raises(ConfigError):
            parse_tolerance("lots")
        with pytest.raises(ConfigError):
            parse_tolerance("-1%")

    def test_directions_drive_regression_flags(self):
        old = {"events_per_s": 100.0, "elapsed_s": 1.0, "n_vms": 10}
        new = {"events_per_s": 50.0, "elapsed_s": 2.0, "n_vms": 20}
        entries = {e.path: e for e in diff_payloads(old, new, tolerance=0.1)}
        assert entries["events_per_s"].regression  # throughput halved
        assert entries["elapsed_s"].regression  # wall time doubled
        assert not entries["n_vms"].regression  # neutral: informational
        assert entries["n_vms"].direction == "neutral"

    def test_hit_rate_and_ratio_are_higher_better(self):
        old = {"victim": {"hit_rate": 0.8}, "pool": {"dedup_ratio": 3.0}}
        new = {"victim": {"hit_rate": 0.4}, "pool": {"dedup_ratio": 1.5}}
        entries = {e.path: e for e in diff_payloads(old, new, tolerance=0.1)}
        assert entries["victim.hit_rate"].direction == "higher"
        assert entries["victim.hit_rate"].regression  # isolation halved
        assert entries["pool.dedup_ratio"].direction == "higher"
        assert entries["pool.dedup_ratio"].regression
        # and the inverse move is an improvement, not a regression
        gains = {e.path: e for e in diff_payloads(new, old, tolerance=0.1)}
        assert gains["victim.hit_rate"].improvement
        assert gains["pool.dedup_ratio"].improvement

    def test_improvements_are_not_regressions(self):
        old = {"events_per_s": 100.0, "rss_bytes": 1000.0}
        new = {"events_per_s": 200.0, "rss_bytes": 500.0}
        entries = diff_payloads(old, new, tolerance=0.1)
        assert entries and all(e.improvement for e in entries)

    def test_within_tolerance_is_silent(self):
        old = {"events_per_s": 100.0}
        assert diff_payloads(old, {"events_per_s": 104.0}, tolerance=0.05) == []

    def test_one_sided_paths_are_ignored(self):
        old = {"events_per_s": 100.0}
        new = {"events_per_s": 100.0, "new_metric_s": 9.0}
        assert diff_payloads(old, new, tolerance=0.01) == []

    def test_metric_filter_limits_scope(self):
        old = {"a_per_s": 100.0, "b_per_s": 100.0}
        new = {"a_per_s": 10.0, "b_per_s": 10.0}
        entries = diff_payloads(old, new, tolerance=0.1, metrics=["a_per_s"])
        assert [e.path for e in entries] == ["a_per_s"]

    def test_regressions_sort_first(self):
        old = {"z_per_s": 100.0, "a_latency": 1.0}
        new = {"z_per_s": 10.0, "a_latency": 0.1}
        entries = diff_payloads(old, new, tolerance=0.1)
        assert entries[0].path == "z_per_s" and entries[0].regression
