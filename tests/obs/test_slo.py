"""SLO rules and the multi-window burn-rate alert state machine."""

import pytest

from repro.obs.events import EventJournal
from repro.obs.history import MetricsHistory
from repro.obs.slo import (
    DEFAULT_SLO_RULES,
    SloMonitor,
    SloRule,
    parse_slo_rule,
)


def history_with(points):
    """A samplerless history pre-loaded with (ts, {series: value}) rows."""
    history = MetricsHistory(sampler=None, clock=lambda: 0.0)
    for ts, values in points:
        history.record(values, now=float(ts))
    return history


class TestRuleParsing:
    def test_minimal_specs(self):
        rule = parse_slo_rule("availability:target=99.9%")
        assert rule.kind == "availability"
        assert rule.target == pytest.approx(0.999)
        assert rule.name == "availability"
        assert parse_slo_rule("p99:target=250ms").target == 250.0
        assert parse_slo_rule("cost_gb:target=0.05").target == 0.05

    def test_bare_percentage_and_windows_and_name(self):
        rule = parse_slo_rule("availability:target=99.5,fast=30s,slow=120s,name=api")
        assert rule.target == pytest.approx(0.995)
        assert rule.fast_s == 30.0
        assert rule.slow_s == 120.0
        assert rule.name == "api"

    @pytest.mark.parametrize(
        "spec,field,value",
        [
            ("availability:target=99.5,fast=500ms", "fast_s", 0.5),
            ("p99:target=0.25s", "target", 250.0),
            ("availability:target=99.5,fast=5m", "fast_s", 300.0),
            ("p99:target=250ms,fast=60,slow=300", "target", 250.0),
        ],
    )
    def test_durations_convert_to_the_field_unit(self, spec, field, value):
        assert getattr(parse_slo_rule(spec), field) == pytest.approx(value)

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus:target=1",
            "p99",
            "p99:target",
            "p99:target=250,weird=1",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_slo_rule(spec)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            SloRule(kind="p99", target=0.0)
        with pytest.raises(ValueError):
            SloRule(kind="p99", target=100.0, fast_s=0.0)
        with pytest.raises(ValueError):
            SloRule(kind="availability", target=1.0)  # must be a fraction < 1

    def test_defaults_cover_availability_and_latency(self):
        assert [r.kind for r in DEFAULT_SLO_RULES] == ["availability", "p99"]


class TestBurnRates:
    def test_availability_burn_is_error_rate_over_budget(self):
        # 1% windowed error rate against a 99.9% target (0.1% budget) = 10x.
        history = history_with([
            (0, {"requests.total": 0.0, "errors.total": 0.0}),
            (60, {"requests.total": 1000.0, "errors.total": 10.0}),
        ])
        monitor = SloMonitor(
            history, [SloRule(kind="availability", target=0.999, fast_s=100, slow_s=100)]
        )
        (state,) = monitor.evaluate(now=60.0)
        assert state["burn"]["fast"] == pytest.approx(10.0)

    def test_idle_windows_burn_zero(self):
        monitor = SloMonitor(history_with([]), DEFAULT_SLO_RULES)
        for state in monitor.evaluate(now=0.0):
            assert state["burn"] == {"fast": 0.0, "slow": 0.0}
            assert state["active"] is False

    def test_p99_burn_from_windowed_buckets(self):
        # All 100 observations in (0.25s, 0.5s] => windowed p99 ~0.5s
        # against a 250 ms target: burn ~2.
        history = history_with([
            (0, {"request.bucket.0.25": 0.0, "request.bucket.0.5": 0.0,
                 "request.bucket.inf": 0.0}),
            (60, {"request.bucket.0.25": 0.0, "request.bucket.0.5": 100.0,
                  "request.bucket.inf": 100.0}),
        ])
        monitor = SloMonitor(
            history, [SloRule(kind="p99", target=250.0, fast_s=100, slow_s=100)]
        )
        (state,) = monitor.evaluate(now=60.0)
        assert state["burn"]["fast"] > 1.0

    def test_cost_burn_is_mean_over_budget(self):
        history = history_with([
            (0, {"cost.per_gb_period": 0.10}),
            (60, {"cost.per_gb_period": 0.30}),
        ])
        monitor = SloMonitor(
            history, [SloRule(kind="cost_gb", target=0.05, fast_s=100, slow_s=100)]
        )
        (state,) = monitor.evaluate(now=60.0)
        assert state["burn"]["fast"] == pytest.approx(4.0)


class TestAlertStateMachine:
    def rule(self):
        return SloRule(kind="availability", target=0.999, fast_s=100, slow_s=100)

    def test_fire_needs_both_windows_then_resolves_on_fast(self):
        journal = EventJournal()
        history = history_with([
            (0, {"requests.total": 0.0, "errors.total": 0.0}),
            (50, {"requests.total": 100.0, "errors.total": 50.0}),
        ])
        monitor = SloMonitor(history, [self.rule()], journal=journal)
        (state,) = monitor.evaluate(now=50.0)
        assert state["active"] is True
        assert state["fired_at"] == 50.0
        assert [e["type"] for e in journal.query()] == ["alert.fired"]
        assert monitor.active_alerts()[0]["name"] == "availability"

        # Recovery: fast window goes clean.
        history.record({"requests.total": 300.0, "errors.total": 50.0}, now=140.0)
        history.record({"requests.total": 400.0, "errors.total": 50.0}, now=149.0)
        (state,) = monitor.evaluate(now=150.0)
        assert state["active"] is False
        assert state["resolved_at"] == 150.0
        assert state["fired_count"] == 1
        assert [e["type"] for e in journal.query()] == ["alert.fired", "alert.resolved"]
        assert monitor.active_alerts() == []

    def test_fast_blip_alone_does_not_fire(self):
        # Errors only within the last 10 s: fast window is hot, the slow
        # window (which saw the clean history too) is not.
        history = history_with([
            (0, {"requests.total": 0.0, "errors.total": 0.0}),
            (290, {"requests.total": 100000.0, "errors.total": 0.0}),
            (300, {"requests.total": 100100.0, "errors.total": 100.0}),
        ])
        rule = SloRule(kind="availability", target=0.999, fast_s=15, slow_s=310)
        monitor = SloMonitor(history, [rule])
        (state,) = monitor.evaluate(now=300.0)
        assert state["burn"]["fast"] >= rule.threshold
        assert state["burn"]["slow"] < rule.threshold
        assert state["active"] is False

    def test_to_dict_shape(self):
        monitor = SloMonitor(history_with([]), DEFAULT_SLO_RULES)
        doc = monitor.to_dict(now=0.0)
        assert {r["name"] for r in doc["rules"]} == {"availability", "p99"}
        assert len(doc["alerts"]) == 2
        assert doc["active"] == []
