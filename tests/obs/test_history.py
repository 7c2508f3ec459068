"""Metric time-series ring: sampling cadence, windows, rates, quantiles."""

import threading

import pytest

from repro.core.broker import Scalia
from repro.obs.history import MetricsHistory


def make(interval=10.0, **kw):
    """A history with a fake clock and a controllable sampler."""
    state = {"now": 1000.0, "values": {}}
    history = MetricsHistory(
        sampler=lambda: dict(state["values"]),
        interval_s=interval,
        clock=lambda: state["now"],
        **kw,
    )
    return history, state


class TestSampling:
    def test_interval_guard(self):
        history, state = make(interval=10.0)
        state["values"] = {"a": 1.0}
        assert history.maybe_sample() is True
        assert history.maybe_sample() is False  # same instant
        state["now"] += 9.9
        assert history.maybe_sample() is False  # interval not elapsed
        state["now"] += 0.2
        assert history.maybe_sample() is True
        assert history.stats()["samples_taken"] == 2

    def test_force_bypasses_interval(self):
        history, state = make(interval=10.0)
        assert history.maybe_sample() is True
        assert history.maybe_sample(force=True) is True

    def test_sampler_error_is_counted_and_consumes_the_slot(self):
        calls = []

        def broken():
            calls.append(1)
            raise RuntimeError("collector bug")

        history = MetricsHistory(sampler=broken, interval_s=10.0, clock=lambda: 5.0)
        assert history.maybe_sample() is False
        assert history.maybe_sample() is False  # slot consumed, no retry storm
        assert len(calls) == 1
        assert history.stats()["sampler_errors"] == 1

    def test_disabled_or_samplerless_never_samples(self):
        history, _ = make()
        history.enabled = False
        assert history.maybe_sample() is False
        assert MetricsHistory(sampler=None).maybe_sample() is False

    def test_capacity_bounds_the_ring(self):
        history = MetricsHistory(sampler=None, capacity=3, clock=lambda: 0.0)
        for i in range(6):
            history.record({"a": float(i)}, now=float(i))
        assert [v for _, v in history.series("a")] == [3.0, 4.0, 5.0]

    def test_nested_maybe_sample_from_inside_the_sampler_is_safe(self):
        # The broker's sampler renders the registry, whose collectors call
        # maybe_sample again — the claimed slot must stop the recursion.
        history = MetricsHistory(interval_s=10.0, clock=lambda: 50.0)
        inner = []

        def sampler():
            inner.append(history.maybe_sample())
            return {"a": 1.0}

        history._sampler = sampler
        assert history.maybe_sample() is True
        assert inner == [False]


class TestScrapeSamples:
    """A scrape with a history sample due samples what it collected."""

    def test_one_scrape_runs_each_collector_once(self):
        broker = Scalia()
        try:
            runs = []
            broker.metrics.add_collector(lambda: runs.append(1))
            assert broker.history.snapshots() == []  # a sample is due
            broker.metrics.render_text()
            assert len(runs) == 1
            # and the scrape took the sample, from its own snapshot
            assert len(broker.history.snapshots()) == 1
            assert "requests.total" in broker.history.snapshots()[0][1]
        finally:
            broker.close()

    def test_a_sample_outside_a_scrape_runs_each_collector_once(self):
        broker = Scalia()
        try:
            runs = []
            broker.metrics.add_collector(lambda: runs.append(1))
            assert broker.history.maybe_sample() is True
            assert len(runs) == 1
            assert len(broker.history.snapshots()) == 1
        finally:
            broker.close()


class TestQueries:
    def test_series_and_window(self):
        history, _ = make()
        for ts in (0.0, 100.0, 200.0, 300.0):
            history.record({"a": ts}, now=ts)
        assert history.series("a") == [(0.0, 0.0), (100.0, 100.0), (200.0, 200.0), (300.0, 300.0)]
        assert history.series("a", window_s=150.0) == [(200.0, 200.0), (300.0, 300.0)]
        assert history.latest("a") == 300.0
        assert history.latest("missing") is None
        assert history.names() == ["a"]

    def test_delta_is_restart_safe(self):
        history, _ = make()
        for ts, v in ((0, 10.0), (10, 25.0), (20, 5.0), (30, 12.0)):
            history.record({"c": v}, now=float(ts))
        # 10→25 (+15), 25→5 (restart, skipped), 5→12 (+7)
        assert history.delta("c", window_s=1000.0) == pytest.approx(22.0)

    def test_rate_divides_by_span(self):
        history, _ = make()
        history.record({"c": 0.0}, now=0.0)
        history.record({"c": 50.0}, now=100.0)
        assert history.rate("c", window_s=1000.0) == pytest.approx(0.5)
        assert history.rate("c", window_s=0.0) is None

    def test_quantile_from_windowed_bucket_deltas(self):
        history, _ = make()
        # Cumulative buckets at two instants; the window saw 100 obs all
        # in the <=0.1 bucket (first snapshot had 0 everywhere).
        history.record(
            {"b.0.05": 0.0, "b.0.1": 0.0, "b.inf": 0.0}, now=0.0
        )
        history.record(
            {"b.0.05": 0.0, "b.0.1": 100.0, "b.inf": 100.0}, now=10.0
        )
        p99 = history.quantile("b.", 0.99, window_s=100.0)
        assert p99 is not None
        assert 0.05 <= p99 <= 0.1

    def test_quantile_none_when_idle_window(self):
        history, _ = make()
        history.record({"b.1.0": 5.0, "b.inf": 5.0}, now=0.0)
        history.record({"b.1.0": 5.0, "b.inf": 5.0}, now=10.0)
        assert history.quantile("b.", 0.99, window_s=100.0) is None

    def test_to_dict_filters_exact_and_dot_prefix(self):
        history, _ = make()
        history.record({"req.a": 1.0, "req.b": 2.0, "other": 3.0}, now=0.0)
        doc = history.to_dict()
        assert set(doc["series"]) == {"req.a", "req.b", "other"}
        assert doc["snapshots"] == 1
        assert set(history.to_dict(series="req.")["series"]) == {"req.a", "req.b"}
        assert set(history.to_dict(series="other")["series"]) == {"other"}

    def test_concurrent_record_and_read(self):
        history = MetricsHistory(sampler=None, capacity=64)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    history.to_dict(window_s=10.0)
                    history.names()
                    history.delta("a", 10.0)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        t = threading.Thread(target=reader)
        t.start()
        for i in range(300):
            history.record({"a": float(i)}, now=float(i))
        stop.set()
        t.join(timeout=10)
        assert not errors
