"""WorkerMetricsAggregator: monotone totals across worker restarts."""

import re

from repro.obs.metrics import MetricsRegistry
from repro.obs.workers import WorkerMetricsAggregator


def _worker_doc(requests=0, inflight=None, latency_obs=()):
    reg = MetricsRegistry(enabled=True)
    if requests:
        reg.counter(
            "w_requests_total", "requests", ("route",)
        ).labels("object").inc(requests)
    if inflight is not None:
        reg.gauge("w_inflight", "inflight").labels().set(inflight)
    if latency_obs:
        hist = reg.histogram("w_seconds", "latency").labels()
        for value in latency_obs:
            hist.observe(value)
    return reg.collect()


def _sample(registry, name, labels=""):
    pattern = re.compile(
        rf"^{re.escape(name)}{re.escape(labels)} ([0-9.e+-]+)$", re.M
    )
    match = pattern.search(registry.render_text())
    return float(match.group(1)) if match else None


class TestAggregation:
    def test_live_workers_sum(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(requests=3))
        agg.push(1, 1, _worker_doc(requests=4))
        assert _sample(broker, "w_requests_total", '{route="object"}') == 7
        assert _sample(broker, "scalia_gateway_workers_live") == 2

    def test_restart_does_not_double_count(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(requests=5))
        assert _sample(broker, "w_requests_total", '{route="object"}') == 5
        # Incarnation 2 replaces 1 in the same slot: the old final doc is
        # retired (folded once) and the new doc starts from zero.
        agg.push(0, 2, _worker_doc(requests=1))
        assert _sample(broker, "w_requests_total", '{route="object"}') == 6
        # Repeated pushes from the live incarnation replace, never add.
        agg.push(0, 2, _worker_doc(requests=2))
        agg.push(0, 2, _worker_doc(requests=2))
        assert _sample(broker, "w_requests_total", '{route="object"}') == 7

    def test_counter_monotone_across_crash_gap(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(requests=9))
        before = _sample(broker, "w_requests_total", '{route="object"}')
        # Crash: no retire() call, replacement pushes with a fresh
        # incarnation.  The total must never go backwards.
        agg.push(0, 2, _worker_doc(requests=0))
        after = _sample(broker, "w_requests_total", '{route="object"}')
        assert after is not None and after >= before

    def test_retire_folds_and_drops_liveness(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(requests=5))
        agg.retire(0)
        assert agg.live_workers() == 0
        assert _sample(broker, "w_requests_total", '{route="object"}') == 5
        assert _sample(broker, "scalia_gateway_workers_live") == 0

    def test_gauges_die_with_their_worker(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(inflight=4))
        assert _sample(broker, "w_inflight") == 4
        agg.retire(0)
        # A dead worker has zero requests in flight, whatever its last
        # push said.
        assert _sample(broker, "w_inflight") == 0

    def test_histograms_fold_counts_and_sum(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(latency_obs=(0.01, 0.02)))
        agg.push(1, 1, _worker_doc(latency_obs=(0.04,)))
        text = broker.render_text()
        assert "w_seconds_count 3" in text
        count_line = [l for l in text.splitlines() if l.startswith("w_seconds_sum")]
        assert count_line and abs(float(count_line[0].split()[1]) - 0.07) < 1e-9

    def test_malformed_doc_is_ignored(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, {"metrics": {"bad": "not a family"}})
        agg.push(1, 1, _worker_doc(requests=2))
        # Scrape still works and the good worker's data is present.
        assert _sample(broker, "w_requests_total", '{route="object"}') == 2

    def test_mismatched_bucket_schema_is_dropped(self):
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(latency_obs=(0.01, 0.02)))
        other = MetricsRegistry(enabled=True)
        other.histogram("w_seconds", "latency", buckets=(0.1, 1.0)).observe(0.5)
        agg.push(1, 1, other.collect())
        assert "w_seconds_count 2\n" in broker.render_text()

    def test_worker_contribution_adds_to_broker_local(self):
        broker = MetricsRegistry(enabled=True)
        own = broker.counter("w_requests_total", "requests", ("route",))
        own.labels("object").inc(10)
        agg = WorkerMetricsAggregator(broker)
        agg.push(0, 1, _worker_doc(requests=3))
        # set_external contributions are additive with broker-local
        # increments, not clobbering.
        assert _sample(broker, "w_requests_total", '{route="object"}') == 13

    def test_three_workers_one_restarted_render_as_one_registry(self):
        """Worker 0 is restarted once: its first incarnation's counts stay
        in the totals and its gauge dies with it.  The broker then
        renders what one registry that saw every observation renders."""
        pushes = [  # slot, incarnation, requests, latencies, in flight
            (0, 1, 5, (0.25, 2.0), 7),
            (0, 2, 2, (0.5,), 1),
            (1, 1, 3, (0.125, 0.125, 4.0), 2),
            (2, 1, 1, (0.0625,), 3),
        ]
        broker = MetricsRegistry(enabled=True)
        agg = WorkerMetricsAggregator(broker)
        reference = MetricsRegistry(enabled=True)
        for slot, incarnation, requests, latencies, inflight in pushes:
            worker = MetricsRegistry(enabled=True)
            for registry in (worker, reference):
                registry.counter(
                    "w_requests_total", "requests", ("route",)
                ).labels("object").inc(requests)
                hist = registry.histogram("w_seconds", "latency", ("route",))
                for value in latencies:
                    hist.labels("object").observe(value)
            worker.gauge("w_inflight", "inflight").set(inflight)
            agg.push(slot, incarnation, worker.collect())
        reference.gauge("w_inflight", "inflight").set(1 + 2 + 3)
        want = reference.render_json()["metrics"]
        got = broker.render_json()["metrics"]
        assert {name: got.get(name) for name in want} == want
