"""The exact bytes of every ``/metrics`` rendering, pinned.

One registry covers each case the writers treat differently: a counter
named with ``_total`` and one without (OpenMetrics metadata drops the
suffix, its samples always carry it), a gauge with a non-integral value,
a labelled histogram (bucket, ``_sum`` and ``_count`` lines, whose order
differs between the two text formats), a label value and a help text
that need escaping, and a declared family nobody touched (rendered
nowhere).  Any change to the writers must leave these outputs as they
are.
"""

from repro.obs.metrics import MetricsRegistry


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter(
        "app_requests_total", "Requests served.", ("route", "status")
    )
    requests.labels("object", 200).inc(3)
    requests.labels("list", 404).inc()
    registry.counter("app_moved_bytes", "Bytes moved.", ("dir",)).labels("in").inc(1536)
    registry.counter(
        "app_escaped_total", 'Help with a \\ backslash\nand "a newline".', ("k",)
    ).labels('a"b\\c\nd').inc(2)
    registry.gauge("app_depth", "Queue depth.").set(2.5)
    latency = registry.histogram(
        "app_latency_seconds", "Request latency.", ("route",), buckets=(0.01, 0.1, 1.0)
    )
    for value in (0.005, 0.05, 0.05, 0.5, 3.0):
        latency.labels("object").observe(value)
    latency.labels("list").observe(0.02)
    registry.counter("app_unused_total", "Declared, never touched.", ("x",))
    return registry


_HELP_ESCAPED = 'Help with a \\\\ backslash\\nand "a newline".'
_LABEL_ESCAPED = '{k="a\\"b\\\\c\\nd"}'

TEXT = "\n".join([
    "# HELP app_depth Queue depth.",
    "# TYPE app_depth gauge",
    "app_depth 2.5",
    f"# HELP app_escaped_total {_HELP_ESCAPED}",
    "# TYPE app_escaped_total counter",
    f"app_escaped_total{_LABEL_ESCAPED} 2",
    "# HELP app_latency_seconds Request latency.",
    "# TYPE app_latency_seconds histogram",
    'app_latency_seconds_bucket{route="list",le="0.01"} 0',
    'app_latency_seconds_bucket{route="list",le="0.1"} 1',
    'app_latency_seconds_bucket{route="list",le="1"} 1',
    'app_latency_seconds_bucket{route="list",le="+Inf"} 1',
    'app_latency_seconds_sum{route="list"} 0.02',
    'app_latency_seconds_count{route="list"} 1',
    'app_latency_seconds_bucket{route="object",le="0.01"} 1',
    'app_latency_seconds_bucket{route="object",le="0.1"} 3',
    'app_latency_seconds_bucket{route="object",le="1"} 4',
    'app_latency_seconds_bucket{route="object",le="+Inf"} 5',
    'app_latency_seconds_sum{route="object"} 3.605',
    'app_latency_seconds_count{route="object"} 5',
    "# HELP app_moved_bytes Bytes moved.",
    "# TYPE app_moved_bytes counter",
    'app_moved_bytes{dir="in"} 1536',
    "# HELP app_requests_total Requests served.",
    "# TYPE app_requests_total counter",
    'app_requests_total{route="list",status="404"} 1',
    'app_requests_total{route="object",status="200"} 3',
]) + "\n"

OPENMETRICS = "\n".join([
    "# HELP app_depth Queue depth.",
    "# TYPE app_depth gauge",
    "app_depth 2.5",
    f"# HELP app_escaped {_HELP_ESCAPED}",
    "# TYPE app_escaped counter",
    f"app_escaped_total{_LABEL_ESCAPED} 2",
    "# HELP app_latency_seconds Request latency.",
    "# TYPE app_latency_seconds histogram",
    'app_latency_seconds_bucket{route="list",le="0.01"} 0',
    'app_latency_seconds_bucket{route="list",le="0.1"} 1',
    'app_latency_seconds_bucket{route="list",le="1"} 1',
    'app_latency_seconds_bucket{route="list",le="+Inf"} 1',
    'app_latency_seconds_count{route="list"} 1',
    'app_latency_seconds_sum{route="list"} 0.02',
    'app_latency_seconds_bucket{route="object",le="0.01"} 1',
    'app_latency_seconds_bucket{route="object",le="0.1"} 3',
    'app_latency_seconds_bucket{route="object",le="1"} 4',
    'app_latency_seconds_bucket{route="object",le="+Inf"} 5',
    'app_latency_seconds_count{route="object"} 5',
    'app_latency_seconds_sum{route="object"} 3.605',
    "# HELP app_moved_bytes Bytes moved.",
    "# TYPE app_moved_bytes counter",
    'app_moved_bytes_total{dir="in"} 1536',
    "# HELP app_requests Requests served.",
    "# TYPE app_requests counter",
    'app_requests_total{route="list",status="404"} 1',
    'app_requests_total{route="object",status="200"} 3',
    "# EOF",
]) + "\n"

JSON = {
    "metrics": {
        "app_depth": {
            "type": "gauge",
            "help": "Queue depth.",
            "samples": [{"labels": {}, "value": 2.5}],
        },
        "app_escaped_total": {
            "type": "counter",
            "help": 'Help with a \\ backslash\nand "a newline".',
            "samples": [{"labels": {"k": 'a"b\\c\nd'}, "value": 2.0}],
        },
        "app_latency_seconds": {
            "type": "histogram",
            "help": "Request latency.",
            "samples": [
                {
                    "labels": {"route": "list"},
                    "count": 1,
                    "sum": 0.02,
                    "p50": 0.05500000000000001,
                    "p95": 0.0955,
                    "p99": 0.09910000000000001,
                    "buckets": [[0.01, 0], [0.1, 1], [1.0, 1]],
                },
                {
                    "labels": {"route": "object"},
                    "count": 5,
                    "sum": 3.605,
                    "p50": 0.0775,
                    "p95": 1.0,
                    "p99": 1.0,
                    "buckets": [[0.01, 1], [0.1, 3], [1.0, 4]],
                },
            ],
        },
        "app_moved_bytes": {
            "type": "counter",
            "help": "Bytes moved.",
            "samples": [{"labels": {"dir": "in"}, "value": 1536.0}],
        },
        "app_requests_total": {
            "type": "counter",
            "help": "Requests served.",
            "samples": [
                {"labels": {"route": "list", "status": "404"}, "value": 1.0},
                {"labels": {"route": "object", "status": "200"}, "value": 3.0},
            ],
        },
    }
}


def test_text_exposition_is_byte_identical():
    assert _registry().render_text() == TEXT


def test_openmetrics_exposition_is_byte_identical():
    assert _registry().render_openmetrics() == OPENMETRICS


def test_json_scrape_is_equal():
    assert _registry().render_json() == JSON


def test_disabled_registry_renders_nothing_but_the_terminator():
    registry = MetricsRegistry(enabled=False)
    registry.counter("app_requests_total", "Requests served.").inc()
    registry.histogram("app_latency_seconds", "Request latency.").observe(0.1)
    assert registry.render_text() == ""
    assert registry.render_openmetrics() == "# EOF\n"
    assert registry.render_json() == {"metrics": {}}
