"""``GET /metrics``, ``/healthz``, request tracing: the wire-level contract.

The exposition test is a conformance check against the Prometheus text
format 0.0.4 grammar — every line must parse, every sample must be
preceded by its TYPE, and histogram series must be internally consistent
(cumulative buckets, ``+Inf`` == ``_count``).
"""

import io
import json
import re
import time

import pytest

from repro.core.broker import Scalia
from repro.core.controlplane import BackgroundControlPlane
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway
from repro.obs.logging import LogConfig, StructuredLogger, configure_logging
from repro.obs.trace import current_trace, end_trace, start_trace
from repro.providers.faults import parse_fault_spec
from repro.providers.pricing import paper_catalog
from repro.providers.registry import ProviderRegistry

_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r'(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$"
)


@pytest.fixture()
def stack(tmp_path):
    """Durable broker + gateway + client, with a captured JSON log."""
    log = io.StringIO()
    registry = ProviderRegistry(paper_catalog())
    broker = Scalia(registry, data_dir=tmp_path / "data")
    frontend = BrokerFrontend(broker)
    gw = ScaliaGateway(
        frontend,
        port=0,
        logger=StructuredLogger("gateway", LogConfig(fmt="json", stream=log)),
        trace_slow_ms=100.0,
    ).start()
    host, port = gw.address
    client = GatewayClient(host, port)
    yield registry, broker, client, log
    client.close()
    gw.close()
    frontend.close()


def _log_events(log: io.StringIO, event: str) -> list:
    records = [json.loads(line) for line in log.getvalue().splitlines() if line]
    return [r for r in records if r.get("event") == event]


def _wait_events(log: io.StringIO, event: str, count: int = 1) -> list:
    """The epilogue log line lands just *after* the response bytes; give
    the handler thread a moment before asserting on it."""
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        found = _log_events(log, event)
        if len(found) >= count:
            return found
        time.sleep(0.005)
    return _log_events(log, event)


class TestExpositionConformance:
    def test_text_format_parses_and_histograms_are_consistent(self, stack):
        _, _, client, _ = stack
        client.put("photos", "a.bin", b"x" * 20000)
        client.get("photos", "a.bin")
        text = client.metrics_text()

        typed = {}
        seen_samples = set()
        histogram_series = {}
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert _COMMENT.match(line), f"malformed comment: {line!r}"
                kind, name, rest = line[2:].split(" ", 2)
                if kind == "TYPE":
                    typed[name] = rest
                continue
            match = _SAMPLE.match(line)
            assert match, f"malformed sample: {line!r}"
            name = match.group("name")
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            assert base in typed or name in typed, f"sample without TYPE: {line!r}"
            assert (name, match.group("labels")) not in seen_samples, (
                f"duplicate series: {line!r}"
            )
            seen_samples.add((name, match.group("labels")))
            if name.endswith("_bucket") or name.endswith("_count"):
                labels = match.group("labels") or ""
                series = re.sub(r',?le="[^"]*"', "", labels).replace("{}", "")
                histogram_series.setdefault((base, series), []).append(
                    (name, float(match.group("value")))
                )

        assert typed, "no TYPE comments at all"
        for (base, _), rows in histogram_series.items():
            buckets = [v for n, v in rows if n.endswith("_bucket")]
            counts = [v for n, v in rows if n.endswith("_count")]
            assert buckets == sorted(buckets), f"{base}: buckets not cumulative"
            if counts:
                assert buckets[-1] == counts[0], f"{base}: +Inf != _count"

    def test_every_subsystem_exports_series(self, stack):
        _, broker, client, _ = stack
        client.put("photos", "a.bin", b"x" * 20000)
        client.get("photos", "a.bin")
        client.scrub()
        broker.tick()
        text = client.metrics_text()
        for family in (
            "scalia_gateway_requests_total",
            "scalia_gateway_request_seconds",
            "scalia_engine_op_seconds",
            "scalia_erasure_encode_seconds",
            "scalia_erasure_decode_seconds",
            "scalia_provider_op_seconds",
            "scalia_provider_bytes_total",
            "scalia_lock_wait_seconds",
            "scalia_lock_hold_seconds",
            "scalia_hedged_reads_total",
            "scalia_breaker_state",
            "scalia_wal_appends_total",
            "scalia_wal_fsync_seconds",
            "scalia_scrub_objects_total",
            "scalia_optimizer_batch_seconds",
        ):
            assert f"# TYPE {family}" in text, f"missing series family {family}"

    def test_json_format_matches_text(self, stack):
        _, _, client, _ = stack
        client.put("photos", "a.bin", b"x")
        doc = client.metrics()
        ops = doc["metrics"]["scalia_engine_op_seconds"]
        assert ops["type"] == "histogram"
        put = [s for s in ops["samples"] if s["labels"] == {"op": "put"}]
        assert put and put[0]["count"] >= 1

    def test_metrics_route_rejects_post(self, stack):
        _, _, client, _ = stack
        status, headers, _ = client._request("POST", "/metrics")
        assert status == 405
        assert headers.get("allow") == "GET"


class TestNoMetricsMode:
    def test_disabled_broker_serves_empty_exposition(self):
        frontend = BrokerFrontend(Scalia(enable_metrics=False))
        gw = ScaliaGateway(frontend, port=0).start()
        host, port = gw.address
        try:
            with GatewayClient(host, port) as client:
                client.put("photos", "a.bin", b"x")
                assert client.metrics_text() == ""
                assert client.metrics() == {"metrics": {}}
        finally:
            gw.close()
            frontend.close()


class TestHealthz:
    def test_body_reports_version_uptime_and_recovery(self, stack):
        _, _, client, _ = stack
        body = client.health()
        assert body["status"] == "ok"
        assert re.match(r"^\d+\.\d+", body["version"])
        assert body["uptime_s"] >= 0.0
        assert isinstance(body["pid"], int)
        assert body["durable"] is True
        assert body["recovery"]["boot_epoch"] >= 1


class TestRequestTracing:
    def test_response_echoes_minted_trace_id(self, stack):
        _, _, client, log = stack
        client.put("photos", "a.bin", b"x")
        [complete] = _wait_events(log, "request.complete")[-1:]
        assert re.fullmatch(r"[0-9a-f]{16}", complete["trace_id"])
        assert complete["client"] == "127.0.0.1"  # the peer address
        assert complete["route"] == "object"
        assert complete["status"] == 200
        assert "lock_wait" in complete["phases"]

    def test_inbound_request_id_is_honoured(self, stack):
        _, _, client, log = stack
        status, headers, _ = client._request(
            "GET", "/healthz", headers={"X-Request-Id": "trace-me-7"}
        )
        assert status == 200
        assert headers.get("x-request-id") == "trace-me-7"
        events = _wait_events(log, "request.complete")
        assert events[-1]["trace_id"] == "trace-me-7"

    @pytest.mark.parametrize("inbound", ["x status=500 route=admin", "a" * 65])
    def test_malformed_inbound_request_id_is_replaced(self, inbound):
        """An id that could forge text-log fields, or is over 64
        characters, is neither echoed nor logged: a fresh one is minted."""
        log = io.StringIO()
        frontend = BrokerFrontend(Scalia())
        gw = ScaliaGateway(
            frontend,
            port=0,
            logger=StructuredLogger("gateway", LogConfig(fmt="text", stream=log)),
        ).start()
        try:
            with GatewayClient(*gw.address) as client:
                status, headers, _ = client._request(
                    "GET", "/healthz", headers={"X-Request-Id": inbound}
                )
            assert status == 200
            minted = headers.get("x-request-id")
            assert re.fullmatch(r"[0-9a-f]{16}", minted)
            deadline = time.monotonic() + 2.0
            while "request.complete" not in log.getvalue():
                assert time.monotonic() < deadline, log.getvalue()
                time.sleep(0.005)
            [line] = [
                line for line in log.getvalue().splitlines()
                if " request.complete " in line
            ]
            assert f" trace_id={minted} " in line
            assert inbound not in line
            assert " status=200 " in line and "status=500" not in line
        finally:
            gw.close()
            frontend.close()

    def test_injected_provider_latency_attributes_to_provider_fetch(self, stack):
        """The acceptance scenario: a slow provider shows up, attributed,
        in the request.slow span dump — not as anonymous wall time."""
        registry, _, client, log = stack
        client.put("photos", "slow.bin", b"x" * 20000)
        for spec in paper_catalog():
            registry.set_fault_profile(spec.name, parse_fault_spec("latency=150ms"))
        client.get("photos", "slow.bin")
        [slow] = _wait_events(log, "request.slow")
        assert slow["route"] == "object"
        assert slow["phases"]["provider_fetch"] >= 150.0
        # The dominant cost is the provider, and the span dump names it.
        assert slow["phases"]["provider_fetch"] >= 0.5 * slow["duration_ms"]
        assert any(s["name"] == "provider_fetch" for s in slow["spans"])


class TestControlPlaneTracing:
    def test_background_rounds_get_their_own_trace(self, tmp_path):
        log = io.StringIO()
        configure_logging(fmt="json", level="debug", stream=log)
        try:
            broker = Scalia()
            plane = BackgroundControlPlane(broker, tick_interval=3600.0)
            outer = start_trace("client-request")
            try:
                plane._tick_once()
            finally:
                end_trace(outer)
            assert current_trace() is None
        finally:
            configure_logging(fmt="text", level="info", stream=None)
        [tick] = _log_events(log, "controlplane.tick")
        assert tick["trace_id"] != "client-request"
        assert tick["duration_ms"] >= 0.0
