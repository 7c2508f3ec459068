"""End-to-end HTTP tests: real sockets, real threads, stdlib client."""

import http.client
import json
import random
import threading

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway


@pytest.fixture()
def gateway():
    frontend = BrokerFrontend(Scalia())
    gw = ScaliaGateway(frontend, port=0).start()
    yield gw
    gw.close()
    frontend.close()


@pytest.fixture()
def client(gateway):
    host, port = gateway.address
    with GatewayClient(host, port, tenant="alice") as c:
        yield c


class TestObjectRoundTrip:
    def test_put_get_identical_bytes(self, client):
        payload = bytes(range(256)) * 32
        info = client.put("photos", "blob.bin", payload)
        assert info["size"] == len(payload)
        assert info["placement"].startswith("[")
        assert client.get("photos", "blob.bin") == payload

    def test_head_reports_size_and_class(self, client):
        client.put("photos", "cat.gif", b"GIF89a" * 100, mime="image/gif")
        meta = client.head("photos", "cat.gif")
        assert meta is not None
        assert meta["size"] == "600"
        assert meta["mime"] == "image/gif"
        assert meta["class"]
        assert meta["placement"].startswith("[")
        assert meta["etag"]

    def test_keys_with_slashes_and_spaces(self, client):
        client.put("photos", "2012/07/my vacation.gif", b"x")
        assert client.get("photos", "2012/07/my vacation.gif") == b"x"
        assert client.list("photos") == ["2012/07/my vacation.gif"]

    def test_delete_then_404(self, client):
        client.put("photos", "gone.txt", b"bye")
        client.delete("photos", "gone.txt")
        assert client.head("photos", "gone.txt") is None
        with pytest.raises(GatewayError) as err:
            client.get("photos", "gone.txt")
        assert err.value.status == 404

    def test_list_bucket(self, client):
        for key in ("c.txt", "a.txt", "b.txt"):
            client.put("docs", key, b"x")
        assert client.list("docs") == ["a.txt", "b.txt", "c.txt"]
        assert client.list("empty-bucket") == []

    def test_overwrite_updates_bytes(self, client):
        client.put("docs", "v.txt", b"version-1")
        client.put("docs", "v.txt", b"version-2-longer")
        assert client.get("docs", "v.txt") == b"version-2-longer"


class TestTenancy:
    def test_header_isolates_tenants(self, gateway):
        host, port = gateway.address
        with GatewayClient(host, port, tenant="alice") as alice, GatewayClient(
            host, port, tenant="bob"
        ) as bob:
            alice.put("photos", "cat.gif", b"alice-cat")
            bob.put("photos", "cat.gif", b"bob-cat")
            assert alice.get("photos", "cat.gif") == b"alice-cat"
            assert bob.get("photos", "cat.gif") == b"bob-cat"
            bob.delete("photos", "cat.gif")
            assert alice.get("photos", "cat.gif") == b"alice-cat"
            assert bob.list("photos") == []


class TestAdminRoutes:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        # The liveness body doubles as a version/uptime probe.
        assert health["version"]
        assert health["pid"] > 0
        assert health["uptime_s"] >= 0

    def test_stats_reflects_traffic(self, client):
        client.put("photos", "k", b"v")
        client.get("photos", "k")
        stats = client.stats()
        assert stats["ops"]["put"] == 1
        assert stats["ops"]["get"] == 1
        assert stats["period"] == 0
        assert "mode" not in stats
        assert stats["providers"]

    def test_tick_advances_broker(self, client):
        result = client.tick(3)
        assert result["periods_closed"] == 3
        assert result["period"] == 3
        assert client.stats()["period"] == 3

    def test_tick_periods_capped(self, client):
        with pytest.raises(GatewayError) as err:
            client.tick(10_001)
        assert err.value.status == 400
        assert client.stats()["period"] == 0


class TestErrorMapping:
    def test_bad_bucket_is_400(self, client):
        with pytest.raises(GatewayError) as err:
            client.put("Bad_Bucket", "k", b"v")
        assert err.value.status == 400

    def test_missing_object_is_404_with_tenant_name(self, client):
        with pytest.raises(GatewayError) as err:
            client.get("photos", "missing.gif")
        assert err.value.status == 404
        assert "photos/missing.gif" in str(err.value)
        assert "gw-" not in str(err.value)

    def test_all_providers_down_put_is_507(self, gateway, client):
        registry = gateway.frontend.broker.registry
        for name in registry.names():
            registry.fail(name)
        try:
            with pytest.raises(GatewayError) as err:
                client.put("photos", "k", b"v")
            assert err.value.status == 507
        finally:
            for name in registry.names():
                registry.recover(name)

    def test_all_providers_down_get_is_503(self, gateway, client):
        client.put("photos", "k", b"v")
        registry = gateway.frontend.broker.registry
        for name in registry.names():
            registry.fail(name)
        try:
            with pytest.raises(GatewayError) as err:
                client.get("photos", "k")
            assert err.value.status == 503
        finally:
            for name in registry.names():
                registry.recover(name)

    def test_method_not_allowed_is_405_with_allow(self, gateway):
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("PATCH", "/photos/cat.gif", body=b"x")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 405
            assert "error" in body
            allow = response.getheader("Allow", "")
            assert "PUT" in allow and "GET" in allow
        finally:
            conn.close()

    def test_bare_post_on_object_is_400(self, gateway):
        # POST is now a routable object method (multipart protocol), so a
        # POST without ?uploads / ?uploadId is malformed, not unsupported.
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/photos/cat.gif", body=b"x")
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()

    def test_reserved_bucket_is_400(self, client):
        with pytest.raises(GatewayError) as err:
            client.put("stats", "report.csv", b"x")
        assert err.value.status == 400
        assert "reserved" in str(err.value)

    def test_route_named_bucket_is_400(self, client):
        """``GET /metrics`` could never list a bucket named ``metrics``."""
        with pytest.raises(GatewayError) as err:
            client.put("metrics", "k", b"x")
        assert err.value.status == 400
        assert "reserved" in str(err.value)

    def test_root_is_400(self, gateway):
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/")
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestKeepAliveIntegrity:
    def test_unread_tick_body_is_drained_not_desynced(self, gateway):
        """POST /tick ignores its body; the connection must stay usable."""
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/tick?periods=1", body=b"ignored payload")
            first = conn.getresponse()
            assert first.status == 200
            first.read()
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            conn.close()

    def test_oversize_put_closes_connection_cleanly(self, gateway):
        """A 413 without reading the body must not leave a half-sent
        payload to be parsed as the next request."""
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "PUT",
                "/photos/huge.bin",
                body=b"only-a-few-bytes",
                headers={"Content-Length": "400000000"},
            )
            response = conn.getresponse()
            assert response.status == 413
            assert response.getheader("Connection", "").lower() == "close"
        finally:
            conn.close()

    def test_get_counts_once_in_stats(self, client, gateway):
        client.put("photos", "k", b"v")
        client.get("photos", "k")
        ops = gateway.frontend.stats()["ops"]
        assert ops["get"] == 1
        assert "head" not in ops


class TestConcurrentClients:
    def test_parallel_mixed_load_has_zero_errors(self, gateway):
        """8 keep-alive clients, 25 requests each, half of them PUTs: every
        request succeeds and ``/stats`` counts exactly what was sent."""
        host, port = gateway.address
        clients, per_client = 8, 25
        tallies = [{"put": 0, "get": 0, "errors": 0} for _ in range(clients)]

        def worker(wid: int) -> None:
            # Each client owns its keys, so every GET targets a key it wrote.
            rng = random.Random(wid)
            payload = rng.randbytes(128)
            written = []
            tally = tallies[wid]
            with GatewayClient(host, port, tenant="bench") as client:
                for _ in range(per_client):
                    try:
                        if not written or rng.random() < 0.5:
                            key = f"w{wid}-k{rng.randrange(32)}"
                            client.put("bench", key, payload)
                            written.append(key)
                            tally["put"] += 1
                        else:
                            client.get("bench", rng.choice(written))
                            tally["get"] += 1
                    except Exception:  # noqa: BLE001 — counted, asserted below
                        tally["errors"] += 1

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        puts = sum(t["put"] for t in tallies)
        gets = sum(t["get"] for t in tallies)
        errors = sum(t["errors"] for t in tallies)
        assert puts + gets + errors == 200
        assert errors == 0
        assert puts + gets == 200
        stats = gateway.frontend.stats()
        assert stats["ops"]["put"] == puts
        assert stats["ops"]["get"] == gets
