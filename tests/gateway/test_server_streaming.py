"""End-to-end streaming gateway tests: ranges, conditionals, multipart,
chunked bodies and pagination over real sockets."""

import hashlib
import http.client
import io
import json
import random

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway

STRIPE = 64 * 1024


def payload_of(size, seed=0):
    return random.Random(seed).randbytes(size)


@pytest.fixture()
def gateway():
    frontend = BrokerFrontend(Scalia(stripe_size_bytes=STRIPE))
    gw = ScaliaGateway(frontend, port=0).start()
    yield gw
    gw.close()
    frontend.close()


@pytest.fixture()
def client(gateway):
    host, port = gateway.address
    with GatewayClient(host, port, tenant="alice") as c:
        yield c


def raw_request(gateway, method, path, body=None, headers=None):
    host, port = gateway.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        send = {"x-scalia-tenant": "alice"}
        send.update(headers or {})
        conn.request(method, path, body=body, headers=send)
        response = conn.getresponse()
        payload = response.read()
        return response.status, {k.lower(): v for k, v in response.getheaders()}, payload
    finally:
        conn.close()


class TestStripedRoundTrip:
    def test_multi_stripe_object_over_http(self, client):
        data = payload_of(STRIPE * 3 + 500)
        info = client.put("photos", "big.bin", data)
        assert info["size"] == len(data)
        assert info["stripes"] == 4
        assert info["etag"] == hashlib.md5(data).hexdigest()
        assert client.get("photos", "big.bin") == data

    def test_streamed_upload_with_content_length(self, client):
        data = payload_of(STRIPE * 2 + 99, seed=1)
        info = client.put_stream("photos", "s.bin", io.BytesIO(data))
        assert info["size"] == len(data)
        assert client.get("photos", "s.bin") == data

    def test_chunked_upload_without_length(self, client):
        data = payload_of(STRIPE * 2 + 17, seed=2)
        blocks = [data[i : i + 10_000] for i in range(0, len(data), 10_000)]
        info = client.put_stream("photos", "chunked.bin", iter(blocks))
        assert info["size"] == len(data)
        assert client.get("photos", "chunked.bin") == data

    def test_get_to_file_streams_down(self, client):
        data = payload_of(STRIPE * 2, seed=3)
        client.put("photos", "down.bin", data)
        sink = io.BytesIO()
        headers = client.get_to_file("photos", "down.bin", sink)
        assert sink.getvalue() == data
        assert headers["accept-ranges"] == "bytes"


class TestRangeRequests:
    def put_big(self, client, size=STRIPE * 4):
        data = payload_of(size, seed=4)
        client.put("photos", "big.bin", data)
        return data

    def test_206_with_content_range(self, gateway, client):
        data = self.put_big(client)
        status, headers, body = raw_request(
            gateway, "GET", "/photos/big.bin", headers={"Range": "bytes=100-299"}
        )
        assert status == 206
        assert body == data[100:300]
        assert headers["content-range"] == f"bytes 100-299/{len(data)}"
        assert headers["content-length"] == "200"

    def test_open_ended_and_suffix_ranges(self, gateway, client):
        data = self.put_big(client)
        status, _, body = raw_request(
            gateway, "GET", "/photos/big.bin",
            headers={"Range": f"bytes={len(data) - 10}-"},
        )
        assert (status, body) == (206, data[-10:])
        status, _, body = raw_request(
            gateway, "GET", "/photos/big.bin", headers={"Range": "bytes=-25"}
        )
        assert (status, body) == (206, data[-25:])

    def test_range_crossing_stripes(self, client):
        data = self.put_big(client)
        lo, hi = STRIPE - 100, STRIPE * 2 + 100
        assert client.get_range("photos", "big.bin", lo, hi) == data[lo : hi + 1]

    def assert_416(self, gateway, key, spec, size):
        status, headers, body = raw_request(
            gateway, "GET", f"/photos/{key}", headers={"Range": spec}
        )
        assert status == 416, spec
        assert headers["content-range"] == f"bytes */{size}"
        assert json.loads(body) == {"error": "requested range not satisfiable", "status": 416}

    def test_unsatisfiable_range_is_416(self, gateway, client):
        data = self.put_big(client)
        self.assert_416(gateway, "big.bin", f"bytes={len(data) * 2}-", len(data))
        self.assert_416(gateway, "big.bin", "bytes=-0", len(data))

    def test_inverted_range_also_416_with_content_range(self, gateway, client):
        data = self.put_big(client, size=1000)
        self.assert_416(gateway, "big.bin", "bytes=500-100", len(data))
        client.put("photos", "empty.bin", b"")
        self.assert_416(gateway, "empty.bin", "bytes=-10", 0)

    def test_multi_range_ignored_serves_200(self, gateway, client):
        data = self.put_big(client, size=1000)
        status, _, body = raw_request(
            gateway, "GET", "/photos/big.bin", headers={"Range": "bytes=0-1,5-9"}
        )
        assert (status, body) == (200, data)

    def test_range_only_bills_covering_stripes(self, gateway, client):
        self.put_big(client, size=STRIPE * 8)
        registry = gateway.frontend.broker.registry
        before = sum(p.meter.total().bytes_out for p in registry.providers())
        client.get_range("photos", "big.bin", STRIPE * 3 + 1, STRIPE * 3 + 50)
        moved = sum(p.meter.total().bytes_out for p in registry.providers()) - before
        assert 0 < moved <= 2 * STRIPE  # ~one stripe of chunk egress, not 8


class TestConditionals:
    def test_if_none_match_304(self, gateway, client):
        data = b"conditional content"
        etag = client.put("photos", "c.bin", data)["etag"]
        status, headers, body = raw_request(
            gateway, "GET", "/photos/c.bin", headers={"If-None-Match": f'"{etag}"'}
        )
        assert status == 304
        assert body == b""
        assert headers["etag"] == f'"{etag}"'
        # a stale etag still downloads
        status, _, body = raw_request(
            gateway, "GET", "/photos/c.bin", headers={"If-None-Match": '"stale"'}
        )
        assert (status, body) == (200, data)

    def test_if_match_412(self, gateway, client):
        client.put("photos", "c.bin", b"v1")
        status, _, _ = raw_request(
            gateway, "GET", "/photos/c.bin", headers={"If-Match": '"wrong"'}
        )
        assert status == 412
        etag = client.head("photos", "c.bin")["etag"].strip('"')
        status, _, body = raw_request(
            gateway, "GET", "/photos/c.bin", headers={"If-Match": f'"{etag}"'}
        )
        assert (status, body) == (200, b"v1")

    def test_304_bills_no_read(self, gateway, client):
        etag = client.put("photos", "c.bin", b"cheap")["etag"]
        registry = gateway.frontend.broker.registry
        before = sum(p.meter.total().bytes_out for p in registry.providers())
        status, _, _ = raw_request(
            gateway, "GET", "/photos/c.bin", headers={"If-None-Match": f'"{etag}"'}
        )
        assert status == 304
        after = sum(p.meter.total().bytes_out for p in registry.providers())
        assert after == before

    def test_head_carries_cache_headers(self, gateway, client):
        client.put("photos", "h.bin", b"head me")
        status, headers, _ = raw_request(gateway, "HEAD", "/photos/h.bin")
        assert status == 200
        assert headers["accept-ranges"] == "bytes"
        assert "last-modified" in headers
        assert headers["x-scalia-stripes"] == "1"
        etag = headers["etag"]
        for conditions, expected in (
            ({"If-None-Match": etag}, 304),
            ({"If-Match": '"not-the-etag"'}, 412),
            ({"If-Match": "*"}, 200),
        ):
            status, answered, _ = raw_request(
                gateway, "HEAD", "/photos/h.bin", headers=conditions
            )
            assert status == expected, conditions
            if status != 412:
                assert answered["etag"] == etag


class TestMultipartOverHTTP:
    def test_full_protocol_roundtrip(self, client):
        parts = [payload_of(STRIPE * 2, seed=5), payload_of(STRIPE + 123, seed=6)]
        upload_id = client.create_multipart("photos", "mp.bin", size_hint=STRIPE * 3)
        manifest = []
        for number, data in enumerate(parts, start=1):
            receipt = client.upload_part("photos", "mp.bin", upload_id, number, data)
            assert receipt["etag"] == hashlib.md5(data).hexdigest()
            manifest.append((number, receipt["etag"]))
        assert [u["upload_id"] for u in client.list_uploads("photos")] == [upload_id]
        info = client.complete_multipart("photos", "mp.bin", upload_id, manifest)
        whole = b"".join(parts)
        assert info["size"] == len(whole)
        assert info["etag"].endswith("-2")
        assert client.get("photos", "mp.bin") == whole
        assert client.list_uploads("photos") == []

    def test_put_multipart_helper_streams_parts(self, client):
        data = payload_of(STRIPE * 5 + 77, seed=7)
        info = client.put_multipart(
            "photos", "helper.bin", io.BytesIO(data), part_size=STRIPE * 2
        )
        assert info["size"] == len(data)
        assert client.get("photos", "helper.bin") == data

    def test_put_multipart_of_empty_source_stores_empty_object(self, client):
        info = client.put_multipart("photos", "empty.bin", io.BytesIO(b""))
        assert info["size"] == 0
        assert client.get("photos", "empty.bin") == b""

    def test_abort_over_http(self, gateway, client):
        upload_id = client.create_multipart("photos", "ab.bin")
        client.upload_part("photos", "ab.bin", upload_id, 1, b"staged")
        client.abort_multipart("photos", "ab.bin", upload_id)
        assert client.list_uploads("photos") == []
        with pytest.raises(GatewayError) as err:
            client.upload_part("photos", "ab.bin", upload_id, 2, b"late")
        assert err.value.status == 404

    def test_complete_unknown_upload_404(self, client):
        with pytest.raises(GatewayError) as err:
            client.complete_multipart("photos", "x.bin", "bogus-id")
        assert err.value.status == 404

    def test_bad_manifest_400(self, client):
        upload_id = client.create_multipart("photos", "m.bin")
        client.upload_part("photos", "m.bin", upload_id, 1, b"data")
        with pytest.raises(GatewayError) as err:
            client.complete_multipart("photos", "m.bin", upload_id, [(9, None)])
        assert err.value.status == 400


class TestContentMD5Streaming:
    def test_streamed_put_with_bad_md5_stores_nothing(self, gateway, client):
        data = payload_of(STRIPE * 2, seed=8)  # > SMALL_BODY_BYTES is not
        # needed: chunked bodies always stream
        blocks = [data[i : i + 8192] for i in range(0, len(data), 8192)]
        bogus = hashlib.md5(b"other bytes").hexdigest()
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "PUT",
                "/photos/corrupt.bin",
                body=iter(blocks),
                headers={"x-scalia-tenant": "alice", "Content-MD5": bogus},
                encode_chunked=True,
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()
        with pytest.raises(GatewayError) as err:
            client.get("photos", "corrupt.bin")
        assert err.value.status == 404
        # nothing leaked at the providers
        registry = gateway.frontend.broker.registry
        assert all(len(p.backend.keys()) == 0 for p in registry.providers())

    def test_large_sized_put_with_good_md5_streams_and_stores(self, gateway, client):
        # 1.5 MiB exceeds the gateway's whole-buffer threshold, so this
        # exercises the sized streaming path with incremental verification.
        data = payload_of(1536 * 1024, seed=9)
        digest = hashlib.md5(data).hexdigest()
        status, _, payload = raw_request(
            gateway, "PUT", "/photos/ok.bin", body=data,
            headers={"Content-MD5": digest},
        )
        assert status == 200
        assert json.loads(payload)["size"] == len(data)
        assert client.get("photos", "ok.bin") == data

    def test_large_sized_put_with_bad_md5_rolls_back(self, gateway, client):
        data = payload_of(1536 * 1024, seed=10)
        status, _, _ = raw_request(
            gateway, "PUT", "/photos/bad.bin", body=data,
            headers={"Content-MD5": hashlib.md5(b"not it").hexdigest()},
        )
        assert status == 400
        with pytest.raises(GatewayError) as err:
            client.get("photos", "bad.bin")
        assert err.value.status == 404
        registry = gateway.frontend.broker.registry
        assert all(len(p.backend.keys()) == 0 for p in registry.providers())


class TestMalformedHeaders:
    def test_malformed_content_length_gets_a_400_response(self, gateway):
        # int('abc') must become a clean RouteError, not a handler crash
        # that leaves the client with no response bytes at all.
        host, port = gateway.address
        import socket

        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"PUT /bkt/k HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: abc\r\n"
                b"\r\n"
            )
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]


class TestCachedGateway:
    def test_cache_serves_repeat_gets_without_provider_traffic(self):
        broker = Scalia(
            stripe_size_bytes=STRIPE, cache_capacity_bytes=16 * 1024 * 1024
        )
        frontend = BrokerFrontend(broker)
        gw = ScaliaGateway(frontend, port=0).start()
        try:
            host, port = gw.address
            with GatewayClient(host, port, tenant="hot") as client:
                data = payload_of(STRIPE + 500, seed=20)
                client.put("photos", "hot.bin", data)
                assert client.get("photos", "hot.bin") == data  # miss, fills
                before = sum(
                    p.meter.total().bytes_out for p in broker.registry.providers()
                )
                assert client.get("photos", "hot.bin") == data  # hit
                after = sum(
                    p.meter.total().bytes_out for p in broker.registry.providers()
                )
                assert after == before, "cache hit still fetched provider chunks"
                # ranged reads bypass the cache and bill normally
                assert client.get_range("photos", "hot.bin", 0, 9) == data[:10]
        finally:
            gw.close()
            frontend.close()


class TestPaginationOverHTTP:
    def test_list_pages_and_auto_follow(self, client):
        for i in range(7):
            client.put("docs", f"k{i:02d}.txt", b"x")
        page = client.list_page("docs", max_keys=3)
        assert len(page["keys"]) == 3
        assert page["is_truncated"] is True
        assert page["next_continuation_token"]
        assert client.list("docs", page_size=3) == [f"k{i:02d}.txt" for i in range(7)]

    def test_prefix_and_delimiter_over_http(self, client):
        for key in ("a.txt", "logs/x.log", "logs/y.log"):
            client.put("docs", key, b"x")
        page = client.list_page("docs", delimiter="/")
        assert page["keys"] == ["a.txt"]
        assert page["common_prefixes"] == ["logs/"]

    def test_bad_token_is_400(self, client):
        with pytest.raises(GatewayError) as err:
            client.list_page("docs", continuation_token="###")
        assert err.value.status == 400
