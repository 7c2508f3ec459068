"""ETag/Content-MD5 semantics and the storage-engine admin routes over HTTP."""

import base64
import hashlib
import json

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient
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
    with GatewayClient(host, port, tenant="etag-tests") as c:
        yield c


PAYLOAD = b"etag material " * 32
PAYLOAD_MD5_HEX = hashlib.md5(PAYLOAD).hexdigest()
PAYLOAD_MD5_B64 = base64.b64encode(hashlib.md5(PAYLOAD).digest()).decode()


class TestETag:
    def test_put_returns_content_md5_etag(self, client):
        info = client.put("bkt", "k.bin", PAYLOAD)
        assert info["etag"] == PAYLOAD_MD5_HEX

    def test_get_and_head_expose_same_etag(self, client):
        client.put("bkt", "k.bin", PAYLOAD)
        status, headers, body = client._request("GET", "/bkt/k.bin")
        assert status == 200
        assert headers["etag"] == f'"{PAYLOAD_MD5_HEX}"'
        assert client.head("bkt", "k.bin")["etag"] == f'"{PAYLOAD_MD5_HEX}"'

    def test_etag_is_not_the_storage_key(self, client):
        # The seed leaked the internal per-version skey as the ETag; the
        # contract now is the S3 one — a client can md5 its bytes and
        # compare.  Distinct contents must give distinct, predictable tags.
        client.put("bkt", "one.bin", b"content-one")
        client.put("bkt", "two.bin", b"content-two")
        assert client.head("bkt", "one.bin")["etag"] == (
            f'"{hashlib.md5(b"content-one").hexdigest()}"'
        )
        assert client.head("bkt", "two.bin")["etag"] == (
            f'"{hashlib.md5(b"content-two").hexdigest()}"'
        )

    def test_overwrite_changes_etag(self, client):
        client.put("bkt", "k.bin", b"v1")
        first = client.head("bkt", "k.bin")["etag"]
        client.put("bkt", "k.bin", b"v2")
        assert client.head("bkt", "k.bin")["etag"] != first


class TestContentMd5Validation:
    def _put_with_md5(self, client, md5_value, body=PAYLOAD):
        return client._request(
            "PUT", "/bkt/checked.bin", body, {"Content-MD5": md5_value}
        )

    def test_matching_base64_md5_accepted(self, client):
        status, _, payload = self._put_with_md5(client, PAYLOAD_MD5_B64)
        assert status == 200
        assert json.loads(payload)["etag"] == PAYLOAD_MD5_HEX

    def test_matching_hex_md5_accepted(self, client):
        status, _, _ = self._put_with_md5(client, PAYLOAD_MD5_HEX)
        assert status == 200

    def test_mismatched_md5_rejected_with_400(self, client):
        wrong = base64.b64encode(hashlib.md5(b"other bytes").digest()).decode()
        status, _, payload = self._put_with_md5(client, wrong)
        assert status == 400
        assert "mismatch" in json.loads(payload)["error"]
        # nothing was stored
        assert client.head("bkt", "checked.bin") is None

    def test_malformed_md5_rejected_with_400(self, client):
        status, _, payload = self._put_with_md5(client, "!!!not-base64!!!")
        assert status == 400
        assert "Content-MD5" in json.loads(payload)["error"]

    def test_wrong_length_digest_rejected(self, client):
        short = base64.b64encode(b"tooshort").decode()
        status, _, payload = self._put_with_md5(client, short)
        assert status == 400
        assert "128-bit" in json.loads(payload)["error"]


class TestStorageRoutes:
    def test_stats_reports_backend_types(self, client):
        stats = client.stats()
        storage = stats["storage"]
        assert storage["durable"] is False
        assert set(storage["backends"]) == set(stats["providers"])
        assert all(b["type"] == "memory" for b in storage["backends"].values())

    def test_scrub_route_runs_and_reports(self, client):
        client.put("bkt", "scrubbed.bin", bytes(500))
        report = client.scrub()
        assert report["objects_scanned"] == 1
        assert report["chunks_corrupt"] == 0
        # the report is now visible in /stats too
        assert client.stats()["storage"]["last_scrub"]["objects_scanned"] == 1

    def test_scrub_requires_post(self, client):
        status, _, _ = client._request("GET", "/scrub")
        assert status == 405


class TestDurableGatewayStats:
    def test_stats_surface_durability_block(self, tmp_path):
        broker = Scalia(data_dir=str(tmp_path))
        frontend = BrokerFrontend(broker)
        with ScaliaGateway(frontend, port=0).start() as gw:
            host, port = gw.address
            with GatewayClient(host, port) as client:
                client.put("bkt", "durable.bin", b"on disk")
                storage = client.stats()["storage"]
                assert storage["durable"] is True
                assert storage["durability"]["boot_epoch"] == 1
                assert all(
                    b["type"] == "segment" for b in storage["backends"].values()
                )
        frontend.close()
        broker.close()
