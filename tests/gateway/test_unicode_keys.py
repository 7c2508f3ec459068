"""Percent-encoded, unicode and query-significant object keys, end to end.

Covers the whole path: URL parsing (:func:`parse_route`), the namespace /
row-key hashing (which must treat keys as opaque unicode), and a live
gateway round-trip through real sockets with a client that percent-encodes.
"""

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.routes import parse_route
from repro.gateway.server import ScaliaGateway
from repro.util.ids import object_row_key

TRICKY_KEYS = [
    "plain.txt",
    "with space.txt",
    "nested/path/file.bin",
    "質問?.txt",                      # unicode + literal '?'
    "фото/лето.jpg",                 # cyrillic path
    "emoji-😀/file.dat",
    "percent%20literal.txt",         # literal '%20' in the key itself
    "amp&eq=val.txt",                # query-significant characters
    "hash#fragment.txt",
    "plus+sign.txt",
]


class TestParseRouteDecoding:
    @pytest.mark.parametrize("key", TRICKY_KEYS)
    def test_quoted_key_survives_route_parse(self, key):
        from urllib.parse import quote

        route = parse_route("GET", f"/bucket/{quote(key, safe='/')}")
        assert route.kind == "object"
        assert route.key == key
        # nothing leaked into the query parameters
        assert route.params == {}

    def test_unquoted_question_mark_splits_query(self):
        # An unencoded '?' is, by HTTP rules, the query separator: the key
        # stops there.  Clients must percent-encode; this documents why.
        route = parse_route("GET", "/bucket/what?is=this")
        assert route.key == "what"
        assert route.params == {"is": "this"}


class TestRowKeyHashing:
    @pytest.mark.parametrize("key", TRICKY_KEYS)
    def test_row_keys_distinct_and_stable(self, key):
        assert object_row_key("c", key) == object_row_key("c", key)

    def test_no_collisions_across_tricky_keys(self):
        hashes = {object_row_key("c", key) for key in TRICKY_KEYS}
        assert len(hashes) == len(TRICKY_KEYS)


class TestLiveRoundTrip:
    @pytest.fixture()
    def client(self):
        frontend = BrokerFrontend(Scalia())
        gw = ScaliaGateway(frontend, port=0).start()
        host, port = gw.address
        with GatewayClient(host, port, tenant="uni") as c:
            yield c
        gw.close()
        frontend.close()

    def test_every_tricky_key_roundtrips(self, client):
        for i, key in enumerate(TRICKY_KEYS):
            payload = f"payload-{i}".encode() * 10
            info = client.put("bucket", key, payload)
            assert info["key"] == key
            assert client.get("bucket", key) == payload
            head = client.head("bucket", key)
            assert head is not None and head["size"] == str(len(payload))
        assert client.list("bucket") == sorted(TRICKY_KEYS)
        for key in TRICKY_KEYS:
            client.delete("bucket", key)
        assert client.list("bucket") == []

    def test_prefix_listing_with_unicode_prefix(self, client):
        client.put("bucket", "фото/лето.jpg", b"x")
        client.put("bucket", "фото/зима.jpg", b"y")
        client.put("bucket", "docs/a.txt", b"z")
        page = client.list_page("bucket", prefix="фото/")
        assert page["keys"] == ["фото/зима.jpg", "фото/лето.jpg"]
