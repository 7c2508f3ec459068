"""Route parsing and the exception -> HTTP status contract."""

import pytest

from repro.cluster.engine import (
    InvalidContinuationTokenError,
    InvalidRangeError,
    MultipartError,
    NoSuchUploadError,
    ObjectNotFoundError,
    PlacementError,
    ReadFailedError,
    WriteFailedError,
)
from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.namespace import NamespaceError
from repro.gateway.routes import (
    ROUTES,
    RouteError,
    etag_matches,
    parse_range_header,
    parse_route,
    error_answer,
    resolve_byte_range,
)
from repro.gateway.server import GatewayHandler
from repro.providers.provider import (
    CapacityExceededError,
    ChunkCorruptionError,
    ChunkTooLargeError,
    ProviderUnavailableError,
)
from repro.replication.rpc import RpcError, RpcUnreachableError


class TestParseRoute:
    def test_healthz(self):
        route = parse_route("GET", "/healthz")
        assert route.kind == "health"

    def test_stats(self):
        assert parse_route("GET", "/stats").kind == "stats"

    def test_tick_with_params(self):
        route = parse_route("POST", "/tick?periods=24")
        assert route.kind == "tick"
        assert route.params["periods"] == "24"

    def test_tick_requires_post(self):
        with pytest.raises(RouteError) as err:
            parse_route("GET", "/tick")
        assert err.value.status == 405

    def test_object_route(self):
        route = parse_route("PUT", "/photos/cat.gif")
        assert (route.kind, route.bucket, route.key) == ("object", "photos", "cat.gif")

    def test_object_key_may_contain_slashes(self):
        route = parse_route("GET", "/photos/2012/07/cat.gif")
        assert route.bucket == "photos"
        assert route.key == "2012/07/cat.gif"

    def test_object_key_is_url_decoded(self):
        route = parse_route("GET", "/photos/my%20vacation.gif")
        assert route.key == "my vacation.gif"

    def test_bucket_list(self):
        route = parse_route("GET", "/photos?list")
        assert (route.kind, route.bucket) == ("list", "photos")
        bare = parse_route("GET", "/photos")
        assert (bare.kind, bare.bucket) == ("list", "photos")

    def test_bare_bucket_rejects_other_methods(self):
        with pytest.raises(RouteError) as err:
            parse_route("DELETE", "/photos")
        assert err.value.status == 405

    def test_root_is_unroutable(self):
        with pytest.raises(RouteError):
            parse_route("GET", "/")

    def test_post_on_object_needs_multipart_params(self):
        # POST became a routable object method for the multipart protocol;
        # without ?uploads or ?uploadId it is a malformed request (400),
        # not an unsupported method.
        with pytest.raises(RouteError) as err:
            parse_route("POST", "/photos/cat.gif")
        assert err.value.status == 400

    def test_post_multipart_create_and_complete(self):
        create = parse_route("POST", "/photos/cat.gif?uploads")
        assert create.kind == "object"
        assert "uploads" in create.params
        complete = parse_route("POST", "/photos/cat.gif?uploadId=u-1")
        assert complete.params["uploadId"] == "u-1"

    def test_put_part_route(self):
        route = parse_route("PUT", "/photos/cat.gif?partNumber=3&uploadId=u-1")
        assert route.kind == "object"
        assert route.params["partNumber"] == "3"
        assert route.params["uploadId"] == "u-1"

    def test_405_carries_allow(self):
        with pytest.raises(RouteError) as err:
            parse_route("PATCH", "/photos/cat.gif")
        assert err.value.status == 405
        assert "PUT" in err.value.allow and "GET" in err.value.allow
        with pytest.raises(RouteError) as err:
            parse_route("GET", "/tick")
        assert err.value.allow == "POST"

    def test_list_v2_params(self):
        route = parse_route(
            "GET",
            "/photos?list-type=2&prefix=2012/&delimiter=/&max-keys=5"
            "&continuation-token=abc",
        )
        assert route.kind == "list"
        assert route.params["prefix"] == "2012/"
        assert route.params["max-keys"] == "5"

    def test_key_with_query_significant_characters(self):
        # A '?' inside a key must be percent-encoded by the client; the
        # decoded key carries the literal character after the query split.
        route = parse_route("GET", "/photos/what%3Fis%23this.gif")
        assert route.key == "what?is#this.gif"
        assert route.params == {}

    def test_unicode_key_decodes(self):
        route = parse_route("GET", "/photos/%E5%86%99%E7%9C%9F/%C3%A9t%C3%A9.gif")
        assert route.key == "写真/été.gif"

    def test_scrub_route(self):
        route = parse_route("POST", "/scrub?repair=0")
        assert route.kind == "scrub"
        assert route.params["repair"] == "0"

    def test_scrub_requires_post(self):
        with pytest.raises(RouteError) as err:
            parse_route("GET", "/scrub")
        assert err.value.status == 405

    def test_every_row_names_a_handler(self):
        for row in ROUTES:
            for handler in row.methods.values():
                assert callable(getattr(GatewayHandler, handler, None)), handler


class TestStatusMapping:
    @pytest.mark.parametrize(
        "exc,status",
        [
            (ObjectNotFoundError("gone"), 404),
            (NamespaceError("bad bucket"), 400),
            (RouteError("no route"), 400),
            (RouteError("bad method", status=405), 405),
            (PlacementError("no feasible placement"), 507),
            (WriteFailedError("unreachable"), 507),
            (ReadFailedError("not enough chunks"), 503),
            (ProviderUnavailableError("down", "S3(h)"), 503),
            # The provider pool is genuinely full: insufficient storage,
            # not a silent 500 (these two used to fall through).
            (CapacityExceededError("full", "NAS"), 507),
            # A chunk over the provider's object-size limit is the
            # client's payload problem.
            (ChunkTooLargeError("too big", "Azu"), 400),
            # Detected corruption pending scrub-repair reads as transient.
            (ChunkCorruptionError("bad crc", "k"), 503),
            # A stray ValueError/KeyError deep in the broker is a server
            # bug, not a client error: it must surface as a 500 (the old
            # blanket 400 masked genuine bugs as client mistakes).
            (ValueError("bad input"), 500),
            (KeyError("dc9"), 500),
            (RuntimeError("boom"), 500),
            (InvalidRangeError("past the end"), 416),
            (NoSuchUploadError("u-404"), 404),
            (MultipartError("bad part"), 400),
            (InvalidContinuationTokenError("junk"), 400),
            # A worker that cannot reach its broker says "come back
            # later"; an error the broker reported stays a server bug.
            (RpcUnreachableError("rpc head to 127.0.0.1:1: refused"), 503),
            (RpcError("unexpected failure in the broker"), 500),
        ],
    )
    def test_mapping(self, exc, status):
        assert error_answer(exc)[0] == status


class TestRangeHeader:
    def test_absent_and_non_byte_units(self):
        assert parse_range_header(None) is None
        assert parse_range_header("items=0-4") is None

    def test_simple_and_open_ranges(self):
        assert parse_range_header("bytes=0-499") == (0, 499)
        assert parse_range_header("bytes=500-") == (500, None)

    def test_suffix_range_resolves_against_size(self):
        assert parse_range_header("bytes=-300") == (None, 300)
        assert resolve_byte_range((None, 300), 1000) == (700, None)
        assert resolve_byte_range((None, 5000), 1000) == (0, None)

    def test_multi_range_is_ignored(self):
        assert parse_range_header("bytes=0-1,5-9") is None

    def test_inverted_range_is_416(self):
        # Parsed as sent; the version being read refuses it, after the
        # preconditions, and the 416 names that version's size.
        assert parse_range_header("bytes=500-100") == (500, 100)
        broker = Scalia()
        try:
            frontend = BrokerFrontend(broker)
            frontend.put("t", "bkt", "k", b"x" * 1000)
            with pytest.raises(InvalidRangeError) as err:
                frontend.stream_get("t", "bkt", "k", range_spec=(500, 100))
        finally:
            broker.close()
        assert err.value.object_size == 1000
        assert error_answer(err.value) == (416, {"Content-Range": "bytes */1000"})

    def test_suffix_on_empty_object_is_416(self):
        assert parse_range_header("bytes=-10") == (None, 10)
        with pytest.raises(InvalidRangeError) as err:
            resolve_byte_range((None, 10), 0)
        assert err.value.object_size == 0


class TestEtagMatching:
    def test_star_matches_everything(self):
        assert etag_matches("*", "abc")

    def test_quoted_list_and_weak_tags(self):
        assert etag_matches('"abc", "def"', "def")
        assert etag_matches('W/"abc"', "abc")
        assert not etag_matches('"abc"', "xyz")
