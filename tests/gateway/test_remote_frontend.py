"""RemoteBrokerFrontend over a real ops RPC server, in process.

The pre-fork data plane without the processes: a broker with a local
:class:`BrokerFrontend` behind :class:`OpsService`/:class:`RpcServer`,
and a :class:`RemoteBrokerFrontend` talking to it over loopback TCP —
exactly what a gateway worker does, minus fork/exec.  Asserts the remote
frontend is a drop-in for the local one (same results, same exceptions,
same broker-side accounting) and that stripe payloads survive the binary
hop bit-exact.
"""

import functools
import hashlib
import http.client
import io
import json
import random

import pytest
from test_cluster_routes import Stack, _raw, wait_for  # same directory, rootless tests

from repro.cluster.engine import (
    BadDigestError,
    InvalidRangeError,
    ObjectNotFoundError,
    ReadPlan,
    WriteFailedError,
)
from repro.cluster.multipart import MultipartState, PartState
from repro.core.broker import Scalia
from repro.erasure.striping import split_object
from repro.gateway.frontend import BrokerFrontend, FrontendClosedError
from repro.gateway.ops import (
    OPERATIONS,
    WIRE_ERRORS,
    OpsService,
    error_doc,
    error_from_doc,
    from_wire,
    to_wire,
)
from repro.gateway.remote import RemoteBrokerFrontend
from repro.gateway.routes import (
    NotModifiedError,
    PreconditionFailedError,
    error_answer,
)
from repro.gateway.server import ScaliaGateway
from repro.obs.workers import WorkerMetricsAggregator
from repro.providers.faults import FaultProfile
from repro.providers.provider import ProviderUnavailableError, _tampered
from repro.replication import rpc
from repro.replication.frontend import WRITE_OPS
from repro.replication.rpc import RpcError
from repro.storage.backend import ChunkCorruptionError
from repro.storage.merkle import chunk_root
from repro.types import ListPage, ObjectMeta

STRIPE = 4096
TENANT = "alice"


@pytest.fixture()
def rig():
    broker = Scalia(stripe_size_bytes=STRIPE)
    local = BrokerFrontend(broker, mode="direct")
    aggregator = WorkerMetricsAggregator(broker.metrics)
    ops = OpsService(local, aggregator=aggregator)
    server = ops.serve("127.0.0.1", 0)
    host, port = server.address
    remote = RemoteBrokerFrontend(host, port)
    yield {"broker": broker, "local": local, "remote": remote, "server": server, "ops": ops}
    remote.close()
    server.close()
    local.close()
    broker.close()


@pytest.fixture()
def remote(rig):
    return rig["remote"]


def _drain(blocks):
    return b"".join(bytes(b) for b in blocks)


def _counted(rig):
    """``(ops, errors)`` as ``/stats`` reads them once the worker pushed:
    the broker's ``scalia_frontend_ops_total``, read without counting a
    ``stats``."""
    rig["remote"].push_metrics(0, 1)
    counts = {"ok": {}, "error": {}}
    family = rig["broker"].metrics.collect().get("scalia_frontend_ops_total", {"children": ()})
    for (op, outcome), n in family["children"]:
        counts[outcome][op] = int(n)
    return counts["ok"], counts["error"]


class TestObjectRoundTrip:
    def test_small_put_get(self, remote):
        meta = remote.put(TENANT, "bkt", "small", b"hello world")
        assert meta.size == 11
        assert meta.checksum == hashlib.md5(b"hello world").hexdigest()
        assert remote.get(TENANT, "bkt", "small") == b"hello world"

    def test_multi_stripe_put_get(self, remote):
        payload = bytes(range(256)) * 100  # 25600 B -> 7 stripes @ 4096
        meta = remote.put(TENANT, "bkt", "big", payload)
        assert meta.size == len(payload)
        assert remote.get(TENANT, "bkt", "big") == payload

    def test_stripe_aligned_payload(self, remote):
        # Exactly k stripes: exercises the zero-copy encode fast path
        # end to end (worker slices ship as memoryviews, no pad copy).
        payload = bytes(range(256)) * 16 * 3  # 3 * 4096
        remote.put(TENANT, "bkt", "aligned", payload)
        assert remote.get(TENANT, "bkt", "aligned") == payload

    def test_streamed_put_from_file_like(self, remote):
        payload = b"\xab" * (3 * STRIPE + 17)
        remote.put(TENANT, "bkt", "streamed", io.BytesIO(payload))
        assert remote.get(TENANT, "bkt", "streamed") == payload

    def test_get_with_meta_is_consistent(self, remote):
        # The bytes and the plan's metadata come out of the one-hold open.
        payload = b"consistency" * 997
        remote.put(TENANT, "bkt", "gwm", payload)
        plan, blocks = remote.stream_get(TENANT, "bkt", "gwm")
        body, meta = _drain(blocks), plan.meta
        assert body == payload
        assert meta.size == len(payload)
        assert meta.checksum == hashlib.md5(payload).hexdigest()

    def test_head_list_delete(self, remote):
        remote.put(TENANT, "bkt", "one", b"1")
        remote.put(TENANT, "bkt", "two", b"22")
        assert remote.head(TENANT, "bkt", "one").size == 1
        page = remote.list(TENANT, "bkt")
        assert page.keys == ["one", "two"]
        remote.delete(TENANT, "bkt", "one")
        assert remote.head(TENANT, "bkt", "one") is None
        assert remote.list(TENANT, "bkt").keys == ["two"]

    def test_results_match_local_frontend(self, rig):
        payload = bytes(range(256)) * 50
        rig["remote"].put(TENANT, "bkt", "both", payload)
        # Metadata written through the RPC path is visible to the local
        # frontend (single broker owns it) and bytes agree.
        assert rig["local"].get(TENANT, "bkt", "both") == payload

    def test_a_put_through_the_stub_takes_the_brokers_layout(self, rig):
        """Chunk order is decided where the placement is, in the broker's
        ``write_begin``; the worker only echoes the session.  So a PUT
        through the stub lands as the in-process one does: same chunk
        map, and with every provider healthy the first ``m`` chunks the
        serving order names are the data chunks ``0..m-1``."""
        engine = rig["broker"].cluster.all_engines()[0]
        for key, payload in (("one", b"x" * 900), ("many", bytes(range(256)) * 50)):
            via_stub = rig["remote"].put(TENANT, "bkt", f"stub-{key}", payload)
            in_process = rig["local"].put(TENANT, "bkt", f"local-{key}", payload)
            assert via_stub.chunk_map == in_process.chunk_map
            assert (via_stub.m, via_stub.stripe_count) == (in_process.m, in_process.stripe_count)
            served = engine._serving_order(via_stub)[: via_stub.m]  # noqa: SLF001
            assert [index for index, _ in served] == list(range(via_stub.m))
            assert rig["remote"].get(TENANT, "bkt", f"stub-{key}") == payload

    #: Every admin and namespace route, the errors a worker used to
    #: answer differently, and every answer a GET has (what the one
    #: ``open_get`` frame must carry).  ``{upload}`` is the side's last
    #: created upload; a fourth element is the request's headers.
    _PROVIDER = "S3(h)"
    _A = b"alpha" * 2000  # three stripes of 4 KiB
    _A_ETAG = f'"{hashlib.md5(_A).hexdigest()}"'
    REQUESTS = [
        ("GET", "/healthz", None),
        ("PUT", "/bkt/a", _A),
        ("GET", "/bkt/a", None),
        ("HEAD", "/bkt/a", None),
        ("GET", "/bkt/a", None, {"If-None-Match": _A_ETAG}),
        ("GET", "/bkt/a", None, {"If-Match": '"somebody-else"'}),
        ("GET", "/bkt/a", None, {"If-Match": _A_ETAG, "If-None-Match": '"stale"'}),
        ("GET", "/bkt/a", None, {"Range": "bytes=10-20", "If-None-Match": _A_ETAG}),
        ("GET", "/bkt/a", None, {"Range": "bytes=10-20", "If-Match": '"somebody-else"'}),
        ("GET", "/bkt/a", None, {"Range": "bytes=4000-5000"}),  # spans two stripes
        ("GET", "/bkt/a", None, {"Range": "bytes=-300"}),
        ("GET", "/bkt/a", None, {"Range": "bytes=20000-"}),
        ("GET", "/bkt/a", None, {"Range": "bytes=500-100"}),
        ("GET", "/bkt/a", None, {"Range": "bytes=-0"}),
        # Preconditions before Range (RFC 9110 §13.2.2).
        ("GET", "/bkt/a", None, {"Range": "bytes=500-100", "If-None-Match": _A_ETAG}),
        ("HEAD", "/bkt/a", None, {"If-None-Match": _A_ETAG}),
        ("PATCH", "/bkt/a", None),
        ("PUT", "/bkt/empty", b""),
        ("GET", "/bkt/empty", None),
        ("GET", "/bkt/empty", None, {"Range": "bytes=-5"}),
        ("GET", "/bkt/ghost", None),
        ("GET", "/bkt/ghost", None, {"Range": "bytes=500-100"}),
        ("HEAD", "/bkt/ghost", None),
        ("DELETE", "/bkt/ghost", None),
        ("GET", "/bkt", None),
        ("GET", "/bkt?prefix=a&max-keys=1&delimiter=/", None),
        ("GET", "/bkt?continuation-token=garbage", None),
        ("POST", "/bkt/mp?uploads", None),
        ("PUT", "/bkt/mp?partNumber=1&uploadId={upload}", b"part one"),
        ("GET", "/bkt?uploads", None),
        ("POST", "/bkt/mp?uploadId={upload}", None),
        ("GET", "/bkt/mp", None),
        ("POST", "/bkt/mp?uploadId=nope", None),
        ("POST", "/bkt/dropped?uploads", None),
        ("DELETE", "/bkt/dropped?uploadId={upload}", None),
        ("POST", "/explain", {"bucket": "bkt", "key": "a"}),
        ("POST", "/explain", {"bucket": "bkt", "key": "ghost"}),
        ("DELETE", "/bkt/a", None),
        ("GET", "/stats", None),
        ("GET", "/metrics", None),
        ("GET", "/metrics?format=json", None),
        ("GET", "/metrics?format=openmetrics", None),
        ("GET", "/events?limit=5", None),
        ("GET", "/events?key=bkt/a&type=placement.", None),
        ("GET", "/history", None),
        ("GET", "/history?series=ops.&window=5m", None),
        ("GET", "/alerts", None),
        ("POST", "/tick", None),
        ("POST", "/tick?periods=2", None),
        ("POST", "/scrub", None),
        ("POST", "/scrub?repair=0", None),
        ("POST", "/audit?seed=1", None),
        ("GET", "/faults", None),
        ("POST", "/faults", {"provider": _PROVIDER, "profile": {"latency_ms": 1}}),
        ("POST", "/faults", {"provider": _PROVIDER, "profile": None}),
        ("POST", "/faults", {"provider": "nope", "profile": {"latency_ms": 1}}),
        ("POST", "/faults", {"provider": _PROVIDER, "profile": {"error_rate": 7}}),
        ("POST", "/faults", {"provider": _PROVIDER, "profile": {"flap": {"up_ops": 3}}}),
        ("GET", "/cluster", None),
    ]

    def test_http_answers_match_local_frontend(self, rig):
        """Two gateways over one broker, one per frontend: every route
        answers with the same status, the same error message and the
        same headers the error table declares, and the broker counts the
        same operations and errors for it (``ops`` and ``errors`` of
        ``/stats``).  An object GET also answers with the same headers
        and body for the same provider traffic.  Each side
        writes as its own tenant, so neither sees the other's keys."""
        sides = {
            name: ScaliaGateway(rig[name], port=0).start() for name in ("local", "remote")
        }
        uploads = {}

        def send(name, method, path, body, headers=None):
            if isinstance(body, dict):
                body = json.dumps(body).encode()
            before, billed = _counted(rig), _billed(rig["broker"])
            conn = http.client.HTTPConnection(*sides[name].address, timeout=30)
            try:
                conn.request(
                    method, path.format(upload=uploads.get(name)), body=body,
                    headers={"x-scalia-tenant": name, **(headers or {})},
                )
                response = conn.getresponse()
                raw = response.read()
            finally:
                conn.close()
            moved = [
                {op: n - was.get(op, 0) for op, n in now.items() if n != was.get(op, 0)}
                for was, now in zip(before, _counted(rig))
            ]
            try:
                doc = json.loads(raw)
            except ValueError:
                doc = {}
            if isinstance(doc, dict) and "uploadId" in doc:
                uploads[name] = doc["uploadId"]
            error = doc.get("error") if isinstance(doc, dict) else None
            answer = [response.status, error, moved]
            if method == "GET" and path.startswith("/bkt/") and "?" not in path:
                stable = TestRangedReadDifferential.STABLE
                traffic = tuple(b - a for a, b in zip(billed, _billed(rig["broker"])))
                answer += [{h: response.headers.get(h) for h in stable}, raw, traffic]
            answer.append({h: response.headers.get(h) for h in ("Allow", "ETag", "Retry-After")})
            return answer

        try:
            answers = {
                (method, path, str(body)[:40], str(headers)): [
                    send(name, method, path, body, *headers) for name in ("local", "remote")
                ]
                for method, path, body, *headers in self.REQUESTS
            }
        finally:
            for gateway in sides.values():
                gateway.close()
        diverged = {k: v for k, v in answers.items() if v[0] != v[1]}
        assert not diverged
        statuses = {local[0] for local, _ in answers.values()}
        assert {200, 206, 304, 400, 404, 405, 412, 416} <= statuses  # all in the list

        reads = [local for local, _ in answers.values() if len(local) > 4]
        for status, error, _moved, headers, body, traffic, _ in reads:
            if status in (304, 404, 412, 416):
                assert traffic == (0, 0), (status, traffic)  # refused before any read
            if status == 404:
                assert error == "bkt/ghost not found"  # the tenant's name for it
            if status == 416:
                assert headers["Content-Range"] in ("bytes */10000", "bytes */0")
                assert error == "requested range not satisfiable"  # no internal name

        def worker_read(path, **headers):
            return answers["GET", path, "None", str([headers] if headers else [])][1]

        a = self._A
        assert worker_read("/bkt/a")[4] == a
        empty = worker_read("/bkt/empty")
        assert (empty[0], empty[3]["Content-Length"], empty[4]) == (200, "0", b"")
        spanning = worker_read("/bkt/a", Range="bytes=4000-5000")
        assert spanning[3]["Content-Range"] == "bytes 4000-5000/10000"
        assert spanning[4] == a[4000:5001]
        assert worker_read("/bkt/a", Range="bytes=-300")[4] == a[-300:]
        # A GET is a ``get`` (open, first stripe and commit) plus a
        # ``get_stripe`` per further stripe whichever process served it, a
        # missing key an ``errors.get``, and neither is a ``head``.
        assert worker_read("/bkt/a")[2] == [{"get": 1, "get_stripe": 2}, {}]
        assert spanning[2] == [{"get": 1, "get_stripe": 1}, {}]
        assert worker_read("/bkt/ghost")[2] == [{}, {"get": 1}]
        # An unsatisfiable range is judged by the one ``get``: no ``head``.
        assert worker_read("/bkt/a", Range="bytes=500-100")[2] == [{}, {"get": 1}]
        assert worker_read("/bkt/ghost", Range="bytes=500-100")[2] == [{}, {"get": 1}]
        assert answers["PATCH", "/bkt/a", "None", "[]"][1][3] == {
            "Allow": "DELETE, GET, HEAD, POST, PUT", "ETag": None, "Retry-After": None,
        }
        head_304 = answers["HEAD", "/bkt/a", "None", str([{"If-None-Match": self._A_ETAG}])][1]
        assert (head_304[0], head_304[3]["ETag"]) == (304, self._A_ETAG)


class TestStreamGet:
    def test_full_stream(self, remote):
        payload = bytes(range(256)) * 100
        remote.put(TENANT, "bkt", "s", payload)
        plan, blocks = remote.stream_get(TENANT, "bkt", "s")
        assert plan.length == len(payload)
        assert _drain(blocks) == payload

    def test_ranged_stream(self, remote):
        payload = bytes(range(256)) * 100
        remote.put(TENANT, "bkt", "s", payload)
        plan, blocks = remote.stream_get(TENANT, "bkt", "s", range_spec=(100, 300))
        assert (plan.start, plan.end) == (100, 300)
        assert _drain(blocks) == payload[100:301]

    def test_suffix_range_crossing_stripes(self, remote):
        payload = b"\x5a" * (2 * STRIPE) + bytes(range(256))
        remote.put(TENANT, "bkt", "s", payload)
        plan, blocks = remote.stream_get(
            TENANT, "bkt", "s", range_spec=(None, 300)
        )
        assert _drain(blocks) == payload[-300:]

    def test_if_none_match_304(self, remote):
        meta = remote.put(TENANT, "bkt", "cond", b"cached")
        with pytest.raises(NotModifiedError):
            remote.stream_get(TENANT, "bkt", "cond", if_none_match=meta.checksum)

    def test_unsatisfiable_range_carries_object_size(self, remote):
        remote.put(TENANT, "bkt", "tiny", b"abc")
        with pytest.raises(InvalidRangeError) as err:
            remote.stream_get(TENANT, "bkt", "tiny", range_spec=(10, 20))
        assert err.value.object_size == 3

    def test_missing_object_404(self, remote):
        with pytest.raises(ObjectNotFoundError):
            remote.stream_get(TENANT, "bkt", "ghost")

    def test_error_does_not_poison_connection(self, remote):
        # A typed error travels inside an ok response; the pooled RPC
        # connection must stay usable for the next call.
        with pytest.raises(ObjectNotFoundError):
            remote.get(TENANT, "bkt", "ghost")
        remote.put(TENANT, "bkt", "after", b"still works")
        assert remote.get(TENANT, "bkt", "after") == b"still works"


class TestMultipart:
    def test_upload_and_read_back(self, remote):
        part1 = b"\x01" * (2 * STRIPE + 5)
        part2 = b"\x02" * 100
        state = remote.create_upload(TENANT, "bkt", "mp")
        upload_id = state.upload_id
        remote.upload_part(TENANT, "bkt", "mp", upload_id, 1, part1)
        remote.upload_part(TENANT, "bkt", "mp", upload_id, 2, part2)
        meta = remote.complete_upload(TENANT, "bkt", "mp", upload_id)
        assert meta.size == len(part1) + len(part2)
        assert remote.get(TENANT, "bkt", "mp") == part1 + part2
        assert remote.list_uploads(TENANT, "bkt") == []

    def test_abort_discards(self, remote):
        state = remote.create_upload(TENANT, "bkt", "gone")
        remote.upload_part(TENANT, "bkt", "gone", state.upload_id, 1, b"x" * 50)
        remote.abort_upload(TENANT, "bkt", "gone", state.upload_id)
        assert remote.list_uploads(TENANT, "bkt") == []
        assert remote.head(TENANT, "bkt", "gone") is None


class TestAdminSurfaces:
    def test_stats_tick_scrub(self, remote):
        remote.put(TENANT, "bkt", "k", b"data")
        remote.push_metrics(0, 1)  # the worker counted the put
        stats = remote.stats()
        assert stats["ops"]["put"] >= 1
        assert "migrations" in remote.tick_report()
        assert remote.scrub(repair=True)["objects_scanned"] >= 0

    def test_history_alerts_recovery_faults(self, remote):
        assert isinstance(remote.history(), dict)
        assert isinstance(remote.alerts(), dict)
        assert isinstance(remote.recovery_status(), dict)
        assert isinstance(remote.fault_profiles(), dict)

    def test_closed_broker_frontend_raises_what_the_local_one_does(self, rig):
        rig["local"].close()
        with pytest.raises(FrontendClosedError):
            rig["local"].stats()
        for call in (rig["remote"].stats, rig["remote"].fault_profiles):
            with pytest.raises(FrontendClosedError):
                call()

    def test_explain(self, remote):
        remote.put(TENANT, "bkt", "why", b"explain me")
        doc = remote.explain(TENANT, "bkt", "why")
        assert doc["bucket"] == "bkt"
        with pytest.raises(ObjectNotFoundError):
            remote.explain(TENANT, "bkt", "missing")

    def test_events_flow_through(self, remote):
        remote.put(TENANT, "bkt", "evt", b"event source")
        events = remote.events
        assert events is not None
        found = events.query(limit=50)
        assert found  # the put itself journals


class TestAccounting:
    def test_broker_counts_remote_ops(self, rig):
        remote = rig["remote"]
        payload = bytes(range(256)) * 100
        remote.put(TENANT, "bkt", "c1", payload)
        remote.put(TENANT, "bkt", "c2", b"small")
        remote.get(TENANT, "bkt", "c1")
        remote.head(TENANT, "bkt", "c1")
        remote.delete(TENANT, "bkt", "c2")
        remote.push_metrics(0, 1)  # the worker counted them
        counts = rig["local"].stats()["ops"]
        assert counts["put"] >= 2
        assert counts["get"] >= 1
        assert counts["get_stripe"] >= 1
        assert "commit_read" not in counts  # the read logs inside its ``get``
        assert counts["head"] >= 1
        assert counts["delete"] >= 1

    def test_metrics_push_aggregates(self, rig):
        remote = rig["remote"]
        remote.put(TENANT, "bkt", "m", b"metric fodder")
        remote.get(TENANT, "bkt", "m")
        remote.push_metrics(slot=0, incarnation=1)
        text = rig["broker"].metrics.render_text()
        assert "scalia_gateway_workers_live 1" in text

    def test_remote_metrics_render_includes_broker_families(self, rig):
        remote = rig["remote"]
        remote.put(TENANT, "bkt", "m2", b"x")
        remote.push_metrics(slot=0, incarnation=1)
        # The worker's /metrics endpoint renders via RPC: whole-system
        # truth (broker families + folded worker contributions).
        text = remote.metrics.render_text()
        assert "scalia_gateway_workers_live" in text


def _stored_keys(broker):
    return {
        (p.name, ck) for p in broker.registry.providers() for ck in p.backend.keys()
    }


class TestWriteStripeFrame:
    """A stripe frame must carry one Merkle root per shard: a chunk never
    commits without its audit anchor."""

    def _stripe_args(self, call, roots):
        begin = call("write_begin", container="c", key="k", size_guess=64)
        chunks = split_object(b"audited" * 9, int(begin["m"]), len(begin["providers"]))
        args = dict(
            sid=begin["skey"], tag=None,  # an object session's sid is its skey
            indices=[c.index for c in chunks],
            lengths=[len(c.data) for c in chunks],
        )
        if roots == "short":
            args["roots"] = [chunk_root(c) for c in chunks][:-1]
        return begin["skey"], [c.data for c in chunks], args

    @pytest.mark.parametrize("roots", ["short", "missing"])
    def test_malformed_roots_rejected_before_any_chunk_ships(self, rig, roots):
        call = rig["remote"].broker._call
        sid, buffers, args = self._stripe_args(call, roots)
        with pytest.raises(ValueError, match="roots"):
            call("write_stripe", _buffers=buffers, **args)
        assert _stored_keys(rig["broker"]) == set()
        assert call("staged_abort", sid=sid)["deleted"] == 0
        assert len(rig["broker"].cluster.locks.in_flight) == 0


class TestWriteFailureCauses:
    def _fail_every_provider(self, broker):
        for name in broker.registry.names():
            broker.registry.set_fault_profile(name, FaultProfile(error_rate=1.0, seed=1))

    def test_driver_in_the_worker_collects_causes(self, rig):
        self._fail_every_provider(rig["broker"])
        with pytest.raises(WriteFailedError) as excinfo:
            rig["remote"].put(TENANT, "bkt", "k", b"nowhere to go")
        causes = excinfo.value.causes
        assert causes and set(causes) <= set(rig["broker"].registry.names())
        assert "per-provider causes" in str(excinfo.value)
        assert _stored_keys(rig["broker"]) == set()

    def test_causes_of_a_broker_side_failure_cross_the_wire(self, rig):
        # A synthetic put runs its driver in the broker process; the
        # WriteFailedError it raises reaches the worker with its causes.
        self._fail_every_provider(rig["broker"])
        with pytest.raises(WriteFailedError) as excinfo:
            rig["remote"].put(TENANT, "bkt", "k", 4096)
        causes = excinfo.value.causes
        assert causes and set(causes) <= set(rig["broker"].registry.names())
        assert all(str(exc) for exc in causes.values())


#: A value for every field an error row carries across the wire.
_FIELD_SAMPLES = {
    "object_size": 7, "provider_name": "S3(h)",
    "causes": {"S3(h)": RuntimeError("down")},
    "leader_url": "http://127.0.0.1:8090", "retry_after": 0.4,
    "etag": "9e107d9d372bb6826bd81d3542a419d6",
}


class TestErrorCodec:
    """Encode and decode come from one table, so no kind exists on one
    side only."""

    @pytest.mark.parametrize("row", WIRE_ERRORS, ids=lambda row: row.cls.__name__)
    def test_every_kind_round_trips(self, row):
        original = row.cls("what went wrong")
        for attr in row.fields:
            setattr(original, attr, _FIELD_SAMPLES[attr])
        doc = error_doc(original)
        assert doc["kind"] == row.kind
        decoded = error_from_doc(doc)
        # TypeError deliberately arrives as ValueError (both are a 500).
        expected = ValueError if row.cls is TypeError else row.cls
        assert type(decoded) is expected
        if "etag" in row.fields:
            # The 304 and the 412 fix their own message; what they carry
            # is the ETag the response needs.
            assert decoded.etag == _FIELD_SAMPLES["etag"]
        else:
            assert decoded.args[0] == "what went wrong"
        assert error_doc(decoded) == doc

    @pytest.mark.parametrize(
        "cls",
        sorted({row.cls for row in WIRE_ERRORS} | {BadDigestError}, key=lambda c: c.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_status_and_carried_fields_survive_the_wire(self, cls):
        # A worker answers what the broker's own gateway would have.
        original = cls("what went wrong")
        fields = next(row.fields for row in WIRE_ERRORS if isinstance(original, row.cls))
        for attr in fields:
            setattr(original, attr, _FIELD_SAMPLES[attr])
        decoded = error_from_doc(error_doc(original))
        assert error_answer(decoded) == error_answer(original)
        for attr in fields:
            sent, arrived = getattr(original, attr), getattr(decoded, attr)
            if attr == "causes":
                sent, arrived = ({k: str(v) for k, v in d.items()} for d in (sent, arrived))
            assert arrived == sent, attr

    def test_subclasses_encode_as_their_own_kind(self):
        kinds = [row.kind for row in WIRE_ERRORS]
        for row in WIRE_ERRORS:
            assert error_doc(row.cls("m"))["kind"] == row.kind, (
                f"{row.cls.__name__} is shadowed by an earlier base class"
            )
        assert len(set(kinds)) == len(kinds) - 1  # value_error twice

    def test_unmapped_exceptions_stay_internal_errors(self):
        assert error_doc(RuntimeError("boom")) is None
        assert isinstance(error_from_doc({"kind": "from_the_future"}), RpcError)


FRAMED = {
    "hello", "write_begin", "write_stripe", "write_replan", "write_commit",
    "part_begin", "part_commit", "staged_abort", "open_get", "read_stripe",
}


def _drives(rig):
    """One call per table row, through its installed stub, with the
    arguments ``BrokerFrontend`` and ``gateway/server.py`` pass; and the
    type each must answer with."""
    remote = rig["remote"]
    broker = remote.broker
    c = remote.mapper.internal_container(TENANT, "bkt")
    remote.put(TENANT, "bkt", "seed", b"seed" * 3000)
    remote.put(TENANT, "bkt", "doomed", b"x")
    uploads = [broker.create_multipart_upload(c, k) for k in ("done", "dropped")]
    remote.upload_part(TENANT, "bkt", "done", uploads[0].upload_id, 1, b"part")
    provider = rig["broker"].registry.names()[0]
    return {
        "broker.head": (lambda: broker.head(c, "seed"), ObjectMeta),
        "broker.put": (
            lambda: broker.put(c, "syn", 4096, mime="a/b", rule=None, size_hint=None),
            ObjectMeta),
        "broker.delete": (lambda: broker.delete(c, "doomed"), type(None)),
        "broker.list": (
            lambda: broker.list(
                c, prefix="s", delimiter="/", max_keys=5, continuation_token=None),
            ListPage),
        "broker.create_multipart_upload": (
            lambda: broker.create_multipart_upload(
                c, "mp", mime="a/b", rule=None, size_hint=None),
            MultipartState),
        "broker.complete_multipart_upload": (
            lambda: broker.complete_multipart_upload(
                c, "done", uploads[0].upload_id, [(1, None)]),
            ObjectMeta),
        "broker.abort_multipart_upload": (
            lambda: broker.abort_multipart_upload(c, "dropped", uploads[1].upload_id),
            int),
        "broker.list_multipart_uploads": (
            lambda: broker.list_multipart_uploads(c), list),
        "broker.explain": (lambda: broker.explain(c, "seed"), dict),
        "frontend.stats": (remote.stats, dict),
        "frontend.tick_report": (lambda: remote.tick_report(2), dict),
        "frontend.scrub": (lambda: remote.scrub(repair=False), dict),
        "frontend.audit": (lambda: remote.audit(repair=True, seed=1), dict),
        "frontend.history": (
            lambda: remote.history(series="ops.", window_s=300.0), dict),
        "frontend.alerts": (remote.alerts, dict),
        "frontend.recovery_status": (remote.recovery_status, dict),
        "frontend.is_leader": (remote.is_leader, bool),
        "frontend.leader_gateway_url": (remote.leader_gateway_url, type(None)),
        "frontend.cluster_status": (remote.cluster_status, type(None)),
        "frontend.fault_profiles": (remote.fault_profiles, dict),
        "frontend.set_fault_profile": (
            lambda: remote.set_fault_profile(provider, {"latency_ms": 1}), dict),
        "broker.events.query": (
            lambda: remote.events.query(type=None, since=None, key=f"{c}/seed", limit=256),
            list),
        "broker.events.emit": (
            lambda: remote.events.emit(
                "cluster.unavailable", reason="r", method="PUT", route="object"),
            int),
        "broker.events.stats": (remote.events.stats, dict),
        "broker.metrics.render_text": (remote.metrics.render_text, str),
        "broker.metrics.render_openmetrics": (remote.metrics.render_openmetrics, str),
        "broker.metrics.render_json": (remote.metrics.render_json, dict),
        "aggregator.push": (lambda: remote.push_metrics(0, 1), type(None)),
        "aggregator.retire": (lambda: remote.retire_metrics(0), type(None)),
    }


class TestOperationTable:
    """Handler, worker stub, counter and write gate all come from one
    row, so none of them can exist for an operation the others lack."""

    def test_handlers_are_the_rows_plus_the_framed_ops(self, rig):
        targets = [op.target for op in OPERATIONS]
        assert len(set(targets)) == len(targets)
        assert set(rig["ops"].handlers()) == set(targets) | FRAMED

    def test_every_target_is_a_method_of_the_broker_side(self, rig):
        roots = {
            "broker": rig["broker"], "frontend": rig["local"],
            "aggregator": rig["ops"].aggregator,
        }
        for op in OPERATIONS:
            root, *path = op.target.split(".")
            target = roots[root]
            for name in path:
                target = getattr(target, name)
            assert callable(target), op.target

    def test_every_row_is_served_through_its_stub(self, rig):
        drives = _drives(rig)
        assert set(drives) == {op.target for op in OPERATIONS}
        for op in OPERATIONS:
            call, answer = drives[op.target]
            if op.counter is not None and op.target.startswith("broker."):
                # As the worker's frontend makes the call: under its own
                # count, which the broker's handler must not repeat.
                call = functools.partial(rig["remote"]._run, op.counter, call)
            before = _counted(rig)[0].get(op.counter, 0)
            assert type(call()) is answer, op.target
            if op.counter is not None:  # counted once, whoever counts it
                assert _counted(rig)[0][op.counter] == before + 1, op.target

    def test_write_gate_is_the_nine_mutating_counters(self):
        assert WRITE_OPS == {
            "put", "delete", "create_upload", "upload_part", "complete_upload",
            "abort_upload", "tick", "scrub", "audit",
        }

    def test_a_frame_that_does_not_fit_the_target_is_a_400_not_a_500(self, rig):
        call = rig["remote"].broker._call
        with pytest.raises(ValueError, match="no_such_option"):
            call("broker.head", args=["c", "k"], kwargs={"no_such_option": 1})
        with pytest.raises(ValueError, match="wire type"):
            call("broker.explain", args=[{"__wire__": "Placement", "value": {}}, "k"])

    def test_typed_values_round_trip(self, rig):
        remote = rig["remote"]
        meta = remote.put(TENANT, "bkt", "typed", b"t" * (2 * STRIPE + 1))
        upload = remote.create_upload(TENANT, "bkt", "mp")
        part = remote.upload_part(TENANT, "bkt", "mp", upload.upload_id, 1, b"p")
        upload = remote.list_uploads(TENANT, "bkt")[0]
        plan, _blocks = remote.stream_get(TENANT, "bkt", "typed", range_spec=(5, STRIPE + 5))
        page = ListPage(keys=["a"], common_prefixes=["b/"], next_token="t", is_truncated=True)
        values = [meta, upload, part, page]
        assert [type(v) for v in values] == [
            ObjectMeta, MultipartState, PartState, ListPage]
        assert upload.parts and len(plan.segments) == 2
        for value in values:
            wire = json.loads(json.dumps(to_wire(value)))
            assert from_wire(wire) == value
        # A plan crosses inside the ``open_get`` reply, as its own document.
        assert type(plan) is ReadPlan
        assert ReadPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
        nested = {"metas": [meta, None], "n": (1, 2.5, "x")}
        assert from_wire(json.loads(json.dumps(to_wire(nested)))) == {
            "metas": [meta, None], "n": [1, 2.5, "x"]}

    def test_a_plain_dict_cannot_pose_as_a_typed_value(self):
        doc = {"__wire__": "ObjectMeta", "value": {"nested": {"__wire__": 1}}}
        assert from_wire(json.loads(json.dumps(to_wire(doc)))) == doc


def _count_frames(server):
    """Wrap an ``RpcServer``'s handlers in place; returns the list every
    served op name is appended to (as ``benchmarks/spine/layers.py`` counts)."""
    frames = []

    def counted(op, handler):
        def wrapper(request):
            frames.append(op)
            return handler(request)

        return wrapper

    server.handlers = {op: counted(op, h) for op, h in server.handlers.items()}
    return frames


def _send(gateway, method, path, body=None, headers=None):
    status, answered, raw = _raw(gateway, method, path, body=body, headers=headers)
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = {}
    return status, answered.get("Retry-After"), doc


class TestClusterSurface:
    """The four HTTP-layer answers of a cluster node (``requires_leader``,
    ``is_leader``, ``leader_gateway_url``, ``cluster_status``) from a
    worker: free when there is no cluster, the broker's when there is."""

    def test_unclustered_worker_pays_no_rpc_to_hear_that_it_leads(self, rig):
        frames = _count_frames(rig["server"])
        remote = rig["remote"]
        assert remote.clustered is False
        for kind, method in (("object", "PUT"), ("tick", "POST"), ("object", "GET")):
            assert remote.requires_leader(kind, method) is False
        assert frames == []
        gateway = ScaliaGateway(remote, port=0).start()
        try:
            assert _send(gateway, "PUT", "/bkt/k", body=b"v" * 100)[0] == 200
            assert frames == ["write_begin", "write_stripe", "write_commit"]
            del frames[:]
            assert _send(gateway, "GET", "/bkt/k")[0] == 200
            assert frames == ["open_get"]
            assert _send(gateway, "DELETE", "/bkt/k")[0] == 204
            assert _send(gateway, "POST", "/tick")[0] == 200
        finally:
            gateway.close()
        assert not {"frontend.is_leader", "frontend.leader_gateway_url"} & set(frames)

    def test_clustered_worker_pays_one_is_leader_per_mutating_request(self, tmp_path):
        leader = Stack(tmp_path, "solo")
        try:
            wait_for(leader.node.is_leader, what="bootstrap election")
            worker = leader.worker()
            frames = _count_frames(worker.server)
            assert _send(worker.gateway, "PUT", "/bkt/k", body=b"v" * 100)[0] == 200
            assert frames == [
                "frontend.is_leader", "write_begin", "write_stripe", "write_commit"
            ]
            del frames[:]
            assert _send(worker.gateway, "GET", "/bkt/k")[0] == 200
            assert "frontend.is_leader" not in frames
        finally:
            leader.close()

    def test_cluster_answers_match_the_in_process_gateway(self, tmp_path):
        """Worker and in-process gateway of the same node, request by
        request: ``GET /cluster``, a follower write (forwarded), a write
        already forwarded once to a non-leader, a write with no leader."""
        leader = Stack(tmp_path, "n1")
        wait_for(leader.node.is_leader, what="bootstrap election")
        follower = Stack(tmp_path, "n2", join=leader.node.rpc_address)
        probe = random.Random(11).randrange(20000, 65000)
        orphan = Stack(tmp_path, "orphan", join=("127.0.0.1", probe))
        try:
            wait_for(lambda: len(follower.node.members) == 2, what="membership")
            wait_for(
                lambda: follower.node.leader_gateway_url() == leader.gateway.url,
                what="the follower to learn the leader's gateway",
            )
            stable = ("node_id", "role", "leader", "leader_gateway", "quorum")

            def both(stack, method, path, **kwargs):
                answers = [
                    _send(gateway, method, path, **kwargs)
                    for gateway in (stack.gateway, stack.worker().gateway)
                ]
                return [
                    (status, retry, doc.get("error", {k: doc.get(k) for k in stable}))
                    for status, retry, doc in answers
                ]

            body = dict(body=b"w" * 300, headers={"Content-Length": "300"})
            once = dict(body=b"w" * 300,
                        headers={"Content-Length": "300", "x-scalia-forwarded": "1"})
            answers = {
                "cluster": both(follower, "GET", "/cluster"),
                "forwarded write": both(follower, "PUT", "/bkt/fwd", **body),
                "second hop": both(follower, "PUT", "/bkt/hop", **once),
                "no leader": both(orphan, "PUT", "/bkt/none", **body),
                "no leader, cluster": both(orphan, "GET", "/cluster"),
            }
            diverged = {k: v for k, v in answers.items() if v[0] != v[1]}
            assert not diverged
            assert answers["cluster"][0][2]["role"] == "follower"
            assert answers["forwarded write"][0][0] == 200
            assert leader.frontend.head("public", "bkt", "fwd").size == 300
            for refused, why in (("second hop", "leadership changed"),
                                 ("no leader", "no cluster leader")):
                status, retry, error = answers[refused][0]
                assert status == 503 and int(retry) >= 1 and why in error
        finally:
            orphan.close()
            follower.close()
            leader.close()


MiB = 1024 * 1024


@pytest.fixture()
def leafy():
    """A rig whose chunks span several Merkle leaves (1 MiB stripes), one
    3 MiB object in it, and a gateway per frontend over the one broker."""
    broker = Scalia(stripe_size_bytes=MiB)
    local = BrokerFrontend(broker)
    server = OpsService(local).serve("127.0.0.1", 0)
    remote = RemoteBrokerFrontend(*server.address)
    payload = random.Random(5).randbytes(3 * MiB + 4321)
    meta = remote.put("shared", "bkt", "leafy", payload)
    sides = {
        "local": ScaliaGateway(local, port=0).start(),
        "remote": ScaliaGateway(remote, port=0).start(),
    }
    yield {
        "broker": broker, "meta": meta, "payload": payload, "sides": sides,
        "local": local, "remote": remote, "server": server,
    }
    for gateway in sides.values():
        gateway.close()
    remote.close()
    server.close()
    local.close()
    broker.close()


def _billed(broker):
    totals = [p.meter.total() for p in broker.registry.providers()]
    return sum(t.ops_get for t in totals), sum(t.bytes_out for t in totals)


class TestRangedReadDifferential:
    """Ranged rows of the worker-vs-in-process differential, on an object
    whose ranges are narrower than its chunks: same status, headers and
    body, and the same provider traffic, whichever process cut the window."""

    STABLE = ("Content-Range", "Content-Length", "Content-Type", "ETag", "Accept-Ranges")

    def ask(self, leafy, side, range_header):
        before = _billed(leafy["broker"])
        status, headers, body = _raw(
            leafy["sides"][side], "GET", "/bkt/leafy",
            headers={"x-scalia-tenant": "shared", "Range": range_header},
        )
        after = _billed(leafy["broker"])
        stable = {name: headers.get(name) for name in self.STABLE}
        return status, stable, body, (after[0] - before[0], after[1] - before[1])

    def ranges(self, meta):
        row = -(-MiB // meta.m)  # chunk size of a full stripe
        return [
            (1000, 1000 + 65535),  # inside row 0
            (row - 10, row + 10) if meta.m > 1 else (MiB // 2, MiB // 2 + 20),  # a row edge
            (MiB - 100, MiB + 100),  # a stripe edge
            (2 * MiB + 65536, 2 * MiB + 2 * 65536 - 1),  # exactly one leaf
            (3 * MiB, 3 * MiB + 4320),  # the short tail stripe, whole
        ]

    def test_same_answer_same_provider_bytes(self, leafy):
        meta, payload = leafy["meta"], leafy["payload"]
        assert -(-MiB // meta.m) > 65536  # several leaves per chunk
        for lo, hi in self.ranges(meta):
            answers = [
                self.ask(leafy, side, f"bytes={lo}-{hi}") for side in ("local", "remote")
            ]
            assert answers[0] == answers[1], (lo, hi)
            status, headers, body, (gets, moved) = answers[0]
            assert status == 206 and body == payload[lo : hi + 1]
            assert headers["Content-Range"] == f"bytes {lo}-{hi}/{len(payload)}"
            if hi < 3 * MiB:
                # Covering leaves and their paths: a sliver of the m
                # whole chunks (one stripe) the parent fetched.
                assert gets <= 2 and moved < 2 * (2 * 65536 + 10 * 32) < MiB / 2
        suffix = [self.ask(leafy, side, "bytes=-70000") for side in ("local", "remote")]
        assert suffix[0] == suffix[1] and suffix[0][2] == payload[-70000:]

    def test_same_answer_with_the_holder_down_or_lying(self, leafy):
        meta, payload = leafy["meta"], leafy["payload"]
        if meta.n == meta.m:
            pytest.skip("no redundancy to fall back on")
        holder = leafy["broker"].registry.get(dict(meta.chunk_map)[0])
        lo, hi = 1000, 1000 + 65535
        holder.fail()
        down = [self.ask(leafy, side, f"bytes={lo}-{hi}") for side in ("local", "remote")]
        holder.recover()
        assert down[0] == down[1]
        assert down[0][0] == 206 and down[0][2] == payload[lo : hi + 1]
        assert down[0][3][0] == meta.m  # m windows of the same leaves
        # A tampered holder: both sides serve the right bytes from the others.
        key = meta.chunk_key(0, 0)
        holder.backend.put(key, _tampered(holder.backend.get(key), 3))
        lying = [self.ask(leafy, side, f"bytes={lo}-{hi}") for side in ("local", "remote")]
        assert lying[0] == lying[1] and lying[0][2] == payload[lo : hi + 1]
        events = leafy["broker"].events.query(type="read.proof_failed")
        assert len(events) == 2 and {e["provider"] for e in events} == {holder.name}


class TestRangedReadPayload:
    def test_a_64k_range_of_an_8mib_stripe_ships_under_1mib(self, monkeypatch):
        """What the ``RpcServer`` answers ``read_stripe`` with: the
        covering leaves and their proofs, never the stripe (8 MiB, as the
        m fetched chunks, at the parent)."""
        broker = Scalia()  # 8 MiB stripes
        local = BrokerFrontend(broker)
        server = OpsService(local).serve("127.0.0.1", 0)
        remote = RemoteBrokerFrontend(*server.address)
        sent = []
        real = rpc.send_message

        def counting(sock, message, buffers=()):
            if "ok" in message:  # a server's answer
                body = len(json.dumps(message, separators=(",", ":")))
                sent.append(body + sum(len(b) for b in buffers))
            return real(sock, message, buffers)

        try:
            payload = random.Random(6).randbytes(8 * MiB)
            remote.put(TENANT, "bkt", "stripe", io.BytesIO(payload), size_hint=len(payload))
            monkeypatch.setattr(rpc, "send_message", counting)
            lo = 5 * MiB + 12345
            _plan, blocks = remote.stream_get(
                TENANT, "bkt", "stripe", range_spec=(lo, lo + 65535)
            )
            assert _drain(blocks) == payload[lo : lo + 65536]
            assert 65536 < sum(sent) < MiB
            # With the row's holder down it is m windows: still no stripe.
            meta = remote.head(TENANT, "bkt", "stripe")
            row = lo // -(-len(payload) // meta.m)
            del sent[:]
            broker.registry.get(dict(meta.chunk_map)[row]).fail()
            _plan, blocks = remote.stream_get(
                TENANT, "bkt", "stripe", range_spec=(lo, lo + 65535)
            )
            assert _drain(blocks) == payload[lo : lo + 65536]
            assert sum(sent) < MiB
            # A whole-object read still ships the stripe.
            del sent[:]
            assert remote.get(TENANT, "bkt", "stripe") == payload
            assert sum(sent) > 7 * MiB
        finally:
            remote.close()
            server.close()
            local.close()
            broker.close()

    def test_a_synthetic_window_ships_its_span_and_bills_its_shape(self, rig):
        remote, broker = rig["remote"], rig["broker"]
        container = remote.mapper.internal_container(TENANT, "bkt")
        meta = remote.broker.put(container, "synth", 4 * MiB)
        assert meta.m > 1 and -(-4 * MiB // meta.m) > 65536
        before = _billed(broker)
        assert remote.broker.read_stripe(meta, 0, 100, 100 + 65536) == 65536
        gets, moved = (after - b for after, b in zip(_billed(broker), before))
        assert gets == 1 and 2 * 65536 < moved < 2 * 65536 + 20 * 32
        assert remote.broker.read_stripe(meta, 0) == 4 * MiB


class TestGetFrames:
    """What a GET costs a worker in ops-RPC frames: one, plus one per
    stripe after the first; an answer that reads nothing costs one."""

    def test_one_frame_plus_one_per_further_stripe(self, rig):
        remote = rig["remote"]
        small, big = b"s" * 100, bytes(range(256)) * 40  # 10240 B: 3 stripes
        etag = remote.put(TENANT, "bkt", "small", small).checksum
        remote.put(TENANT, "bkt", "big", big)
        frames = _count_frames(rig["server"])
        gateway = ScaliaGateway(remote, port=0).start()

        def get(path, **headers):
            del frames[:]
            status, _headers, body = _raw(
                gateway, "GET", path, headers={"x-scalia-tenant": TENANT, **headers}
            )
            return status, body, list(frames)

        try:
            assert get("/bkt/small") == (200, small, ["open_get"])
            assert get("/bkt/big") == (200, big, ["open_get", "read_stripe", "read_stripe"])
            assert get("/bkt/big", Range="bytes=5000-6000") == (
                206, big[5000:6001], ["open_get"])
            for status, path, headers in (
                (304, "/bkt/small", {"If-None-Match": f'"{etag}"'}),
                (412, "/bkt/small", {"If-Match": '"somebody-else"'}),
                (404, "/bkt/ghost", {}),
                (416, "/bkt/small", {"Range": "bytes=500-"}),
            ):
                answered, _body, served = get(path, **headers)
                assert (answered, served) == (status, ["open_get"])
        finally:
            gateway.close()
        # The same frame serves the buffered read of the frontend API.
        del frames[:]
        assert remote.get(TENANT, "bkt", "big") == big
        assert frames == ["open_get", "read_stripe", "read_stripe"]

    def test_a_64k_range_inside_a_stripe_is_one_frame_of_covering_leaves(
        self, leafy, monkeypatch
    ):
        frames = _count_frames(leafy["server"])
        sent = []
        real = rpc.send_message

        def counting(sock, message, buffers=()):
            if "ok" in message:  # a server's answer
                sent.append(sum(len(b) for b in buffers))
            return real(sock, message, buffers)

        monkeypatch.setattr(rpc, "send_message", counting)
        lo = MiB + 200_000
        _plan, blocks = leafy["remote"].stream_get(
            "shared", "bkt", "leafy", range_spec=(lo, lo + 65535)
        )
        assert _drain(blocks) == leafy["payload"][lo : lo + 65536]
        assert frames == ["open_get"]
        # The covering leaves (two of 64 KiB), never the 1 MiB stripe.
        assert sent == [2 * 65536]


@pytest.fixture(params=["local", "remote"])
def topology(request, rig):
    """The in-process frontend, then a worker's, over the same broker."""
    return rig[request.param]


class TestGetInBothTopologies:
    """A re-put that lands just before a GET resolves its row: the
    conditionals and the range are checked against, and the bytes served
    from, the version that one resolution found."""

    def test_a_put_between_head_and_open_read_is_revalidated(self, rig, topology, monkeypatch):
        broker = rig["broker"]
        old = topology.put(TENANT, "bkt", "churn", b"old" * 1000)
        real = broker.open_get
        reput = []

        def open_get(container, key, **kwargs):
            if not reput:  # lands just before the one resolution of the row
                reput.append(rig["local"].put(TENANT, "bkt", "churn", b"new!"))
            return real(container, key, **kwargs)

        monkeypatch.setattr(broker, "open_get", open_get)
        # If-Match names the version the client saw; the one resolved is newer.
        with pytest.raises(PreconditionFailedError) as refused:
            topology.stream_get(TENANT, "bkt", "churn", if_match=f'"{old.checksum}"')
        assert refused.value.etag == reput[0].checksum
        # Unconditional: planned, served and described by the new version.
        del reput[:]
        topology.put(TENANT, "bkt", "churn", b"old" * 1000)
        plan, blocks = topology.stream_get(TENANT, "bkt", "churn", range_spec=(1, None))
        assert plan.meta.checksum == reput[0].checksum
        assert (plan.start, plan.end, _drain(blocks)) == (1, 3, b"ew!")

    def test_a_smaller_put_between_head_and_open_read_is_a_416_of_the_new_size(
        self, rig, topology, monkeypatch
    ):
        broker = rig["broker"]
        topology.put(TENANT, "bkt", "shrunk", bytes(100))
        real = broker.open_get
        reput = []

        def open_get(container, key, **kwargs):
            if not reput:  # lands just before the one resolution of the row
                reput.append(rig["local"].put(TENANT, "bkt", "shrunk", bytes(40)))
            return real(container, key, **kwargs)

        monkeypatch.setattr(broker, "open_get", open_get)
        with pytest.raises(InvalidRangeError) as refused:
            topology.stream_get(TENANT, "bkt", "shrunk", range_spec=(50, 60))
        assert refused.value.object_size == 40
        # The other way round, with a suffix range: the new version's tail.
        new = bytes(range(140))
        topology.put(TENANT, "bkt", "grown", bytes(100))
        del reput[:]

        def open_get_grown(container, key, **kwargs):
            if not reput:
                reput.append(rig["local"].put(TENANT, "bkt", "grown", new))
            return real(container, key, **kwargs)

        monkeypatch.setattr(broker, "open_get", open_get_grown)
        plan, blocks = topology.stream_get(TENANT, "bkt", "grown", range_spec=(None, 10))
        assert (plan.meta.size, plan.start, plan.end) == (140, 130, 139)
        assert _drain(blocks) == new[-10:]

    def test_a_first_segment_nobody_can_serve_is_a_503_and_not_a_read(self, rig, topology):
        broker = rig["broker"]
        topology.put(TENANT, "bkt", "dark", bytes(range(256)) * 40)
        broker.cluster.flush_logs()
        records = broker.cluster.stats.record_count()
        served = _counted(rig)[0].get("get", 0)
        for provider in broker.registry.providers():
            provider.fail()
        gateway = ScaliaGateway(topology, port=0).start()
        try:
            status, headers, body = _raw(
                gateway, "GET", "/bkt/dark", headers={"x-scalia-tenant": TENANT}
            )
        finally:
            gateway.close()
        # A status line of its own: nothing of a 200 went out first.
        assert status == 503 and "error" in json.loads(body)
        assert headers.get("ETag") is None
        ops, errors = _counted(rig)
        assert ops.get("get", 0) == served
        assert errors == {"get": 1}
        broker.cluster.flush_logs()
        assert broker.cluster.stats.record_count() == records


def _tamper(server, op, forge):
    """Serve ``op`` through ``forge(handler, request) -> reply``: what a
    worker would see were the frame altered between broker and worker."""
    handler = server.handlers[op]
    server.handlers = {**server.handlers, op: lambda request: forge(handler, request)}


def _flip_a_payload_byte(handler, request):
    body, buffers = handler(request)
    forged = bytearray(b"".join(bytes(b) for b in buffers))
    forged[len(forged) // 2] ^= 1
    return body, [forged]


class TestTamperedReplies:
    """A worker serves no byte it has not checked against the metadata it
    holds, and the first stripe riding ``open_get`` is checked by the
    statements that check a ``read_stripe`` reply."""

    #: op -> how the worker asks for plaintext ``[lo, hi]`` of stripe 0
    ASK = {
        "open_get": lambda remote, tenant, key, meta, lo, hi: _drain(
            remote.stream_get(tenant, "bkt", key, range_spec=(lo, hi))[1]),
        "read_stripe": lambda remote, tenant, key, meta, lo, hi: bytes(
            remote.broker.read_stripe(meta, 0, lo, hi + 1)),
    }

    @pytest.mark.parametrize("op", ["open_get", "read_stripe"])
    def test_a_flipped_byte_in_whole_chunks_fails_its_sha1(self, rig, op):
        remote = rig["remote"]
        payload = bytes(range(256)) * 10
        meta = remote.put(TENANT, "bkt", "whole", payload)
        assert self.ASK[op](remote, TENANT, "whole", meta, 0, 99) == payload[:100]
        _tamper(rig["server"], op, _flip_a_payload_byte)
        with pytest.raises(ChunkCorruptionError, match=r"chunk \d+ of stripe 0 fails its Merkle root"):
            self.ASK[op](remote, TENANT, "whole", meta, 0, 99)

    @pytest.mark.parametrize("op", ["open_get", "read_stripe"])
    def test_forged_leaves_fail_their_proof(self, leafy, op):
        remote, meta, payload = leafy["remote"], leafy["meta"], leafy["payload"]
        ask = lambda: self.ASK[op](remote, "shared", "leafy", meta, 1000, 1000 + 65535)  # noqa: E731
        assert ask() == payload[1000 : 1000 + 65536]
        _tamper(leafy["server"], op, _flip_a_payload_byte)
        with pytest.raises(ChunkCorruptionError, match="failed their Merkle proof"):
            ask()

    @pytest.mark.parametrize("op", ["open_get", "read_stripe"])
    def test_a_valid_proof_of_other_leaves_is_refused(self, leafy, op):
        remote, meta = leafy["remote"], leafy["meta"]
        elsewhere = {  # the same request, one leaf further into the row
            "open_get": {"range": [1000 + 65536, 1000 + 2 * 65536 - 1]},
            "read_stripe": {"lo": 1000 + 65536, "hi": 1000 + 2 * 65536},
        }[op]

        def swap(handler, request):
            body, _buffers = handler(request)
            other, buffers = handler({**request, **elsewhere})
            return {**body, "windows": other["windows"]}, buffers

        _tamper(leafy["server"], op, swap)
        with pytest.raises(ChunkCorruptionError, match="failed their Merkle proof"):
            self.ASK[op](remote, "shared", "leafy", meta, 1000, 1000 + 65535)


class TestDeadWorkerSessions:
    """Staged sessions belong to the worker that began them, and the
    supervisor aborts them when it sees that worker exit."""

    def stage(self, rig, owner):
        """``write_begin`` + ``write_stripe`` as worker ``owner``, which then
        drops every connection, as on SIGKILL."""
        worker = RemoteBrokerFrontend(*rig["server"].address, owner=owner)
        stager = worker.broker._stager
        session = stager.begin(
            "c", f"k{owner}", size_guess=64, mime="a/b", rule=None, exclude=()
        )
        chunks = split_object(b"stranded" * 8, session.m, session.n)
        stager.write_stripe(session, None, chunks, [chunk_root(c) for c in chunks])
        worker.close()
        return session

    def stored(self, rig, session):
        return {ref for ref in _stored_keys(rig["broker"]) if session.skey in ref[1]}

    def test_the_supervisor_aborts_what_a_dead_worker_left_staged(self, rig):
        broker, ops = rig["broker"], rig["ops"]
        in_flight = broker.cluster.locks.in_flight
        session = self.stage(rig, (0, 1))
        # Where the parent stayed until the broker restarted: the session
        # kept, its skey fenced from the orphan sweep, its chunks billed.
        assert len(ops._sessions) == 1
        assert in_flight.snapshot() == {session.skey}
        assert broker.scrub(repair=True).orphans_found == 0
        assert len(self.stored(rig, session)) == session.n == 2
        # The replacement's sessions, and those of no named worker, are
        # not the dead incarnation's.
        kept = [self.stage(rig, owner) for owner in ((0, 2), (1, 1), None)]
        assert ops.abort_sessions_of(0, 1) == session.n
        assert set(ops._sessions) == {other.sid for other in kept}
        assert in_flight.snapshot() == {other.skey for other in kept}
        assert self.stored(rig, session) == set()
        assert all(len(self.stored(rig, other)) == other.n for other in kept)

    def test_a_begin_still_in_service_when_its_worker_was_buried_is_aborted(self, rig):
        broker, ops = rig["broker"], rig["ops"]
        ops.abort_sessions_of(0, 1)
        with pytest.raises(ValueError, match="is gone"):
            self.stage(rig, (0, 1))
        assert ops._sessions == {} and len(broker.cluster.locks.in_flight) == 0
        self.stage(rig, (0, 2))  # the replacement begins as ever
        assert len(ops._sessions) == 1

    @pytest.mark.parametrize("commit_fails", [False, True])
    def test_an_abort_cannot_race_a_commit_in_service(self, rig, monkeypatch, commit_fails):
        broker, ops = rig["broker"], rig["ops"]
        real = broker.stager

        def stager():
            staged = real()

            def commit(session, **kwargs):
                # The supervisor notices the exit while the commit runs.
                assert ops.abort_sessions_of(0, 1) == 0
                if commit_fails:
                    raise ProviderUnavailableError("journal refused")
                return staged.commit(session, **kwargs)

            return staged._replace(commit=commit)

        monkeypatch.setattr(broker, "stager", stager)
        worker = RemoteBrokerFrontend(*rig["server"].address, owner=(0, 1))
        try:
            if commit_fails:
                # Put back for the driver's abort, the session finds its
                # worker buried: aborted there and then.
                with pytest.raises(ValueError, match="is gone"):
                    worker.put(TENANT, "bkt", "raced", b"r" * 300)
                assert _stored_keys(broker) == set()
            else:
                worker.put(TENANT, "bkt", "raced", b"r" * 300)
                assert rig["local"].get(TENANT, "bkt", "raced") == b"r" * 300
        finally:
            worker.close()
        assert ops._sessions == {} and len(broker.cluster.locks.in_flight) == 0
