"""The streaming data plane: multi-stripe put/get, ranged reads, migration."""

import dataclasses
import hashlib
import io
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.cluster.engine import (
    Engine,
    InvalidContinuationTokenError,
    InvalidRangeError,
    ObjectNotFoundError,
    PendingDeleteQueue,
    PlacementError,
    WriteFailedError,
)
from repro.cluster.metadata import MetadataCluster
from repro.cluster.statistics import LogAgent, LogAggregator, StatsDatabase
from repro.cluster.writepath import put_object
from repro.core.broker import Scalia
from repro.erasure.rs import CodeCache
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend, RpcStager, _RpcPool
from repro.providers.pricing import paper_catalog
from repro.providers.provider import ProviderUnavailableError
from repro.providers.registry import ProviderRegistry
from repro.types import Placement

from repro.util.ids import IdGenerator

STRIPE = 4096  # small stripes so tests stay fast


class StubPlanner:
    """Deterministic planner: first n available providers, fixed m."""

    def __init__(self, registry, m=2, n=3):
        self.registry = registry
        self.m = m
        self.n = n
        self.place_calls = 0

    def place(self, *, container, key, size, mime, rule_name, period, exclude):
        self.place_calls += 1
        names = sorted(
            s.name
            for s in self.registry.specs(include_failed=False)
            if s.name not in exclude
        )
        if len(names) < self.n:
            raise PlacementError("not enough providers")
        return Placement(tuple(names[: self.n]), self.m)

    def classify(self, size, mime):
        return "cls"

    def rule_for(self, rule_name, class_key):
        return rule_name or "default"


class Harness:
    """One engine behind a stub planner.

    ``stager="rpc"`` routes :meth:`put` through the write driver over an
    :class:`RpcStager` against a live :class:`OpsService` serving this
    engine — the worker's write path without the processes (reads and
    everything else stay direct).  Call :meth:`close` on that one.
    """

    def __init__(self, *, m=2, n=3, stager="engine"):
        self.registry = ProviderRegistry(paper_catalog())
        self.metadata = MetadataCluster(("dc1",))
        self.stats = StatsDatabase()
        self.planner = StubPlanner(self.registry, m=m, n=n)
        self.pending = PendingDeleteQueue()
        self.engine = Engine(
            "dc1-e1",
            "dc1",
            registry=self.registry,
            metadata=self.metadata,
            cache=None,
            log_agent=LogAgent(LogAggregator(self.stats), auto_flush_at=1),
            planner=self.planner,
            ids=IdGenerator(seed=7),
            pending_deletes=self.pending,
        )
        self.server = self.pool = self.remote_stager = None
        if stager == "rpc":
            frontend = SimpleNamespace(
                broker=SimpleNamespace(stager=self.engine.stager),
                gate=lambda _op, fn: fn(),
                ensure_leader=lambda: None,  # standalone: its own leader
            )
            self.server = OpsService(frontend).serve("127.0.0.1", 0)
            self.pool = _RpcPool(*self.server.address)
            self.remote_stager = RpcStager(self.pool.call, CodeCache())

    def close(self):
        if self.server is not None:
            self.pool.close()
            self.server.close()

    def put(self, key, data, **kwargs):
        kwargs.setdefault("stripe_size", STRIPE)
        if self.remote_stager is None:
            return self.engine.put("c", key, data, **kwargs)
        return put_object(self.remote_stager, "c", key, data, **kwargs)

    def stored_keys(self):
        out = set()
        for provider in self.registry.providers():
            for chunk_key in provider.backend.keys():
                out.add((provider.name, chunk_key))
        return out

    def referenced_keys(self, meta):
        return {(p, ck) for _s, _i, p, ck in meta.iter_chunks()}


def payload_of(size, seed=0):
    return random.Random(seed).randbytes(size)


@pytest.fixture()
def h(request):
    """A harness on the requesting class's stager."""
    harness = Harness(stager=request.cls.STAGER)
    yield harness
    harness.close()


class TestStreamedPut:
    STAGER = "engine"

    def test_multi_stripe_roundtrip(self, h):
        data = payload_of(STRIPE * 3 + 123)
        meta = h.put("big.bin", data)
        assert meta.stripe_count == 4
        assert meta.stripe_lengths == (STRIPE, STRIPE, STRIPE, 123)
        assert meta.size == len(data)
        assert meta.checksum == hashlib.md5(data).hexdigest()
        assert h.engine.get("c", "big.bin") == data

    def test_small_payload_stays_legacy_single_stripe(self, h):
        meta = h.put("small.bin", b"tiny")
        assert meta.stripes == ()
        assert meta.chunk_key(0) == f"{meta.skey}:0"
        assert h.engine.get("c", "small.bin") == b"tiny"

    def test_file_like_source_streams(self, h):
        data = payload_of(STRIPE * 2 + 7, seed=1)
        meta = h.put("file.bin", io.BytesIO(data))
        assert meta.stripe_count == 3
        assert h.engine.get("c", "file.bin") == data

    def test_iterator_source_streams(self, h):
        data = payload_of(STRIPE * 2, seed=2)
        blocks = [data[i : i + 1000] for i in range(0, len(data), 1000)]
        meta = h.put("iter.bin", iter(blocks))
        assert h.engine.get("c", "iter.bin") == data
        # exactly stripe-aligned input: no phantom trailing stripe
        assert meta.stripe_lengths == (STRIPE, STRIPE)

    def test_no_chunks_beyond_live_references(self, h):
        meta = h.put("a.bin", payload_of(STRIPE * 2 + 5, seed=3))
        assert h.stored_keys() == h.referenced_keys(meta)

    def test_overwrite_striped_with_small_gc_old_stripes(self, h):
        h.put("k", payload_of(STRIPE * 3, seed=4))
        meta2 = h.put("k", b"now tiny")
        assert h.engine.get("c", "k") == b"now tiny"
        assert h.stored_keys() == h.referenced_keys(meta2)

    def test_overwrite_small_with_striped_gc_old(self, h):
        h.put("k", b"tiny first")
        data = payload_of(STRIPE * 2 + 1, seed=5)
        meta2 = h.put("k", data)
        assert h.engine.get("c", "k") == data
        assert h.stored_keys() == h.referenced_keys(meta2)

    def test_mid_stream_provider_failure_replans_with_bytes(self, h):
        data = payload_of(STRIPE * 3, seed=6)
        victim = sorted(h.registry.names())[0]
        provider = h.registry.get(victim)
        original = provider.put_chunk
        calls = {"n": 0}

        def flaky(key, chunk):
            calls["n"] += 1
            if calls["n"] == 2:  # fail on the second stripe's write
                raise ProviderUnavailableError("mid-stream outage", victim)
            return original(key, chunk)

        provider.put_chunk = flaky
        meta = h.put("flaky.bin", data)
        assert victim not in [p for _, p in meta.chunk_map]
        assert h.engine.get("c", "flaky.bin") == data
        # the aborted attempt's chunks were cleaned up
        assert h.stored_keys() == h.referenced_keys(meta)

    def _lose_on_second_put(self, h):
        """The first provider by name fails its second chunk put, which
        is its chunk of the second stripe."""
        victim = sorted(h.registry.names())[0]
        provider = h.registry.get(victim)
        original = provider.put_chunk
        calls = {"n": 0}

        def flaky(key, chunk):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ProviderUnavailableError("mid-stream outage", victim)
            return original(key, chunk)

        provider.put_chunk = flaky
        return victim

    def test_mid_stream_failure_with_one_shot_iterator_replans_forward(self, h):
        data = payload_of(STRIPE * 3, seed=7)
        victim = self._lose_on_second_put(h)
        meta = h.put("once.bin", iter([data]))
        assert victim not in [p for _, p in meta.chunk_map]
        assert h.engine.get("c", "once.bin") == data
        assert meta.checksum == hashlib.md5(data).hexdigest()
        # the landed stripe's old chunk and the partial stripe are gone
        assert h.stored_keys() == h.referenced_keys(meta)
        assert len(h.engine.locks.in_flight) == 0

    def test_mid_stream_failure_with_one_shot_iterator_fails_clean(self, h):
        # Every provider is in the placement: losing one leaves nothing
        # feasible to re-plan on.
        h.planner.n = len(h.registry.names())
        data = payload_of(STRIPE * 3, seed=7)
        self._lose_on_second_put(h)
        with pytest.raises(WriteFailedError):
            h.put("gone.bin", iter([data]))
        assert h.stored_keys() == set()  # nothing leaked
        assert len(h.engine.locks.in_flight) == 0
        with pytest.raises(ObjectNotFoundError):
            h.engine.get("c", "gone.bin")


class TestStreamedPutOverRpc(TestStreamedPut):
    """The same suite with the driver on the far side of the ops RPC
    (subclassed, not parametrised, so the in-process ids stay as they are)."""

    STAGER = "rpc"


MiB = 1024 * 1024


def _blocks(total, block=256 * 1024):
    """``total`` bytes in blocks: a source never whole in memory."""
    pattern = bytes(range(256)) * (block // 256)
    for sent in range(0, total, block):
        yield pattern[: min(block, total - sent)]


class TestWriteMemory:
    """A streamed PUT and a multipart upload buffer O(stripe), not O(object).

    A 16 MiB object in 1 MiB stripes goes into on-disk segment stores, so
    the traced peak is the write path's buffers and not the stored bytes.
    A driver that held the whole object would peak at 16 stripes or more.
    """

    OBJECT = 16 * MiB
    STRIPE = 1 * MiB
    BUDGET_STRIPES = 10

    def _peak_stripes(self, tmp_path, upload):
        with Scalia(data_dir=str(tmp_path), storage_sync="never",
                    stripe_size_bytes=self.STRIPE) as broker:
            tracemalloc.start()
            try:
                upload(broker)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert broker.head("mem", "big.bin").size == self.OBJECT
        return peak / self.STRIPE

    def test_streamed_put_peaks_under_ten_stripes(self, tmp_path):
        def streamed(broker):
            broker.put("mem", "big.bin", _blocks(self.OBJECT), size_hint=self.OBJECT)

        assert self._peak_stripes(tmp_path, streamed) < self.BUDGET_STRIPES

    def test_multipart_upload_peaks_under_ten_stripes(self, tmp_path):
        def multipart(broker):
            part = 2 * MiB
            upload = broker.create_multipart_upload("mem", "big.bin", size_hint=self.OBJECT)
            for number in range(1, self.OBJECT // part + 1):
                broker.upload_part("mem", "big.bin", upload.upload_id, number, _blocks(part))
            broker.complete_multipart_upload("mem", "big.bin", upload.upload_id)

        assert self._peak_stripes(tmp_path, multipart) < self.BUDGET_STRIPES


class TestStagersAgree:
    """Differential: the in-process stager and the RPC stub are one write
    path, so the same payloads leave the same metadata and the same bill."""

    SIZES = (0, 1, STRIPE - 1, STRIPE, STRIPE + 1, STRIPE * 2 + STRIPE // 2)

    def test_same_payloads_same_metadata_and_meters(self):
        direct = Scalia(stripe_size_bytes=STRIPE)
        served = Scalia(stripe_size_bytes=STRIPE)
        frontend = BrokerFrontend(served, mode="direct")
        server = OpsService(frontend).serve("127.0.0.1", 0)
        remote = RemoteBrokerFrontend(*server.address)
        try:
            payloads = [payload_of(size, seed=size) for size in self.SIZES]
            payloads.append(10_000)  # synthetic byte count
            metas = {direct: [], served: []}
            for i, data in enumerate(payloads):
                metas[direct].append(direct.put("c", f"k{i}", data))
                metas[served].append(remote.broker.put("c", f"k{i}", data))
            for a, b in zip(metas[direct], metas[served]):
                same = dict(skey="", created_at=0.0, modified_at=0.0)
                assert dataclasses.replace(a, **same) == dataclasses.replace(b, **same)
            for name in direct.registry.names():
                assert (
                    direct.registry.get(name).meter.total()
                    == served.registry.get(name).meter.total()
                ), name
            for broker, written in metas.items():
                stored = {
                    (p.name, ck)
                    for p in broker.registry.providers()
                    for ck in p.backend.keys()
                }
                referenced = {
                    (p, ck) for meta in written for _s, _i, p, ck in meta.iter_chunks()
                }
                assert stored == referenced
                assert len(broker.cluster.locks.in_flight) == 0
        finally:
            remote.close()
            server.close()
            frontend.close()
            served.close()
            direct.close()


class TestRangedReads:
    def put_big(self, h, size=STRIPE * 4 + 100, seed=8):
        data = payload_of(size, seed=seed)
        h.put("big.bin", data)
        return data

    def test_range_correctness_across_boundaries(self):
        h = Harness()
        data = self.put_big(h)
        cases = [
            (0, 9),
            (STRIPE - 5, STRIPE + 5),
            (STRIPE * 2, STRIPE * 3 - 1),
            (10, None),
            (len(data) - 50, len(data) + 1000),  # end clamps to size-1
        ]
        for start, end in cases:
            expect = data[start : (end + 1) if end is not None else None]
            assert h.engine.get("c", "big.bin", byte_range=(start, end)) == expect

    def test_range_bills_only_covering_stripes(self):
        h = Harness()
        self.put_big(h, size=STRIPE * 8)
        before = {
            p.name: p.meter.total().bytes_out for p in h.registry.providers()
        }
        h.engine.get("c", "big.bin", byte_range=(STRIPE * 2 + 1, STRIPE * 2 + 10))
        moved = sum(
            p.meter.total().bytes_out - before[p.name]
            for p in h.registry.providers()
        )
        # one stripe decoded: m chunks of ceil(STRIPE/m) bytes — far less
        # than the whole 8-stripe object
        per_stripe = 2 * ((STRIPE + 1) // 2)
        assert moved == per_stripe
        assert moved < STRIPE * 8 / 4

    def test_full_get_still_bills_everything(self):
        h = Harness()
        data = self.put_big(h, size=STRIPE * 3)
        before = {p.name: p.meter.total().bytes_out for p in h.registry.providers()}
        assert h.engine.get("c", "big.bin") == data
        moved = sum(
            p.meter.total().bytes_out - before[p.name] for p in h.registry.providers()
        )
        assert moved == 3 * 2 * (STRIPE // 2)  # m chunks per stripe

    def test_invalid_ranges(self):
        h = Harness()
        self.put_big(h, size=STRIPE)
        with pytest.raises(InvalidRangeError):
            h.engine.get("c", "big.bin", byte_range=(STRIPE * 2, None))
        with pytest.raises(InvalidRangeError):
            h.engine.get("c", "big.bin", byte_range=(-1, 5))
        with pytest.raises(InvalidRangeError):
            h.engine.get("c", "big.bin", byte_range=(10, 5))

    def test_range_on_legacy_single_stripe(self):
        h = Harness()
        h.put("s.bin", b"0123456789")
        assert h.engine.get("c", "s.bin", byte_range=(2, 5)) == b"2345"

    def test_range_on_synthetic_returns_span(self):
        h = Harness()
        h.engine.put("c", "synth", 10_000)
        assert h.engine.get("c", "synth", byte_range=(100, 199)) == 100

    def test_failed_read_is_not_logged_as_served_traffic(self):
        h = Harness()
        h.put("k", payload_of(STRIPE * 2, seed=30))
        before = h.stats.record_count()
        for name in h.registry.names():
            h.registry.get(name).fail()
        from repro.cluster.engine import ReadFailedError

        with pytest.raises(ReadFailedError):
            h.engine.get("c", "k")
        assert h.stats.record_count() == before, "failed read polluted stats"
        for name in h.registry.names():
            h.registry.get(name).recover()
        h.engine.get("c", "k")
        assert h.stats.record_count() == before + 1


class TestStripedMigration:
    def test_same_code_migration_moves_every_stripe(self):
        h = Harness()
        data = payload_of(STRIPE * 3 + 9, seed=9)
        meta = h.put("m.bin", data)
        old_names = [p for _, p in meta.chunk_map]
        spare = sorted(set(h.registry.names()) - set(old_names))[0]
        new_placement = Placement(tuple([spare] + old_names[1:]), meta.m)
        receipt = h.engine.migrate("c", "m.bin", new_placement)
        assert not receipt.full_restripe
        assert receipt.chunks_written == meta.stripe_count  # 1 index x 4 stripes
        assert h.engine.get("c", "m.bin") == data
        new_meta = h.engine.head("c", "m.bin")
        assert h.stored_keys() == h.referenced_keys(new_meta)

    def test_restripe_migration_preserves_bytes(self):
        h = Harness()
        data = payload_of(STRIPE * 2 + 77, seed=10)
        h.put("r.bin", data)
        names = sorted(h.registry.names())[:4]
        receipt = h.engine.migrate("c", "r.bin", Placement(tuple(names), 3))
        assert receipt.full_restripe
        assert h.engine.get("c", "r.bin") == data
        new_meta = h.engine.head("c", "r.bin")
        assert new_meta.m == 3 and new_meta.n == 4
        assert new_meta.stripe_count == 3
        assert new_meta.size == len(data)
        assert h.stored_keys() == h.referenced_keys(new_meta)


class TestPaginatedListing:
    def fill(self, h):
        for key in (
            "a.txt",
            "logs/2012/01.log",
            "logs/2012/02.log",
            "logs/2013/01.log",
            "z.txt",
        ):
            h.engine.put("c", key, b"x")

    def test_prefix_filter(self):
        h = Harness()
        self.fill(h)
        page = h.engine.list_objects("c", prefix="logs/")
        assert page.keys == [
            "logs/2012/01.log",
            "logs/2012/02.log",
            "logs/2013/01.log",
        ]
        assert not page.is_truncated

    def test_delimiter_rolls_common_prefixes(self):
        h = Harness()
        self.fill(h)
        page = h.engine.list_objects("c", delimiter="/")
        assert page.keys == ["a.txt", "z.txt"]
        assert page.common_prefixes == ["logs/"]
        nested = h.engine.list_objects("c", prefix="logs/", delimiter="/")
        assert nested.keys == []
        assert nested.common_prefixes == ["logs/2012/", "logs/2013/"]

    def test_pagination_with_tokens(self):
        h = Harness()
        self.fill(h)
        seen = []
        token = None
        pages = 0
        while True:
            page = h.engine.list_objects("c", max_keys=2, continuation_token=token)
            seen.extend(page.keys)
            pages += 1
            if not page.is_truncated:
                break
            assert page.next_token
            token = page.next_token
        assert pages == 3
        assert seen == sorted(seen) and len(seen) == 5

    def test_bad_token_rejected(self):
        h = Harness()
        with pytest.raises(InvalidContinuationTokenError):
            h.engine.list_objects("c", continuation_token="!!!not-base64!!!")

    def test_page_compares_like_plain_list(self):
        h = Harness()
        h.engine.put("c", "only.txt", b"x")
        assert h.engine.list_objects("c") == ["only.txt"]


class TestStripedScrub:
    def test_scrub_repairs_missing_stripe_chunk(self):
        from repro.cluster.datacenter import ScaliaCluster  # noqa: F401 — doc import
        from repro.core.broker import Scalia

        broker = Scalia(stripe_size_bytes=STRIPE)
        data = payload_of(STRIPE * 3, seed=11)
        meta = broker.put("c", "big.bin", data)
        assert meta.stripe_count == 3
        # vandalize one chunk of the middle stripe
        _, index, provider_name, chunk_key = list(meta.iter_chunks())[
            meta.n  # first chunk of stripe 1
        ]
        broker.registry.get(provider_name).backend.delete(chunk_key)
        report = broker.scrub()
        assert report.chunks_missing == 1
        assert report.repaired == 1
        assert report.problems[0].stripe == 1
        assert broker.get("c", "big.bin") == data
        clean = broker.scrub()
        assert clean.chunks_missing == 0 and clean.chunks_corrupt == 0
