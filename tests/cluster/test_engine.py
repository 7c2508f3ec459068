"""Tests for the stateless engine: S3-like API, failures, migration."""

import pytest

from repro.cluster.cache import CacheLayer
from repro.cluster.clock import Clock
from repro.cluster.engine import (
    Engine,
    ObjectNotFoundError,
    PendingDeleteQueue,
    PlacementError,
    ReadFailedError,
    WriteFailedError,
)
from repro.cluster.metadata import MetadataCluster
from repro.cluster.statistics import LogAgent, LogAggregator, StatsDatabase
from repro.providers.pricing import paper_catalog
from repro.providers.registry import ProviderRegistry
from repro.types import Placement
from repro.util.ids import IdGenerator


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
        return f"{mime}|{size // 10**6}MB"

    def rule_for(self, rule_name, class_key):
        return rule_name or "default"


class Harness:
    def __init__(self, *, cache_bytes=0, m=2, n=3, dcs=("dc1", "dc2")):
        self.registry = ProviderRegistry(paper_catalog())
        self.metadata = MetadataCluster(dcs)
        self.stats = StatsDatabase()
        self.cache = CacheLayer(dcs, cache_bytes) if cache_bytes else None
        self.planner = StubPlanner(self.registry, m=m, n=n)
        self.pending = PendingDeleteQueue()
        # One clock for both engines, as a cluster shares one.
        self.clock = Clock()
        self.engines = {
            dc: Engine(
                f"{dc}-e1",
                dc,
                registry=self.registry,
                metadata=self.metadata,
                cache=self.cache,
                log_agent=LogAgent(LogAggregator(self.stats), auto_flush_at=1),
                planner=self.planner,
                ids=IdGenerator(seed=7),
                pending_deletes=self.pending,
                clock=self.clock,
            )
            for dc in dcs
        }

    @property
    def engine(self):
        return self.engines["dc1"]

    def total_chunks(self):
        return sum(len(p) for p in self.registry.providers())


class TestPutGet:
    def test_bytes_roundtrip(self):
        h = Harness()
        data = b"multi-cloud storage brokerage" * 10
        meta = h.engine.put("c", "obj", data)
        assert meta.size == len(data)
        assert meta.n == 3 and meta.m == 2
        assert h.engine.get("c", "obj") == data

    def test_roundtrip_from_other_datacenter(self):
        h = Harness()
        data = b"read from the other DC"
        h.engines["dc1"].put("c", "obj", data)
        assert h.engines["dc2"].get("c", "obj") == data

    def test_synthetic_roundtrip(self):
        h = Harness()
        meta = h.engine.put("c", "obj", 40 * 10**6)
        assert meta.size == 40 * 10**6
        assert h.engine.get("c", "obj") == 40 * 10**6
        # No real payload was materialized anywhere.
        provider = h.registry.get(meta.chunk_map[0][1])
        assert provider.stored_bytes == 20 * 10**6  # ceil(40MB/2)

    def test_get_missing(self):
        h = Harness()
        with pytest.raises(ObjectNotFoundError):
            h.engine.get("c", "missing")

    def test_update_replaces_chunks(self):
        h = Harness()
        h.engine.put("c", "obj", b"version-1" * 100)
        chunks_before = h.total_chunks()
        h.clock.set(1.0, 0)
        h.engine.put("c", "obj", b"version-2" * 100)
        assert h.total_chunks() == chunks_before  # old GC'd, new written
        assert h.engine.get("c", "obj") == b"version-2" * 100

    def test_update_keeps_created_at(self):
        h = Harness()
        h.clock.set(1.0, 0)
        h.engine.put("c", "obj", b"v1")
        h.clock.set(5.0, 0)
        meta = h.engine.put("c", "obj", b"v2")
        assert meta.created_at == 1.0
        assert meta.modified_at == 5.0

    def test_chunk_placement_matches_meta(self):
        h = Harness()
        meta = h.engine.put("c", "obj", b"x" * 100)
        for index, provider_name in meta.chunk_map:
            assert meta.chunk_key(index) in h.registry.get(provider_name)


class TestCacheBehaviour:
    def test_cache_hit_skips_providers(self):
        h = Harness(cache_bytes=10**6)
        data = b"popular object" * 10
        h.engine.put("c", "obj", data)
        h.engine.get("c", "obj")  # miss; populates
        ops_before = {p.name: p.meter.total().ops_get for p in h.registry.providers()}
        assert h.engine.get("c", "obj") == data  # hit
        ops_after = {p.name: p.meter.total().ops_get for p in h.registry.providers()}
        assert ops_before == ops_after

    def test_write_invalidates_all_dcs(self):
        h = Harness(cache_bytes=10**6)
        h.engines["dc1"].put("c", "obj", b"v1")
        h.engines["dc1"].get("c", "obj")
        h.engines["dc2"].get("c", "obj")
        h.engines["dc2"].put("c", "obj", b"v2-longer")
        assert h.engines["dc1"].get("c", "obj") == b"v2-longer"
        assert h.engines["dc2"].get("c", "obj") == b"v2-longer"

    def test_cache_hit_still_logged(self):
        h = Harness(cache_bytes=10**6)
        h.engine.put("c", "obj", b"data!")
        h.engine.get("c", "obj")
        h.engine.get("c", "obj")
        reads = [r for r in h.stats.iter_records() if r.op == "get"]
        assert len(reads) == 2
        assert [r.cache_hit for r in reads] == [False, True]


class TestDelete:
    def test_delete_removes_everything(self):
        h = Harness()
        h.engine.put("c", "obj", b"short-lived")
        h.clock.set(2.0, 0)
        h.engine.delete("c", "obj")
        assert h.total_chunks() == 0
        with pytest.raises(ObjectNotFoundError):
            h.engine.get("c", "obj")
        with pytest.raises(ObjectNotFoundError):
            h.engine.delete("c", "obj")

    def test_delete_logs_lifetime(self):
        h = Harness()
        h.clock.set(1.0, 0)
        h.engine.put("c", "obj", b"x")
        h.clock.set(4.5, 0)
        h.engine.delete("c", "obj")
        deletes = [r for r in h.stats.iter_records() if r.op == "delete"]
        assert len(deletes) == 1
        assert deletes[0].lifetime_hours == pytest.approx(3.5)

    def test_delete_with_failed_provider_postpones(self):
        h = Harness()
        meta = h.engine.put("c", "obj", b"resilient" * 50)
        victim = meta.chunk_map[0][1]
        h.registry.fail(victim)
        h.engine.delete("c", "obj")
        assert len(h.pending) == 1
        assert h.registry.get(victim).stored_bytes > 0  # chunk still there
        h.registry.recover(victim)
        assert h.engine.flush_pending_deletes() == 1
        assert h.registry.get(victim).stored_bytes == 0
        assert len(h.pending) == 0


class TestFailureHandling:
    def test_read_survives_n_minus_m_failures(self):
        h = Harness(m=2, n=4)
        data = b"erasure keeps this alive" * 20
        meta = h.engine.put("c", "obj", data)
        for _, provider in meta.chunk_map[:2]:
            h.registry.fail(provider)
        assert h.engine.get("c", "obj") == data

    def test_read_fails_beyond_tolerance(self):
        h = Harness(m=2, n=3)
        meta = h.engine.put("c", "obj", b"too many failures" * 10)
        for _, provider in meta.chunk_map[:2]:
            h.registry.fail(provider)
        with pytest.raises(ReadFailedError):
            h.engine.get("c", "obj")

    def test_write_routes_around_failed_provider(self):
        h = Harness(m=2, n=3)
        h.registry.fail("Azu")  # alphabetically first, StubPlanner would pick it
        meta = h.engine.put("c", "obj", b"avoid the faulty provider")
        assert "Azu" not in [p for _, p in meta.chunk_map]

    def test_write_fails_when_too_few_providers(self):
        h = Harness(m=2, n=5)
        h.registry.fail("S3(h)")
        with pytest.raises(WriteFailedError):
            h.engine.put("c", "obj", b"no feasible placement")

    def test_reads_served_by_cheapest_egress(self):
        # The engine ranks read sources by egress price (the paper's
        # convention): RS (0.18/GB out) is the most expensive source and
        # must not be read from, regardless of its free operations.
        h = Harness(m=1, n=5)
        meta = h.engine.put("c", "obj", b"z" * 10**6)
        assert {p for _, p in meta.chunk_map} == {"Azu", "Ggl", "RS", "S3(h)", "S3(l)"}
        h.engine.get("c", "obj")
        assert h.registry.get("RS").meter.total().ops_get == 0
        # Same ranking for tiny chunks (egress-only, not egress+op).
        h.engine.put("c", "tiny", b"z" * 1000)
        h.engine.get("c", "tiny")
        assert h.registry.get("RS").meter.total().ops_get == 0


class TestListing:
    def test_list_objects(self):
        h = Harness()
        h.engine.put("pics", "b.gif", b"b")
        h.engine.put("pics", "a.gif", b"a")
        h.engine.put("docs", "c.txt", b"c")
        assert h.engine.list_objects("pics") == ["a.gif", "b.gif"]
        assert h.engine.list_objects("docs") == ["c.txt"]
        assert h.engine.list_objects("empty") == []

    def test_list_after_delete(self):
        h = Harness()
        h.engine.put("pics", "a.gif", b"a")
        h.engine.delete("pics", "a.gif")
        assert h.engine.list_objects("pics") == []

    def test_head(self):
        h = Harness()
        assert h.engine.head("c", "obj") is None
        h.engine.put("c", "obj", b"meta me", mime="image/gif", rule="rule 3")
        meta = h.engine.head("c", "obj")
        assert meta.mime == "image/gif"
        assert meta.rule_name == "rule 3"


class TestMigration:
    def test_same_code_moves_one_chunk(self):
        h = Harness(m=2, n=3)
        data = b"migrate me cheaply" * 30
        meta = h.engine.put("c", "obj", data)
        old = meta.placement
        # Swap the last provider for one not currently used.
        unused = sorted(set(h.registry.names()) - set(old.providers))[0]
        new = Placement(old.providers[:-1] + (unused,), old.m)
        receipt = h.engine.migrate("c", "obj", new)
        assert not receipt.full_restripe
        assert receipt.chunks_written == 1
        assert h.engine.get("c", "obj") == data
        assert h.engine.head("c", "obj").placement == new
        # The replaced provider no longer holds the chunk.
        assert h.registry.get(old.providers[-1]).stored_bytes == 0

    def test_restripe_changes_threshold(self):
        h = Harness(m=2, n=3)
        data = b"restripe to m1" * 25
        h.engine.put("c", "obj", data)
        new = Placement(("S3(h)", "S3(l)"), 1)
        receipt = h.engine.migrate("c", "obj", new)
        assert receipt.full_restripe
        assert receipt.chunks_written == 2
        assert h.engine.get("c", "obj") == data
        meta = h.engine.head("c", "obj")
        assert meta.m == 1 and meta.n == 2
        assert h.registry.get("Azu").stored_bytes == 0

    def test_noop_migration(self):
        h = Harness()
        meta = h.engine.put("c", "obj", b"stay put")
        receipt = h.engine.migrate("c", "obj", meta.placement)
        assert receipt.chunks_written == 0

    def test_synthetic_migration(self):
        h = Harness(m=2, n=3)
        h.engine.put("c", "obj", 10**6)
        new = Placement(("S3(h)", "S3(l)"), 1)
        h.engine.migrate("c", "obj", new)
        assert h.engine.get("c", "obj") == 10**6
        assert h.registry.get("S3(h)").stored_bytes == 10**6

    def test_migrate_missing_object(self):
        h = Harness()
        with pytest.raises(ObjectNotFoundError):
            h.engine.migrate("c", "ghost", Placement(("S3(h)",), 1))


class TestStatsLogging:
    def test_put_get_records(self):
        h = Harness()
        h.clock.set(0.0, 3)
        h.engine.put("c", "obj", b"y" * 50)
        h.clock.set(0.0, 4)
        h.engine.get("c", "obj")
        stats = h.stats
        assert stats.accessed_between(3, 3) != set()
        put_stats = stats.history(next(iter(stats.accessed_between(3, 3))), 3, 1)[0]
        # The first put is an insertion, not a recurring write.
        assert put_stats.ops_insert == 1
        assert put_stats.ops_write == 0
        assert put_stats.bytes_in == 50

    def test_update_counts_as_write(self):
        h = Harness()
        h.engine.put("c", "obj", b"v1" * 25)
        h.clock.set(0.0, 1)
        h.engine.put("c", "obj", b"v2" * 25)
        row_key = next(iter(h.stats.accessed_between(1, 1)))
        stats = h.stats.history(row_key, 1, 1)[0]
        assert stats.ops_write == 1
        assert stats.ops_insert == 0
