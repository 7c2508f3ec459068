"""End-to-end tests of the broker + periodic optimizer (Figure 7 loop)."""

import pytest

from repro.core.broker import Scalia
from repro.core.rules import RuleBook, StorageRule
from repro.providers.pricing import CHEAPSTOR, paper_catalog
from repro.providers.registry import ProviderRegistry
from repro.types import Placement
from repro.util.units import MB


def make_broker(**kw) -> Scalia:
    rules = RuleBook(
        default=StorageRule(
            "default", durability=0.99999, availability=0.9999, lockin=1.0
        )
    )
    defaults = dict(datacenters=1, engines_per_dc=2, seed=3)
    defaults.update(kw)
    return Scalia(ProviderRegistry(paper_catalog()), rules, **defaults)


HOT = Placement(("S3(h)", "S3(l)"), 1)
COLD = Placement(("Azu", "Ggl", "RS", "S3(h)", "S3(l)"), 4)
PRE_PEAK = Placement(("Azu", "RS", "S3(h)", "S3(l)"), 3)


class TestAdaptation:
    def test_initial_placement_is_paper_prepeak(self):
        broker = make_broker()
        meta = broker.put("c", "obj", MB)
        assert meta.placement == PRE_PEAK

    def test_flash_crowd_moves_to_hot_set(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        broker.tick(2)
        # Slashdot effect: heavy reads for a few periods.
        for _ in range(5):
            for _ in range(150):
                broker.get("c", "obj")
            broker.tick()
        placement = broker.placement_of("c", "obj")
        # The paper reports [S3(h), S3(l); m:1]; [RS, S3(l); m:1] is a
        # near-tie under the same cost model (free RS ops vs cheaper S3(h)
        # storage) — both are 2-provider m:1 sets served from S3 egress.
        assert placement.m == 1 and placement.n == 2
        assert "S3(l)" in placement.providers
        assert any(r.migrations for r in broker.reports)

    def test_silent_objects_keep_their_placement(self):
        # "The placement of objects with no access ... will not be
        # recomputed" (Section III-A3): going fully silent leaves the hot
        # placement in place because the object never re-enters the set A.
        broker = make_broker()
        broker.put("c", "obj", MB)
        broker.tick(2)
        for _ in range(5):
            for _ in range(150):
                broker.get("c", "obj")
            broker.tick()
        hot = broker.placement_of("c", "obj")
        assert hot.m == 1
        broker.tick(30)  # complete silence
        assert broker.placement_of("c", "obj") == hot

    def test_update_after_cooling_lands_on_storage_optimal(self):
        # An update replans from the (now cold) recent history: the write
        # lands on the storage-cheapest five-provider m:4 set.
        broker = make_broker()
        broker.put("c", "obj", MB)
        broker.tick(2)
        for _ in range(5):
            for _ in range(150):
                broker.get("c", "obj")
            broker.tick()
        assert broker.placement_of("c", "obj").m == 1
        broker.tick(30)
        broker.put("c", "obj", MB)  # update re-runs the placement
        assert broker.placement_of("c", "obj") == COLD

    def test_steady_pattern_never_migrates(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        placement = broker.placement_of("c", "obj")
        for _ in range(10):
            for _ in range(20):
                broker.get("c", "obj")
            broker.tick()
        # After the initial trend fires once, a flat pattern stays put.
        assert broker.placement_of("c", "obj") in (placement, HOT)
        migrations = sum(r.migrations for r in broker.reports)
        assert migrations <= 1


class TestRepair:
    def test_provider_failure_triggers_repair(self):
        broker = make_broker()
        meta = broker.put("c", "obj", 40 * MB)
        broker.tick()
        victim = meta.placement.providers[0]
        broker.registry.fail(victim)
        reports = broker.tick()
        assert sum(r.repairs for r in reports) == 1
        placement = broker.placement_of("c", "obj")
        assert victim not in placement.providers

    def test_wait_strategy_leaves_chunks(self):
        broker = make_broker(repair_strategy="wait")
        meta = broker.put("c", "obj", 40 * MB)
        broker.tick()
        victim = meta.placement.providers[0]
        broker.registry.fail(victim)
        reports = broker.tick()
        assert sum(r.repairs for r in reports) == 0
        assert victim in broker.placement_of("c", "obj").providers
        # Data still readable: m of n chunks remain reachable.
        assert broker.get("c", "obj") == 40 * MB

    def test_new_provider_adopted_for_new_objects(self):
        # A backup-grade rulebook (lock-in 0.5), as in Section IV-D.
        broker = Scalia(
            ProviderRegistry(paper_catalog()),
            RuleBook(
                default=StorageRule(
                    "backup", durability=0.99999, availability=0.9999, lockin=0.5
                )
            ),
            seed=5,
        )
        broker.put("b", "backup-0", 40 * MB)
        broker.tick()
        broker.registry.register(CHEAPSTOR)
        broker.tick()
        meta = broker.put("b", "backup-1", 40 * MB)
        assert "CheapStor" in meta.placement.providers


class TestReports:
    def test_leader_elected_and_objects_partitioned(self):
        broker = make_broker(datacenters=2, engines_per_dc=2)
        for i in range(8):
            broker.put("c", f"obj{i}", MB)
        reports = broker.tick()
        assert reports[0].leader == "dc1-engine1"
        assert reports[0].examined == 8

    def test_deleted_object_dropped_from_tracking(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        broker.tick()
        broker.delete("c", "obj")
        reports = broker.tick()
        # The delete is an access, but the object resolves to nothing.
        assert all(o.row_key for r in reports for o in r.outcomes)
        assert broker.placement_of("c", "obj") is None

    def test_idle_objects_not_examined(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        broker.tick(2)
        idle_reports = broker.tick(3)
        assert all(r.examined == 0 for r in idle_reports)

    def test_costs_accumulate(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        broker.tick(5)
        costs = broker.costs()
        assert costs.total > 0
        assert set(costs.by_provider) == {"Azu", "Ggl", "RS", "S3(h)", "S3(l)"}
        by_period = broker.cost_by_period()
        assert sum(by_period.values()) == pytest.approx(costs.total)


class TestCacheIntegration:
    def test_cache_reduces_provider_reads(self):
        cached = make_broker(cache_capacity_bytes=10 * MB)
        uncached = make_broker()
        for broker in (cached, uncached):
            broker.put("c", "obj", MB)
            broker.tick()
            for _ in range(50):
                broker.get("c", "obj")
            broker.tick()
        assert cached.costs().total < uncached.costs().total


class TestRewritePlacementWithinAPeriod:
    """Why the spine caps ``Mix.c1_max_blocks``: which placement a rewrite
    gets depends on whether the engines' log buffers have shipped.

    ``_projection_for`` prices a key with no history as a new object.
    Once the open period's history shows reads but no *update* (the first
    PUT was an insertion; ``ops_write`` counts updates only and
    ``from_history`` carries no one-time write) the rewrite prices as
    read-only; one update later it prices as written again.  Pinned, not
    fixed: any fix moves what is stored and billed on every workload.
    """

    SIZE = 16 * (1 << 20)
    REPLICAS = Placement(("S3(h)", "S3(l)"), 1)

    def rewrites(self, *, shipped: bool):
        broker = Scalia()  # the spine's broker: default rule, 2 engines
        placements = [broker.put("c", "big", self.SIZE).placement]
        for _ in range(3):
            broker.get("c", "big")
        for _ in range(2):
            if shipped:
                broker.cluster.flush_logs()
            placements.append(broker.put("c", "big", self.SIZE).placement)
        broker.close()
        return placements

    def test_unshipped_logs_price_every_rewrite_as_a_new_object(self):
        assert self.rewrites(shipped=False) == [COLD, COLD, COLD]

    def test_shipped_reads_without_an_update_price_as_read_only(self):
        assert self.rewrites(shipped=True) == [COLD, self.REPLICAS, COLD]
