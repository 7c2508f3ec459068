"""``Scalia.explain``: the placement-rationale join over the event journal.

The acceptance test for the whole decision-observability surface:
explaining a migrated object must replay the optimizer's appraisal on
the *live* cost model and land on the same projected saving the journal
recorded at decision time (within float rounding).
"""

import pytest

from repro.core.broker import Scalia
from repro.core.rules import RuleBook, StorageRule
from repro.providers.pricing import paper_catalog
from repro.providers.registry import ProviderRegistry
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


def migrated_broker() -> Scalia:
    """A broker whose object has been flash-crowded into a migration."""
    broker = make_broker()
    broker.put("c", "obj", MB)
    broker.tick(2)
    for _ in range(5):
        for _ in range(150):
            broker.get("c", "obj")
        broker.tick()
    assert any(r.migrations for r in broker.reports)
    return broker


class TestExplainBasics:
    def test_unmigrated_object(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        doc = broker.explain("c", "obj")
        assert doc["found"] is True
        assert doc["container"] == "c"
        assert doc["key"] == "obj"
        assert doc["size"] == MB
        assert doc["placement"]["providers"]
        assert doc["placement"]["m"] >= 1
        assert doc["costs"]["current"] > 0
        assert doc["costs"]["full_replication"] > 0
        assert doc["last_migration"] is None
        assert any(e["type"] == "placement.chosen" for e in doc["events"])

    def test_missing_object_raises_keyerror(self):
        broker = make_broker()
        with pytest.raises(KeyError):
            broker.explain("c", "nope")

    def test_best_alternative_never_beats_itself(self):
        # The alternative search covers the current placement too, so the
        # reported saving can never be negative.
        broker = make_broker()
        broker.put("c", "obj", MB)
        doc = broker.explain("c", "obj")
        alt = doc["costs"]["best_alternative"]
        assert alt is not None
        assert alt["cost"] <= doc["costs"]["current"] + 1e-12
        assert doc["costs"]["switch_saving"] >= 0.0

    def test_full_replication_is_the_costlier_baseline(self):
        broker = make_broker()
        broker.put("c", "obj", MB)
        doc = broker.explain("c", "obj")
        assert doc["costs"]["full_replication"] >= doc["costs"]["current"]


class TestExplainAgreesWithJournal:
    def test_replayed_saving_matches_logged_saving(self):
        broker = migrated_broker()
        committed = broker.events.query(type="migration.committed")
        assert committed, "flash crowd should have produced a migration"
        doc = broker.explain("c", "obj")
        migration = doc["last_migration"]
        assert migration is not None
        assert migration["seq"] == committed[-1]["seq"]
        # The live CostModel replay of the journaled appraisal must agree
        # with what the optimizer logged at decision time.
        assert migration["agrees"] is True
        assert migration["replayed_saving"] == pytest.approx(
            migration["logged_saving"], rel=1e-6, abs=1e-9
        )
        assert migration["logged_saving"] == pytest.approx(
            committed[-1]["saving"], rel=1e-9
        )

    def test_migration_event_carries_machine_readable_placements(self):
        broker = migrated_broker()
        event = broker.events.query(type="migration.committed")[-1]
        assert event["old_providers"] and event["new_providers"]
        assert event["old_m"] >= 1 and event["new_m"] >= 1
        assert event["saving"] > 0
        assert event["migration_cost"] >= 0
        doc = broker.explain("c", "obj")
        assert doc["placement"]["providers"] == sorted(event["new_providers"])
        assert doc["placement"]["m"] == event["new_m"]

    def test_events_disabled_still_explains(self):
        broker = make_broker(enable_events=False)
        broker.put("c", "obj", MB)
        doc = broker.explain("c", "obj")
        assert doc["found"] is True
        assert doc["events"] == []
        assert doc["last_migration"] is None

    def test_last_migration_survives_3000_puts_of_other_keys(self):
        # One ``placement.chosen`` per PUT used to share a single ring with
        # everything else: 1 469 PUTs evicted the migration on record.
        broker = migrated_broker()
        seq = broker.events.query(type="migration.committed")[-1]["seq"]
        for i in range(3000):
            broker.put("c", f"other{i}", 1024)
        doc = broker.explain("c", "obj")
        assert doc["last_migration"] is not None
        assert doc["last_migration"]["seq"] == seq
        assert doc["last_migration"]["agrees"] is True
