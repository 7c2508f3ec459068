"""The placement table: Algorithm 1 priced from rows worked out once.

What a provider set costs and tolerates does not depend on the object's
access pattern, so ``PlacementEngine`` keeps it per (pool, rule, size,
exclude) and a search is one pass of multiply-adds.  These tests hold
the table to the definition it replaced (the loop over ``combinations``
x ``decide``, costs compared with ``==``), to the paper scenarios' totals
to the last bit, and to its own promises: nothing stale, a miss does the
old search's work and no more, a bound on rows, safe under threads.
"""

import sys
import threading
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.placement as placement_module
from repro.cluster.engine import PlacementError
from repro.core.broker import Scalia
from repro.core.costmodel import AccessProjection, CostModel
from repro.core.placement import TABLE_ROWS, PlacementDecision, PlacementEngine
from repro.core.rules import RuleBook, StorageRule
from repro.erasure.striping import chunk_length
from repro.providers.health import BREAKER_CLOSED, BREAKER_OPEN, HealthTracker
from repro.providers.pricing import PricingPolicy, ProviderSpec, paper_catalog
from repro.providers.registry import ProviderRegistry
from repro.sim import scenarios
from repro.sim.simulator import ScenarioSimulator
from repro.types import Placement
from repro.util.units import MB

CATALOG = paper_catalog()
RULE = StorageRule("backup", durability=0.99999, availability=0.9999, lockin=0.5)
MIME = "application/octet-stream"


# -- the definition the table replaced, written out -------------------------


def parent_cost(model, pset, m, projection, horizon):
    """``CostModel.expected_cost`` as the parent commit wrote it."""
    size = projection.size_bytes
    storage = model.storage_cost_per_period(pset, m, size)
    read = model.read_cost(pset, m, size)
    write = model.write_cost(pset, m, size)
    delete = model.delete_cost(pset)
    per_period = (
        storage
        + projection.reads_per_period * read
        + projection.writes_per_period * write
    )
    one_time = (
        projection.one_time_writes * write + projection.one_time_deletes * delete
    )
    return per_period * horizon + one_time


def parent_decide(engine, pset, rule, projection, horizon):
    """``PlacementEngine.decide`` as the parent commit wrote it."""
    if len(pset) < rule.min_providers:
        return None
    m = engine.threshold_for(pset, rule)
    if m <= 0:
        return None
    chunk = chunk_length(projection.size_bytes, m)
    if any(s.max_chunk_bytes is not None and chunk > s.max_chunk_bytes for s in pset):
        return None
    cost = parent_cost(engine.cost_model, pset, m, projection, horizon)
    return PlacementDecision(Placement(tuple(sorted(s.name for s in pset)), m), cost)


def reference_search(engine, decide, specs, rule, projection, horizon, exclude):
    """The loop ``enumerate_feasible`` used to be."""
    eligible = engine.eligible_specs(specs, rule, exclude)
    out = []
    for size in range(max(1, rule.min_providers), len(eligible) + 1):
        for pset in combinations(eligible, size):
            decision = decide(pset, rule, projection, horizon)
            if decision is not None:
                out.append(decision)
    return out


# -- (a) equivalence --------------------------------------------------------

ZONES = ("EU", "US", "APAC")
price = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
sla = st.sampled_from([0.9, 0.99, 0.999, 0.9999, 0.999999, 0.99999999999])
rule_sla = st.sampled_from([0.9, 0.99, 0.9999, 0.99999, 0.9999999])


@st.composite
def pools(draw):
    count = draw(st.integers(min_value=2, max_value=7))
    return [
        ProviderSpec(
            name=f"p{i}",
            durability=draw(sla),
            availability=draw(sla),
            zones=frozenset(draw(st.sets(st.sampled_from(ZONES), min_size=1))),
            pricing=PricingPolicy(draw(price), draw(price), draw(price), draw(price) / 10),
            max_chunk_bytes=draw(
                st.one_of(st.none(), st.integers(min_value=1, max_value=4 * MB))
            ),
        )
        for i in range(count)
    ]


rules = st.builds(
    StorageRule,
    name=st.just("r"),
    durability=rule_sla,
    availability=rule_sla,
    zones=st.sets(st.sampled_from(ZONES)).map(frozenset),
    lockin=st.sampled_from([1.0, 0.5, 0.34, 0.25]),
)
rate = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
projections = st.builds(
    AccessProjection,
    size_bytes=st.integers(min_value=0, max_value=8 * MB),
    reads_per_period=rate,
    writes_per_period=rate,
    one_time_writes=st.sampled_from([0.0, 1.0]),
    one_time_deletes=st.sampled_from([0.0, 1.0]),
)


class TestTableEqualsTheLoopItReplaced:
    @settings(max_examples=120, deadline=None)
    @given(
        specs=pools(),
        rule=rules,
        projection=projections,
        other=projections,
        horizon=st.sampled_from([0.0, 1.0, 24.0, 730.0]),
        excluded=st.sets(st.integers(min_value=0, max_value=6), max_size=2),
        literal=st.booleans(),
        k=st.integers(min_value=0, max_value=5),
    )
    def test_same_placements_order_and_costs_to_the_bit(
        self, specs, rule, projection, other, horizon, excluded, literal, k
    ):
        engine = PlacementEngine(CostModel(), literal_algorithm1=literal)
        exclude = frozenset(f"p{i}" for i in excluded)
        # Priced twice over one table entry: the build, then a hit under
        # another projection of the same size.
        for proj in (projection, AccessProjection(
            projection.size_bytes, other.reads_per_period, other.writes_per_period,
            other.one_time_writes, other.one_time_deletes,
        )):
            args = (specs, rule, proj, horizon)
            found = engine.enumerate_feasible(*args, exclude=exclude)
            assert found == reference_search(engine, engine.decide, *args, exclude)
            assert found == reference_search(
                engine,
                lambda *a: parent_decide(engine, *a),
                *args, exclude,
            )
            ranked = engine.ranked(*args, exclude=exclude)
            assert sorted(ranked, key=lambda d: d.placement.providers) == sorted(
                found, key=lambda d: d.placement.providers
            )
            assert all(
                not engine.better(b, a) for a, b in zip(ranked, ranked[1:])
            )
            assert engine.ranked(*args, exclude=exclude, limit=k) == ranked[:k]
            if found:
                assert engine.best_placement(*args, exclude=exclude) == ranked[0]
            else:
                with pytest.raises(PlacementError) as caught:
                    engine.best_placement(*args, exclude=exclude)
                assert str(caught.value) == (
                    f"no feasible placement for rule {rule.name!r} "
                    f"over {len(specs)} providers (excluded: {sorted(exclude)})"
                )

    def test_negative_horizon_is_still_refused(self):
        engine = PlacementEngine(CostModel())
        with pytest.raises(ValueError):
            engine.best_placement(CATALOG, RULE, AccessProjection(MB), -1.0)


# -- (b) golden totals ------------------------------------------------------


class TestScenarioTotalsToTheLastBit:
    @pytest.mark.parametrize(
        "scenario, total",
        [
            (lambda: scenarios.slashdot_scenario(180), 0.9376404959419946),
            (scenarios.gallery_scenario, 0.8864283904109589),
            (scenarios.new_provider_scenario, 1.0761922465753426),
        ],
        ids=["slashdot", "gallery", "new_provider"],
    )
    def test_total_cost(self, scenario, total):
        assert ScenarioSimulator(scenario()).run().total_cost == total


# -- (c) nothing stale ------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def rulebook(strict: StorageRule) -> RuleBook:
    book = RuleBook()
    book.register(strict)
    return book


def place(broker, size, rule_name=None):
    return broker.planner.place(
        container="c", key="k", size=size, mime=MIME, rule_name=rule_name,
        period=broker.period, exclude=frozenset(),
    )


class TestNothingStale:
    SIZES = (1024, MB, 40 * MB)

    def check(self, broker, strict):
        """``place`` answers what a broker built now on this state does."""
        fresh = Scalia(
            ProviderRegistry(
                broker.registry.specs(include_failed=False, include_sick=False)
            ),
            rulebook(strict),
        )
        try:
            for size in self.SIZES:
                for rule_name in (None, strict.name):
                    assert place(broker, size, rule_name) == place(
                        fresh, size, rule_name
                    ), (size, rule_name)
        finally:
            fresh.close()

    def test_place_follows_prices_outages_breakers_and_rules(self):
        clock = FakeClock()
        tracker = HealthTracker(
            clock=clock, open_after=3, cooldown_s=30.0, half_open_probes=1
        )
        strict = StorageRule("strict", durability=0.999999, availability=0.9999, lockin=0.5)
        broker = Scalia(ProviderRegistry(CATALOG, health=tracker), rulebook(strict))
        try:
            self.check(broker, strict)  # fills the table
            before = [place(broker, size) for size in self.SIZES]

            cheap = broker.registry.get("Ggl").spec.pricing
            broker.registry.update_pricing("Ggl", PricingPolicy(0.01, 0.0, 0.0, 0.0))
            self.check(broker, strict)
            assert [place(broker, size) for size in self.SIZES] != before
            broker.registry.update_pricing("Ggl", cheap)
            self.check(broker, strict)
            assert [place(broker, size) for size in self.SIZES] == before

            broker.registry.fail("S3(l)")
            self.check(broker, strict)
            assert all("S3(l)" not in place(broker, s).providers for s in self.SIZES)
            broker.registry.recover("S3(l)")
            self.check(broker, strict)

            for _ in range(3):
                tracker.observe("S3(h)", 0.0, ok=False, transient=True)
            assert tracker.breaker_state("S3(h)") == BREAKER_OPEN
            self.check(broker, strict)
            assert all("S3(h)" not in place(broker, s).providers for s in self.SIZES)
            clock.t += 30.0
            assert tracker.allow_request("S3(h)")
            tracker.observe("S3(h)", 0.0, ok=True)
            assert tracker.breaker_state("S3(h)") == BREAKER_CLOSED
            self.check(broker, strict)

            # The same name, another SLA: the key holds the rule, not its name.
            relaxed = StorageRule("strict", durability=0.99, availability=0.99, lockin=1.0)
            strict_answers = [place(broker, s, "strict") for s in self.SIZES]
            broker.rules.register(relaxed)
            self.check(broker, relaxed)
            assert [place(broker, s, "strict") for s in self.SIZES] != strict_answers
        finally:
            broker.close()


# -- (d) a miss does the old search's work and no more ----------------------


class TestWorkPerSearch:
    def test_hit_computes_nothing_and_a_new_size_no_threshold(self, monkeypatch):
        calls = {"threshold": 0, "storage": 0, "read": 0, "write": 0, "delete": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            placement_module, "max_feasible_threshold",
            counted("threshold", placement_module.max_feasible_threshold),
        )
        model = CostModel()
        for name, method in (
            ("storage", "storage_cost_per_period"), ("read", "read_cost"),
            ("write", "write_cost"), ("delete", "delete_cost"),
        ):
            monkeypatch.setattr(model, method, counted(name, getattr(model, method)))
        engine = PlacementEngine(model)
        # Seven nines of availability: no pair of the catalogue reaches it.
        rule = StorageRule("d", durability=0.99999, availability=0.9999999, lockin=0.5)
        enumerated = sum(1 for n in range(2, 6) for _ in combinations(CATALOG, n))

        first = engine.enumerate_feasible(CATALOG, rule, AccessProjection(MB), 24.0)
        feasible = len(first)
        assert (feasible, enumerated) == (16, 26)
        assert calls == {
            "threshold": enumerated, "storage": feasible, "read": feasible,
            "write": feasible, "delete": feasible,
        }
        assert engine.table_stats() == {"hit": 0, "built": 1, "rows": feasible}

        after_first = dict(calls)
        hot = AccessProjection(MB, reads_per_period=500.0, writes_per_period=2.0)
        engine.best_placement(CATALOG, rule, hot, 8.0)
        engine.ranked(CATALOG, rule, hot, 8.0, limit=4)
        assert calls == after_first
        assert engine.table_stats() == {"hit": 2, "built": 1, "rows": feasible}

        engine.best_placement(CATALOG, rule, AccessProjection(2 * MB), 24.0)
        assert calls == {
            "threshold": enumerated, "storage": 2 * feasible, "read": 2 * feasible,
            "write": 2 * feasible, "delete": 2 * feasible,
        }
        assert engine.table_stats() == {"hit": 2, "built": 2, "rows": 2 * feasible}

        # forget() is a cold engine again.
        engine.forget()
        assert engine.table_stats()["rows"] == 0
        engine.best_placement(CATALOG, rule, AccessProjection(MB), 24.0)
        assert calls["threshold"] == 2 * enumerated

    def test_decide_consults_no_table(self):
        engine = PlacementEngine(CostModel())
        assert engine.decide(CATALOG[:3], RULE, AccessProjection(MB), 24.0) is not None
        assert engine.table_stats() == {"hit": 0, "built": 0, "rows": 0}


# -- (e) the bound ----------------------------------------------------------


class TestRowBound:
    def test_rows_stay_under_the_constant_and_the_oldest_key_goes(self):
        pool = [
            ProviderSpec(
                name=f"p{i}", durability=0.999999, availability=0.999,
                zones=frozenset({"US"}),
                pricing=PricingPolicy(0.1 + 0.01 * i, 0.1, 0.15, 0.01),
            )
            for i in range(10)
        ]

        class FlatCosts(CostModel):
            """The bound is about rows, not prices: skip 76 560 x 4 sums."""

            def coefficients(self, specs, m, size_bytes):
                return (1.0, 1.0, 1.0, 1.0)

        engine = PlacementEngine(FlatCosts())
        rule = StorageRule("wide", durability=0.99999, availability=0.9999, lockin=0.25)
        sizes = [MB + i for i in range(120)]
        per_entry = None
        for size in sizes:
            engine.best_placement(pool, rule, AccessProjection(size), 24.0)
            rows = engine.table_stats()["rows"]
            assert rows <= TABLE_ROWS
            per_entry = per_entry or rows
        assert per_entry * len(sizes) > TABLE_ROWS, "the test must overflow the table"

        def held(size):
            return (tuple(pool), rule, size, frozenset()) in engine._table

        fit = TABLE_ROWS // per_entry
        kept = [size for size in sizes if held(size)]
        assert kept == sizes[-fit:], "least recently used goes first"
        # A touch moves an entry to the young end: the next build spares it.
        engine.best_placement(pool, rule, AccessProjection(kept[0]), 24.0)
        engine.best_placement(pool, rule, AccessProjection(7), 24.0)
        assert held(kept[0]) and not held(kept[1])

    def test_an_infeasible_key_still_weighs_a_row(self):
        engine = PlacementEngine(CostModel())
        rule = StorageRule("never", durability=0.9999999, availability=0.9999999)
        assert engine.enumerate_feasible(CATALOG[:1], rule, AccessProjection(1), 1.0) == []
        assert engine.table_stats()["rows"] == 1


# -- (f) threads ------------------------------------------------------------


class TestConcurrentPlacers:
    def test_every_answer_is_one_of_the_two_price_sheets(self):
        sheets = (
            CATALOG[1].pricing,  # S3(l) as published
            PricingPolicy(0.5, 0.3, 0.4, 0.05),  # S3(l) priced out
        )
        sizes = (1024, MB, 40 * MB)

        def answers(sheet):
            registry = ProviderRegistry(CATALOG)
            registry.update_pricing("S3(l)", sheet)
            broker = Scalia(registry)
            try:
                return {size: place(broker, size) for size in sizes}
            finally:
                broker.close()

        expected = [answers(sheet) for sheet in sheets]
        assert expected[0] != expected[1]

        broker = Scalia(ProviderRegistry(CATALOG))
        stop = threading.Event()
        wrong = []
        counts = [0] * 4

        def placer(slot):
            while not stop.is_set():
                for size in sizes:
                    got = place(broker, size)
                    if got != expected[0][size] and got != expected[1][size]:
                        wrong.append((size, got))
                    counts[slot] += 1

        def repricer():
            turn = 0
            while not stop.is_set():
                turn += 1
                broker.registry.update_pricing("S3(l)", sheets[turn % 2])

        threads = [threading.Thread(target=placer, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=repricer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(2.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            broker.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:3]
        assert all(count > 0 for count in counts)
        stats = broker.placement_engine.table_stats()
        assert stats["rows"] <= TABLE_ROWS
        assert stats["hit"] + stats["built"] >= sum(counts)
