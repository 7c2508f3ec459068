"""The decision-event journal: ordering, budgets, filters, concurrency.

The concurrency test is property-based: for *any* mix of writer threads
and event sizes, the ring must (a) never block an emitter on anything
but its own leaf mutex, (b) never exceed either the entry or the byte
budget, and (c) preserve each writer's emission order in the surviving
suffix — those three properties are the journal's whole contract.
"""

import io
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventJournal, NULL_JOURNAL, resolve_journal


class TestEmitAndQuery:
    def test_emit_assigns_monotonic_seq(self):
        journal = EventJournal()
        assert journal.emit("a") == 1
        assert journal.emit("b") == 2
        assert journal.latest_seq == 2

    def test_event_carries_type_key_and_fields(self):
        journal = EventJournal(clock=lambda: 123.456789)
        journal.emit("placement.chosen", key="bucket/k", cost=0.5, m=2)
        (event,) = journal.query()
        assert event["type"] == "placement.chosen"
        assert event["key"] == "bucket/k"
        assert event["cost"] == 0.5
        assert event["m"] == 2
        assert event["ts"] == 123.457  # rounded to ms

    def test_type_filter_exact_and_dot_prefix(self):
        journal = EventJournal()
        journal.emit("migration.planned")
        journal.emit("migration.committed")
        journal.emit("migrationx")
        assert len(journal.query(type="migration.committed")) == 1
        assert len(journal.query(type="migration.")) == 2
        assert len(journal.query(type="migration")) == 0

    def test_since_is_an_exclusive_resume_cursor(self):
        journal = EventJournal()
        for i in range(5):
            journal.emit("tick", n=i)
        cursor = journal.query()[2]["seq"]
        newer = journal.query(since=cursor)
        assert [e["n"] for e in newer] == [3, 4]

    def test_key_filter(self):
        journal = EventJournal()
        journal.emit("scrub.verdict", key="c/a")
        journal.emit("scrub.verdict", key="c/b")
        journal.emit("breaker.open")  # no key at all
        assert [e["key"] for e in journal.query(key="c/b")] == ["c/b"]

    def test_limit_keeps_newest(self):
        journal = EventJournal()
        for i in range(10):
            journal.emit("tick", n=i)
        assert [e["n"] for e in journal.query(limit=3)] == [7, 8, 9]

    def test_query_returns_copies(self):
        journal = EventJournal()
        journal.emit("a", x=1)
        journal.query()[0]["x"] = 999
        assert journal.query()[0]["x"] == 1

    def test_unserializable_fields_fall_back_to_str(self):
        journal = EventJournal()
        journal.emit("odd", obj=object())
        (event,) = journal.query()
        assert "object object" in json.dumps(event, default=str)


class TestBudgets:
    def test_capacity_evicts_oldest(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.emit("tick", n=i)
        assert [e["n"] for e in journal.query()] == [2, 3, 4]
        assert journal.stats()["evicted"] == 2

    def test_byte_budget_evicts_oldest(self):
        journal = EventJournal(max_bytes=600)
        for i in range(20):
            journal.emit("tick", pad="x" * 50)
        stats = journal.stats()
        assert stats["bytes"] <= 600
        assert stats["evicted"] > 0
        assert len(journal) == stats["entries"]

    def test_oversize_event_is_dropped_not_stored(self):
        journal = EventJournal(max_bytes=200)
        assert journal.emit("huge", pad="x" * 1000) is None
        assert len(journal) == 0
        assert journal.stats()["dropped_oversize"] == 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)
        with pytest.raises(ValueError):
            EventJournal(max_bytes=0)


# What one ``placement.chosen`` weighs in a live broker: 687 bytes, one
# per PUT.
_CHOSEN_PAD = "x" * 600


def _stored_size(event) -> int:
    """Bytes the journal charged for ``event`` (sized before its ``seq``
    replaced the one-character placeholder)."""
    return len(json.dumps(event, default=str)) - len(str(event["seq"])) + 1


class TestFamilies:
    """The ring is kept per event family (the type up to its first dot):
    a chatty family can only push out itself once it is the largest."""

    def test_chatty_family_does_not_evict_the_rare_ones(self):
        # At the parent: after 1 469 PUTs both decisions were gone.
        journal = EventJournal()
        journal.emit("breaker.open", key="S3(l)", previous="closed")
        journal.emit("migration.committed", key="c/obj", saving=0.01)
        for i in range(5000):
            journal.emit("placement.chosen", key=f"c/k{i}", pad=_CHOSEN_PAD)
        assert [e["key"] for e in journal.query(type="breaker.")] == ["S3(l)"]
        assert [e["key"] for e in journal.query(type="migration.committed")] == [
            "c/obj"
        ]
        assert journal.query(key="c/obj")[0]["saving"] == 0.01
        stats = journal.stats()
        assert stats["entries"] <= stats["capacity"]
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["emitted"] == stats["entries"] + stats["evicted"] == 5002

    def test_largest_family_pays_for_a_small_familys_event(self):
        journal = EventJournal(capacity=4)
        for i in range(4):
            journal.emit("placement.chosen", n=i, pad="x" * 50)
        journal.emit("breaker.open")
        assert [e.get("n") for e in journal.query()] == [1, 2, 3, None]
        assert journal.stats()["evicted"] == 1

    @settings(max_examples=50, deadline=None)
    @given(
        emits=st.lists(
            st.tuples(
                st.sampled_from(
                    ["placement.chosen", "breaker.open", "breaker.closed",
                     "alert.fired", "migration.committed", "tick"]
                ),
                st.integers(min_value=0, max_value=120),
            ),
            max_size=120,
        ),
        capacity=st.integers(min_value=1, max_value=32),
        max_bytes=st.integers(min_value=200, max_value=2048),
    )
    def test_budgets_hold_and_order_is_seq_with_families_interleaved(
        self, emits, capacity, max_bytes
    ):
        journal = EventJournal(capacity=capacity, max_bytes=max_bytes)
        held = []  # what the journal should hold: (seq, family, size)
        for type_, pad in emits:
            seq = journal.emit(type_, pad="x" * pad)
            stats = journal.stats()
            assert stats["entries"] <= capacity
            assert stats["bytes"] <= max_bytes
            merged = journal.query()
            assert stats["entries"] == len(journal) == len(merged)
            assert merged[-1]["seq"] == seq, "an emit that returned a seq landed"
            # Replay the evictions: each one took the oldest event of a
            # family holding the most bytes (ties may break either way).
            held.append((seq, type_.partition(".")[0], _stored_size(merged[-1])))
            alive = {e["seq"] for e in merged}
            while len(held) > len(merged):
                by_family = {}
                for _, family, size in held[:-1]:  # never the newcomer
                    by_family[family] = by_family.get(family, 0) + size
                if held[-1][1] in by_family:
                    by_family[held[-1][1]] += held[-1][2]
                most = max(by_family.values())
                victims = [
                    next(h for h in held if h[1] == family)
                    for family, total in by_family.items()
                    if total == most
                ]
                gone = [v for v in victims if v[0] not in alive]
                assert gone, "evicted from a family that was not the largest"
                held.remove(gone[0])
            assert [h[0] for h in held] == [e["seq"] for e in merged]
            assert stats["bytes"] == sum(h[2] for h in held)
        merged = journal.query()
        # The filters answer from the same merged order.
        assert journal.query(type="breaker.") == [
            e for e in merged if e["type"].startswith("breaker.")
        ]
        if merged:
            cursor = merged[len(merged) // 2]["seq"]
            assert journal.query(since=cursor) == [
                e for e in merged if e["seq"] > cursor
            ]
            assert journal.query(limit=3) == merged[-3:]

    def test_merged_order_is_seq_order(self):
        journal = EventJournal()
        types = ["placement.chosen", "breaker.open", "alert.fired", "tick"]
        for i in range(40):
            journal.emit(types[i % 4], n=i)
        assert [e["n"] for e in journal.query()] == list(range(40))
        assert [e["n"] for e in journal.query(since=30, limit=4)] == [36, 37, 38, 39]
        assert [e["n"] for e in journal.query(type="tick")] == list(range(3, 40, 4))

    def test_sink_sees_every_event_whatever_the_rings_evict(self):
        sink = io.StringIO()
        journal = EventJournal(capacity=8, sink=sink)
        journal.emit("breaker.open", key="RS")
        for i in range(50):
            journal.emit("placement.chosen", n=i)
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [l["seq"] for l in lines] == list(range(1, 52))
        assert lines[0]["type"] == "breaker.open"
        assert len(journal) == 8


class TestDisabledAndSink:
    def test_disabled_journal_is_a_cheap_noop(self):
        journal = EventJournal(enabled=False)
        assert journal.emit("a", x=1) is None
        assert journal.query() == []
        assert journal.latest_seq == 0

    def test_null_journal_and_resolve(self):
        assert resolve_journal(None) is NULL_JOURNAL
        journal = EventJournal()
        assert resolve_journal(journal) is journal
        assert NULL_JOURNAL.emit("x") is None

    def test_sink_receives_jsonl(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink)
        journal.emit("a", n=1)
        journal.emit("b", n=2)
        lines = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert [l["type"] for l in lines] == ["a", "b"]
        assert lines[0]["seq"] == 1

    def test_sink_failure_is_swallowed_and_counted(self):
        class Broken(io.StringIO):
            def write(self, *_):
                raise OSError("disk full")

        journal = EventJournal(sink=Broken())
        assert journal.emit("a") == 1  # emit still succeeds
        assert journal.stats()["sink_errors"] == 1
        assert len(journal) == 1


class TestConcurrency:
    @settings(max_examples=25, deadline=None)
    @given(
        writers=st.integers(min_value=2, max_value=6),
        per_writer=st.integers(min_value=5, max_value=40),
        capacity=st.integers(min_value=4, max_value=64),
        max_bytes=st.integers(min_value=256, max_value=4096),
        pad=st.integers(min_value=0, max_value=64),
    )
    def test_parallel_writers_never_blocked_budgets_hold_order_preserved(
        self, writers, per_writer, capacity, max_bytes, pad
    ):
        journal = EventJournal(capacity=capacity, max_bytes=max_bytes)
        barrier = threading.Barrier(writers)
        results = [None] * writers

        def worker(wid):
            barrier.wait()
            seqs = []
            for i in range(per_writer):
                seq = journal.emit("w", key=f"w{wid}", n=i, pad="x" * pad)
                # An in-budget emit always lands; only oversize returns None.
                assert seq is not None
                seqs.append(seq)
            results[wid] = seqs

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "an emitter blocked"

        stats = journal.stats()
        # Both budgets hold at all times (checked here at quiescence; the
        # eviction loop runs inside the same critical section as the
        # append, so no interleaving can overshoot).
        assert stats["entries"] <= capacity
        assert stats["bytes"] <= max_bytes
        assert stats["emitted"] == writers * per_writer
        assert stats["emitted"] == stats["entries"] + stats["evicted"]

        # Every writer saw strictly increasing seqs (its own program order
        # is preserved), and the surviving ring is the newest suffix in
        # global seq order.
        for seqs in results:
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
        ring = journal.query()
        ring_seqs = [e["seq"] for e in ring]
        assert ring_seqs == sorted(ring_seqs)
        for wid in range(writers):
            mine = [e["n"] for e in ring if e.get("key") == f"w{wid}"]
            assert mine == sorted(mine)

    def test_emit_safe_while_reader_spins(self):
        journal = EventJournal(capacity=32)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    journal.query(type="w", limit=5)
                    journal.stats()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        t = threading.Thread(target=reader)
        t.start()
        for i in range(500):
            journal.emit("w", n=i)
        stop.set()
        t.join(timeout=10)
        assert not errors
