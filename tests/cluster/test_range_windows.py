"""Sub-stripe range reads: a ranged GET fetches, proves and decodes only
the 64 KiB Merkle leaves that cover it.

Every object here has chunks that span several leaves (the older range
tests use 4 KiB and 64 KiB stripes, one leaf per chunk, and so stay on
the whole-chunk path).  The traffic oracle is written out again in this
file, on purpose independent of ``repro.cluster.readpath``'s planner
(which tests/cluster/test_readpath.py tests alone).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.engine as engine_module
import repro.erasure.rs as rs_module
from repro.cluster.engine import Engine, PendingDeleteQueue, ReadFailedError
from repro.cluster.metadata import MetadataCluster
from repro.cluster.statistics import LogAgent, LogAggregator, StatsDatabase
from repro.obs.events import EventJournal
from repro.providers.pricing import paper_catalog
from repro.providers.provider import ChunkCorruptionError, _tampered
from repro.providers.registry import ProviderRegistry
from repro.storage.merkle import LEAF_SIZE, leaf_length, path_length
from repro.util.ids import IdGenerator, object_row_key
from tests.cluster.test_striped_engine import StubPlanner

KiB = 1024
LEAF = LEAF_SIZE


class Harness:
    """One engine, a stub planner with the code of your choice, a journal."""

    def __init__(self, *, m=4, n=5, stripe=2 * 1024 * KiB):
        self.registry = ProviderRegistry(paper_catalog())
        self.stripe = stripe
        self.journal = EventJournal()
        self.engine = Engine(
            "dc1-e1",
            "dc1",
            registry=self.registry,
            metadata=MetadataCluster(("dc1",)),
            cache=None,
            log_agent=LogAgent(LogAggregator(StatsDatabase()), auto_flush_at=1),
            planner=StubPlanner(self.registry, m=m, n=n),
            ids=IdGenerator(seed=7),
            pending_deletes=PendingDeleteQueue(),
            journal=self.journal,
        )

    def put(self, key, data):
        return self.engine.put("c", key, data, stripe_size=self.stripe)

    def traffic(self):
        """``{provider: (gets, bytes out)}``, as billed so far."""
        return {
            p.name: (p.meter.total().ops_get, p.meter.total().bytes_out)
            for p in self.registry.providers()
        }

    def read(self, key, lo, hi, **kwargs):
        """A ranged get (inclusive ends) and what it cost, per provider."""
        before = self.traffic()
        payload = self.engine.get("c", key, byte_range=(lo, hi), **kwargs)
        after = self.traffic()
        moved = {
            name: (after[name][0] - before[name][0], after[name][1] - before[name][1])
            for name in after
            if after[name] != before[name]
        }
        return payload, moved

    def provider_of(self, meta, index):
        return dict(meta.chunk_map)[index]

    def events(self, kind):
        return [e for e in self.journal.query(limit=1000) if e["type"] == kind]


def payload_of(size, seed=0):
    return random.Random(seed).randbytes(size)


def proof_bytes(chunk_size, first, last):
    """Egress of a proof of leaves ``first..last`` of one chunk."""
    return sum(
        leaf_length(chunk_size, leaf) + 32 * path_length(chunk_size, leaf)
        for leaf in range(first, last + 1)
    )


def expected_traffic(meta, lo, hi):
    """``(gets, bytes out)`` of a healthy ranged read of inclusive
    ``[lo, hi]``: per covering stripe, a row's covering leaves plus
    32 B per path entry from the one chunk that holds the row; ``m``
    whole chunks where that is no narrower (a whole stripe, every leaf
    of every row, chunks of one leaf) or there are no roots."""
    gets = moved = offset = 0
    for length in meta.stripe_lengths:
        s_lo, s_hi = max(lo, offset) - offset, min(hi + 1, offset + length) - offset
        offset += length
        if s_hi <= s_lo:
            continue
        clen = max(1, -(-length // meta.m))
        last_leaf = max(1, -(-clen // LEAF)) - 1
        rows = []
        for row in range(meta.m):
            a, b = max(s_lo, row * clen), min(s_hi, (row + 1) * clen)
            if a < b:
                rows.append(((a - row * clen) // LEAF, (b - 1 - row * clen) // LEAF))
        every_leaf = len(rows) == meta.m and all(span == (0, last_leaf) for span in rows)
        if every_leaf or last_leaf == 0 or s_hi - s_lo == length or not meta.merkle:
            gets += meta.m
            moved += meta.m * clen
        else:
            gets += len(rows)
            moved += sum(proof_bytes(clen, first, last) for first, last in rows)
    return gets, moved


def total(moved):
    return (
        sum(gets for gets, _ in moved.values()),
        sum(out for _, out in moved.values()),
    )


class TestRangeProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(1, 12 * LEAF),
        code=st.sampled_from([(1, 2), (2, 3), (3, 4), (4, 5)]),
        stripe=st.sampled_from([3 * LEAF, 4 * LEAF + 17, 8 * LEAF, 16 * LEAF]),
        data=st.data(),
    )
    def test_bytes_and_bill(self, size, code, stripe, data):
        m, n = code
        h = Harness(m=m, n=n, stripe=stripe)
        payload = payload_of(size, seed=size)
        meta = h.put("k", payload)
        lo = data.draw(st.integers(0, size - 1), label="lo")
        hi = data.draw(st.integers(lo, size - 1), label="hi")
        got, moved = h.read("k", lo, hi)
        assert got == payload[lo : hi + 1]
        assert total(moved) == expected_traffic(meta, lo, hi)


class TestBoundaries:
    """m:4 n:5, 2 MiB stripes: rows of 512 KiB = 8 leaves, paths of 3."""

    ROW = 512 * KiB
    STRIPE = 2 * 1024 * KiB

    @pytest.fixture()
    def h(self):
        return Harness()

    def put_two_stripes(self, h, extra=0):
        data = payload_of(2 * self.STRIPE + extra, seed=3)
        return data, h.put("k", data)

    def test_64k_inside_one_row_is_one_get_of_two_leaves(self, h):
        data, meta = self.put_two_stripes(h)
        lo = self.ROW + 3 * LEAF + 11
        got, moved = h.read("k", lo, lo + LEAF - 1)
        assert got == data[lo : lo + LEAF]
        # One get from the holder of row 1: 2 leaves + 2 x 3 sibling hashes.
        assert moved == {h.provider_of(meta, 1): (1, 2 * LEAF + 6 * 32)}

    def test_leaf_edge(self, h):
        data, meta = self.put_two_stripes(h)
        cases = {
            (2 * LEAF, 3 * LEAF - 1): 1,  # exactly one leaf
            (2 * LEAF, 3 * LEAF): 2,  # one byte over the edge
            (2 * LEAF - 1, 3 * LEAF - 1): 2,  # one byte before it
        }
        for (lo, hi), leaves in cases.items():
            got, moved = h.read("k", lo, hi)
            assert got == data[lo : hi + 1]
            assert total(moved) == (1, leaves * (LEAF + 3 * 32))

    def test_chunk_row_edge_asks_two_holders(self, h):
        data, meta = self.put_two_stripes(h)
        lo, hi = 2 * self.ROW - 100, 2 * self.ROW + 99
        got, moved = h.read("k", lo, hi)
        assert got == data[lo : hi + 1]
        one_leaf = (1, LEAF + 3 * 32)
        assert moved == {
            h.provider_of(meta, 1): one_leaf,  # last leaf of row 1
            h.provider_of(meta, 2): one_leaf,  # first leaf of row 2
        }

    def test_stripe_edge_is_two_segments(self, h):
        data, meta = self.put_two_stripes(h)
        lo, hi = self.STRIPE - 7, self.STRIPE + 7
        plan = h.engine.open_read("c", "k", byte_range=(lo, hi))
        assert plan.segments == [(0, self.STRIPE - 7, self.STRIPE), (1, 0, 8)]
        got, moved = h.read("k", lo, hi)
        assert got == data[lo : hi + 1]
        # Last row of stripe 0 and first row of stripe 1: two gets.
        assert moved == {
            h.provider_of(meta, 3): (1, LEAF + 3 * 32),
            h.provider_of(meta, 0): (1, LEAF + 3 * 32),
        }

    def test_padded_last_row_and_short_last_leaf(self, h):
        # The tail stripe is 1_000_001 B: rows of 250_001 B (3 leaves and
        # 53_393 B), the last row padded by 3 B.
        data, meta = self.put_two_stripes(h, extra=1_000_001)
        assert meta.stripe_lengths[-1] == 1_000_001
        clen = 250_001
        lo = len(data) - 20
        got, moved = h.read("k", lo, len(data) - 1)
        assert got == data[lo:]
        short = leaf_length(clen, 3)
        assert short == clen - 3 * LEAF
        assert moved == {
            h.provider_of(meta, 3): (1, short + 32 * path_length(clen, 3))
        }

    def test_suffix_range(self, h):
        data, meta = self.put_two_stripes(h)
        got, moved = h.read("k", len(data) - 1000, None)
        assert got == data[-1000:]
        assert moved == {h.provider_of(meta, 3): (1, LEAF + 3 * 32)}

    def test_single_stripe_layout_with_1mib_chunks(self):
        h = Harness(m=2, n=3, stripe=8 * 1024 * KiB)
        data = payload_of(2 * 1024 * KiB, seed=5)
        meta = h.put("one", data)
        assert meta.stripes == () and meta.chunk_key(1) == f"{meta.skey}:1"
        lo = 1024 * KiB + 5 * LEAF + 1
        got, moved = h.read("one", lo, lo + 99)
        assert got == data[lo : lo + 100]
        # 16 leaves per chunk: a path of 4.
        assert moved == {h.provider_of(meta, 1): (1, LEAF + 4 * 32)}

    def test_multipart_object(self, h):
        part = 3 * self.ROW + 12345  # 1.5 MiB and a bit: one stripe a part
        parts = [payload_of(part, seed=i) for i in (1, 2)]
        upload = h.engine.create_multipart_upload("c", "mp", stripe_size=self.STRIPE)
        for number, body in enumerate(parts, 1):
            h.engine.upload_part("c", "mp", upload.upload_id, number, body)
        meta = h.engine.complete_multipart_upload("c", "mp", upload.upload_id)
        assert [tag for tag, _ in meta.stripes] == ["p1g0.0", "p2g1.0"]
        data = b"".join(parts)
        lo, hi = part - 50, part + 49  # across the part boundary
        got, moved = h.read("mp", lo, hi)
        assert got == data[lo : hi + 1]
        # The last leaf of part 1's last row, the first of part 2's first.
        assert total(moved) == expected_traffic(meta, lo, hi)
        assert set(moved) == {h.provider_of(meta, 3), h.provider_of(meta, 0)}

    def test_object_without_roots_takes_the_whole_chunk_path(self, h):
        data, meta = self.put_two_stripes(h)
        rootless = dataclasses.replace(meta, merkle=())
        h.engine.rewrite_row(object_row_key("c", "k"), rootless, timestamp=1.0)
        lo = self.ROW + 100
        got, moved = h.read("k", lo, lo + 99)
        assert got == data[lo : lo + 100]
        assert total(moved) == (4, 4 * self.ROW)

    def test_partly_rooted_object_takes_the_whole_chunk_path(self, h):
        data, meta = self.put_two_stripes(h)
        partial = dataclasses.replace(meta, merkle=meta.merkle[1:])
        h.engine.rewrite_row(object_row_key("c", "k"), partial, timestamp=1.0)
        got, moved = h.read("k", 100, 199)
        assert got == data[100:200]
        assert total(moved) == (4, 4 * self.ROW)

    def test_synthetic_object_returns_the_span_and_bills_the_shape(self, h):
        # A synthetic byte count is one stripe whatever its size: four
        # chunks of 1 MiB, 16 leaves, paths of 4.
        meta = h.engine.put("c", "synth", 4 * 1024 * KiB, stripe_size=self.STRIPE)
        assert meta.stripes == () and not meta.checksum
        lo = 1024 * KiB + 3 * LEAF + 11
        got, moved = h.read("synth", lo, lo + LEAF - 1)
        assert got == LEAF
        assert moved == {h.provider_of(meta, 1): (1, 2 * LEAF + 8 * 32)}
        # Across a row edge the spans add up; with the holder down the
        # shape of m windows is billed.
        got, moved = h.read("synth", 1024 * KiB - 7, 1024 * KiB + 7)
        assert got == 15 and total(moved) == (2, 2 * (LEAF + 4 * 32))
        h.registry.get(h.provider_of(meta, 1)).fail()
        got, moved = h.read("synth", lo, lo + LEAF - 1)
        assert got == LEAF and total(moved) == (4, 4 * (2 * LEAF + 8 * 32))

    def test_whole_rows_short_of_a_stripe_fetch_only_those_rows(self, h):
        data, meta = self.put_two_stripes(h)
        lo, hi = self.ROW, 3 * self.ROW - 1  # rows 1 and 2, entire
        got, moved = h.read("k", lo, hi)
        assert got == data[lo : hi + 1]
        whole_row = (1, 8 * (LEAF + 3 * 32))
        assert moved == {
            h.provider_of(meta, 1): whole_row,
            h.provider_of(meta, 2): whole_row,
        }

    def test_every_leaf_of_a_stripe_is_m_whole_chunks(self, h):
        data, _meta = self.put_two_stripes(h)
        got, moved = h.read("k", 1, self.STRIPE - 2)  # a byte short at each end
        assert got == data[1 : self.STRIPE - 1]
        assert total(moved) == (4, 4 * self.ROW)

    def test_whole_object_get_is_todays_m_chunks_per_stripe(self, h):
        data, _meta = self.put_two_stripes(h)
        before = h.traffic()
        assert h.engine.get("c", "k") == data
        after = h.traffic()
        gets = sum(after[p][0] - before[p][0] for p in after)
        moved = sum(after[p][1] - before[p][1] for p in after)
        assert (gets, moved) == (8, 2 * self.STRIPE)

    def test_replicas_are_all_holders_and_price_picks_one(self):
        h = Harness(m=1, n=3, stripe=8 * LEAF)
        data = payload_of(16 * LEAF, seed=9)
        meta = h.put("rep", data)
        cheapest = h.engine._serving_order(meta)[0][1]
        got, moved = h.read("rep", 3 * LEAF + 1, 3 * LEAF + 10)
        assert got == data[3 * LEAF + 1 : 3 * LEAF + 11]
        assert moved == {cheapest: (1, LEAF + 3 * 32)}
        # The cheapest replica down: the next one serves the same window.
        h.registry.get(cheapest).fail()
        got, moved = h.read("rep", 3 * LEAF + 1, 3 * LEAF + 10)
        assert got == data[3 * LEAF + 1 : 3 * LEAF + 11]
        assert list(moved.values()) == [(1, LEAF + 3 * 32)] and cheapest not in moved


class TestHolderDown:
    ROW = 512 * KiB
    STRIPE = 2 * 1024 * KiB

    def test_m_windows_billed_and_only_the_wanted_row_recovered(self, monkeypatch):
        h = Harness()
        data = payload_of(2 * self.STRIPE, seed=4)
        meta = h.put("k", data)
        holder = h.provider_of(meta, 1)
        h.registry.get(holder).fail()
        multiplies = []
        real = rs_module.gf_mul_rows

        def recording(a, b):
            multiplies.append((a.shape, (len(b), len(b[0]))))
            return real(a, b)

        monkeypatch.setattr(rs_module, "gf_mul_rows", recording)
        lo = self.ROW + 3 * LEAF + 11
        got, moved = h.read("k", lo, lo + LEAF - 1)
        assert got == data[lo : lo + LEAF]
        # The same two leaves of each of the m other chunks ...
        assert holder not in moved and len(moved) == 4
        assert set(moved.values()) == {(1, 2 * LEAF + 6 * 32)}
        # ... and one multiply: one row out, only the wanted columns in.
        assert multiplies == [((1, 4), (4, LEAF))]

    def test_missing_chunk_at_the_holder_also_decodes(self):
        h = Harness()
        data = payload_of(self.STRIPE + 10, seed=6)
        meta = h.put("k", data)
        h.registry.get(h.provider_of(meta, 0)).backend.delete(meta.chunk_key(0, 0))
        got, moved = h.read("k", 10, 19)
        assert got == data[10:20]
        # The holder answered "not found" (one billed get, no bytes);
        # the m others served one leaf each.
        assert total(moved) == (4, 4 * (LEAF + 3 * 32))

    def test_suspect_holder_goes_through_the_hedged_fetch(self, monkeypatch):
        h = Harness()
        data = payload_of(self.STRIPE, seed=8)
        meta = h.put("k", data)
        holder = h.provider_of(meta, 2)
        h.registry.health.observe(holder, 0.4, ok=True)  # slow: suspect
        calls = []
        real = engine_module.hedged_fetch

        def recording(**kwargs):
            calls.append((list(kwargs["candidates"]), kwargs["count"]))
            return real(**kwargs)

        monkeypatch.setattr(engine_module, "hedged_fetch", recording)
        lo = 2 * self.ROW + 5
        got, moved = h.read("k", lo, lo + 9)
        h.engine.drain_hedges()
        assert got == data[lo : lo + 10]
        assert calls == [([(2, holder)], 1)]
        assert moved == {holder: (1, LEAF + 3 * 32)}
        assert h.engine.hedge_stats.snapshot()["hedged_reads"] == 1


class TestTamper:
    """A stored leaf tampered behind valid provider checksums (the
    ``corrupt`` fault's draw): the read proves it, skips it, says so."""

    ROW = 512 * KiB
    STRIPE = 2 * 1024 * KiB

    def tamper(self, h, meta, index, stripe=0, seed=11):
        provider = h.registry.get(h.provider_of(meta, index))
        chunk_key = meta.chunk_key(index, stripe)
        original = provider.backend.get(chunk_key)
        forged = _tampered(original, seed)
        assert forged.size == original.size and forged.data != original.data
        provider.backend.put(chunk_key, forged)

    def test_right_bytes_from_the_others_and_an_event(self):
        h = Harness()
        data = payload_of(self.STRIPE, seed=12)
        meta = h.put("k", data)
        self.tamper(h, meta, 1)
        lo = self.ROW + 2 * LEAF + 7
        got, moved = h.read("k", lo, lo + LEAF - 1)
        assert got == data[lo : lo + LEAF]
        # The holder was asked (and billed), failed its proof, and the
        # m others served the same two leaves.
        assert len(moved) == 5 and set(moved.values()) == {(1, 2 * LEAF + 6 * 32)}
        (event,) = h.events("read.proof_failed")
        assert event["key"] == "c/k"
        assert (event["stripe"], event["chunk"], event["leaves"]) == (0, 1, [2, 3])
        assert event["provider"] == h.provider_of(meta, 1)

    def test_never_a_wrong_byte_and_read_failed_names_every_liar(self):
        h = Harness()
        data = payload_of(self.STRIPE, seed=14)
        meta = h.put("k", data)
        for index in (0, 2):
            self.tamper(h, meta, index, seed=index)
        # Row 1's holder is intact: served from it, nothing noticed.
        got, moved = h.read("k", self.ROW + 1, self.ROW + 10)
        assert got == data[self.ROW + 1 : self.ROW + 11] and total(moved)[0] == 1
        # Row 0's holder lies, and of the four others one lies too: three
        # proofs are fewer than m.
        with pytest.raises(ReadFailedError) as excinfo:
            h.engine.get("c", "k", byte_range=(5, 14))
        causes = excinfo.value.causes
        liars = {h.provider_of(meta, 0), h.provider_of(meta, 2)}
        assert set(causes) == liars
        assert all(isinstance(exc, ChunkCorruptionError) for exc in causes.values())
        assert "failed their Merkle proof" in str(excinfo.value)
        assert {e["provider"] for e in h.events("read.proof_failed")} == liars

    def test_a_proof_of_other_leaves_than_asked_is_refused(self, monkeypatch):
        """An honest proof of the wrong leaves verifies against the root
        and must still not be cut as if it were the window."""
        h = Harness()
        data = payload_of(self.STRIPE, seed=15)
        meta = h.put("k", data)
        liar = h.registry.get(h.provider_of(meta, 0))
        real = liar.backend.audit
        monkeypatch.setattr(
            liar.backend, "audit", lambda key, leaves: real(key, [i + 1 for i in leaves])
        )
        got, _moved = h.read("k", 5, 14)
        assert got == data[5:15]
        assert [e["provider"] for e in h.events("read.proof_failed")] == [liar.name]
