"""Chunk index = read-price rank at write time.

A write numbers its chunks by the order ``_serving_order`` ranks healthy
providers in, so the ``m`` data chunks sit where a healthy read goes and
a whole GET does no field arithmetic.  The provider set, the bill and the
chunk bytes are those of any other order; a row carries its own
``chunk_map``, so one written under another order (alphabetical, the
rule before this one; or stale, after a price change) reads as it is,
through the parity path, and is never moved for layout's sake.
"""

import dataclasses
import io
import random

import pytest

import repro.erasure.rs as rs_module
from repro.core.broker import Scalia
from repro.types import Placement

STRIPE = 4096
ROWS = "scalia_erasure_recovered_rows_total"


def _payload(size: int, seed: int = 0) -> bytes:
    return random.Random(seed).randbytes(size)


def _engine(broker):
    return broker.cluster.all_engines()[0]


def _served_first(broker, meta):
    """Chunk indices a healthy read of ``meta`` is served from, in order."""
    return [index for index, _ in _engine(broker)._serving_order(meta)[: meta.m]]  # noqa: SLF001


def _wide(broker, m: int = 4) -> Placement:
    return Placement(tuple(broker.registry.names()), m)


def _alphabetical(broker):
    """Make ``broker`` write rows as the parent commit did: chunk ``i`` on
    the ``i``-th provider by name."""
    for engine in broker.cluster.all_engines():
        engine._layout = lambda placement, size: placement.providers  # noqa: SLF001


def _meters(broker) -> dict:
    out = {}
    for provider in broker.registry.providers():
        total = provider.meter.total()
        out[provider.name] = (
            total.ops_get, total.ops_put, total.ops_delete, total.bytes_in, total.bytes_out,
        )
    return out


def _recovered(broker) -> float:
    return broker.metrics.counter(ROWS, "").value


@pytest.fixture()
def broker():
    b = Scalia(stripe_size_bytes=STRIPE, enable_events=False)
    yield b
    b.close()


class TestDataChunksSitWhereReadsGo:
    """With every provider healthy, the first ``m`` entries of the serving
    order are chunk indices ``0..m-1``, whichever way the row was born."""

    def check(self, broker, meta, data):
        assert _served_first(broker, meta) == list(range(meta.m))
        before = _recovered(broker)
        assert broker.get(meta.container, meta.key) == data
        assert _recovered(broker) == before

    def test_put(self, broker):
        small, large = _payload(1000, 1), _payload(3 * STRIPE + 5, 2)
        self.check(broker, broker.put("c", "small", small), small)
        self.check(broker, broker.put("c", "large", large), large)

    def test_put_stream(self, broker):
        data = _payload(5 * STRIPE + 17, 3)
        self.check(broker, broker.put("c", "file", io.BytesIO(data)), data)
        blocks = (data[i : i + 1000] for i in range(0, len(data), 1000))
        self.check(broker, broker.put("c", "blocks", blocks), data)

    def test_multipart_upload(self, broker):
        parts = [_payload(2 * STRIPE + 3, 4), _payload(STRIPE - 1, 5)]
        upload = broker.create_multipart_upload("c", "mp")
        assert list(upload.providers) == [p for _, p in upload.chunk_map]
        for number, part in enumerate(parts, start=1):
            broker.upload_part("c", "mp", upload.upload_id, number, part)
        meta = broker.complete_multipart_upload("c", "mp", upload.upload_id)
        assert meta.chunk_map == upload.chunk_map
        self.check(broker, meta, b"".join(parts))

    def test_restripe_migration(self, broker):
        data = _payload(2 * STRIPE + 9, 6)
        before = broker.put("c", "k", data)
        receipt = _engine(broker).migrate("c", "k", _wide(broker))
        assert receipt.full_restripe
        meta = broker.head("c", "k")
        assert (meta.m, meta.n) == (4, 5) != (before.m, before.n)
        self.check(broker, meta, data)
        # On the Figure-3 catalogue that means RS, the one provider with
        # 0.18 $/GB egress, holds the parity chunk and not data chunk 2.
        assert dict(meta.chunk_map)[4] == "RS"

    def test_the_layout_is_the_serving_orders_own_key(self, broker):
        engine = _engine(broker)
        placement = _wide(broker)
        laid_out = engine._layout(placement, 10_000)  # noqa: SLF001
        assert sorted(laid_out) == sorted(placement.providers)
        keys = [engine._read_price(name, 2500) for name in laid_out]  # noqa: SLF001
        assert keys == sorted(keys)


class TestPlacementIdentity:
    def test_a_steady_workload_plans_no_migration_to_the_same_set(self):
        """``new_placement == meta.placement`` must not see chunk order: a
        row in read-price order would otherwise look misplaced every round."""
        broker = Scalia(seed=5, stripe_size_bytes=STRIPE, initial_decision_period=1)
        rng = random.Random(5)
        keys = []
        for i in range(24):
            size = rng.choice([200, 3000, 20_000, 3 * STRIPE + 1])
            keys.append((f"obj-{i}", _payload(size, i)))
            broker.put("steady", keys[-1][0], keys[-1][1])
        # The odd ones are never read; a cold object's best set is all
        # five providers at m:4, so put them there, as the optimizer
        # would once the move pays, in the engine's (not the name's) order.
        cold = [key for key, _ in keys[1::2]]
        for key in cold:
            _engine(broker).migrate("steady", key, _wide(broker))
        settled = {key: broker.head("steady", key).chunk_map for key in cold}
        assert all(
            [p for _, p in chunk_map] != sorted(p for _, p in chunk_map)
            for chunk_map in settled.values()
        ), "no row is out of name order: the workload proves nothing"
        # Every appraisal the optimizer makes is of a move to another set
        # or another m; a row already on the best set is left before that.
        appraised = []
        real = broker.optimizer._appraise_migration  # noqa: SLF001

        def appraising(meta, new_placement, *args):
            appraised.append((meta.placement, new_placement))
            return real(meta, new_placement, *args)

        broker.optimizer._appraise_migration = appraising  # noqa: SLF001
        recomputed = 0
        for _round in range(6):
            for key, data in keys[::2]:  # the others stay cold, on the set they were put on
                for _ in range(rng.randrange(3)):
                    assert broker.get("steady", key) == data
            # A price sheet re-issued unchanged still bumps the pool epoch,
            # so every object is recomputed every round.
            name = broker.registry.names()[0]
            broker.registry.update_pricing(name, broker.registry.get(name).spec.pricing)
            recomputed += sum(report.recomputations for report in broker.tick())
        assert recomputed >= len(keys)
        assert {key: broker.head("steady", key).chunk_map for key in cold} == settled
        for old, new in appraised:
            assert (set(old.providers), old.m) != (set(new.providers), new.m)
        for event in broker.events.query(type="migration.planned", limit=1000):
            same = (
                set(event["old_providers"]) == set(event["new_providers"])
                and event["old_m"] == event["new_m"]
            )
            assert not same, event
        broker.close()

    def test_identity_is_the_sorted_set_whatever_the_map(self, broker):
        meta = broker.put("c", "k", _payload(900))
        shuffled = dataclasses.replace(meta, chunk_map=tuple(reversed(meta.chunk_map)))
        assert shuffled.placement == meta.placement
        assert list(meta.placement.providers) == sorted(p for _, p in meta.chunk_map)
        # Asking for the set a row already has moves nothing.
        receipt = _engine(broker).migrate("c", "k", meta.placement)
        assert receipt.chunks_written == 0 and broker.head("c", "k") == meta


class TestLegacyRows:
    def legacy(self, data, *, wide: bool):
        """A row as the parent commit wrote it: chunk ``i`` on the
        ``i``-th provider by name.  ``wide`` moves it onto all five
        providers at ``m:4``; otherwise it stays where the planner put it."""
        broker = Scalia(seed=3, stripe_size_bytes=STRIPE, initial_decision_period=1)
        _alphabetical(broker)
        broker.put("old", "k", data)
        if wide:
            _engine(broker).migrate("old", "k", _wide(broker))
        meta = broker.head("old", "k")
        names = sorted(p for _, p in meta.chunk_map)
        assert meta.chunk_map == tuple(enumerate(names))  # the parent's row, to the letter
        for engine in broker.cluster.all_engines():
            del engine._layout  # noqa: SLF001 - back to the class's rule
        assert list(_engine(broker)._layout(meta.placement, meta.size)) != names  # noqa: SLF001
        return broker, meta

    def test_read_exact_through_the_parity_path(self):
        data = _payload(3 * STRIPE + 11, 8)
        broker, meta = self.legacy(data, wide=True)
        # RS holds data chunk 2: the cheapest four include the parity chunk.
        assert sorted(_served_first(broker, meta)) == [0, 1, 3, 4]
        before = _recovered(broker)
        assert broker.get("old", "k") == data
        assert _recovered(broker) - before == meta.stripe_count
        assert broker.get("old", "k", byte_range=(STRIPE - 5, STRIPE + 5)) == data[STRIPE - 5 : STRIPE + 6]
        broker.close()

    def test_left_where_it_is(self):
        """Nothing is re-laid-out for layout's sake: round after round the
        optimizer plans no move of a row whose only oddity is its chunk order."""
        data = _payload(3 * STRIPE + 11, 8)
        broker, meta = self.legacy(data, wide=False)
        for _round in range(5):
            assert broker.get("old", "k") == data
            reports = broker.tick()
            assert sum(report.migrations for report in reports) == 0
        assert not broker.events.query(type="migration.planned", limit=10)
        assert broker.head("old", "k").chunk_map == meta.chunk_map
        broker.close()

    def test_a_real_migration_to_another_code_takes_the_new_layout(self):
        data = _payload(2 * STRIPE + 1, 9)
        broker, meta = self.legacy(data, wide=True)
        _engine(broker).migrate("old", "k", _wide(broker, m=3))
        moved = broker.head("old", "k")
        assert (moved.m, moved.n) == (3, 5)
        assert _served_first(broker, moved) == [0, 1, 2]
        assert broker.get("old", "k") == data
        broker.close()

    def test_same_bill_as_a_row_in_the_new_layout(self):
        """``k`` PUTs and ``k`` whole GETs of one payload: per-provider
        ops, bytes in and bytes out do not depend on the chunk order."""
        data = _payload(3 * STRIPE + 100, 10)
        bills = []
        for legacy in (True, False):
            broker = Scalia(seed=4, stripe_size_bytes=STRIPE, enable_optimizer=False)
            if legacy:
                _alphabetical(broker)
            for _ in range(3):
                broker.put("bill", "k", data)
                _engine(broker).migrate("bill", "k", _wide(broker))
            meta = broker.head("bill", "k")
            assert (sorted(_served_first(broker, meta)) == [0, 1, 2, 3]) == (not legacy)
            for _ in range(3):
                assert broker.get("bill", "k") == data
            bills.append(_meters(broker))
            broker.close()
        assert bills[0] == bills[1]


class TestStaleLayout:
    def test_a_price_change_after_the_write_is_stale_not_wrong(self, broker):
        """The layout is a write-time fact; the serving order is a read-
        time one.  When prices move, reads follow the new ranking and the
        row stays put: exact bytes, billed where ``_serving_order`` says."""
        data = _payload(3 * STRIPE + 7, 11)
        broker.put("c", "k", data)
        _engine(broker).migrate("c", "k", _wide(broker))
        meta = broker.head("c", "k")
        holder_of_0 = dict(meta.chunk_map)[0]
        pricing = broker.registry.get(holder_of_0).spec.pricing
        broker.registry.update_pricing(
            holder_of_0, dataclasses.replace(pricing, bw_out_gb=pricing.bw_out_gb * 10)
        )
        order = _engine(broker)._serving_order(meta)  # noqa: SLF001
        assert order[-1] == (0, holder_of_0)
        served = {name for _, name in order[: meta.m]}

        before, rows = _meters(broker), _recovered(broker)
        assert broker.get("c", "k") == data
        after = _meters(broker)
        gets = {name: after[name][0] - before[name][0] for name in after}
        assert gets == {name: (meta.stripe_count if name in served else 0) for name in after}
        assert _recovered(broker) - rows == meta.stripe_count
        # The next write follows the new prices.
        rewritten = broker.put("c", "k2", data)
        if holder_of_0 in dict(rewritten.chunk_map).values():
            assert rewritten.chunk_map[-1][1] == holder_of_0


class TestRecoveredRowsCounter:
    def put_wide(self, broker, data):
        broker.put("c", "k", data)
        _engine(broker).migrate("c", "k", _wide(broker))
        meta = broker.head("c", "k")
        assert (meta.m, meta.n) == (4, 5) and meta.stripe_count > 1
        return meta

    def record(self, monkeypatch):
        calls = []
        real = rs_module.gf_mul_rows

        def recording(coefficients, sources):
            calls.append((coefficients.shape, len(sources)))
            return real(coefficients, sources)

        monkeypatch.setattr(rs_module, "gf_mul_rows", recording)
        return calls

    def test_a_healthy_whole_get_recovers_nothing(self, broker, monkeypatch):
        data = _payload(4 * STRIPE + 3, 12)
        self.put_wide(broker, data)
        calls, before = self.record(monkeypatch), _recovered(broker)
        assert broker.get("c", "k") == data
        assert _recovered(broker) == before and calls == []
        assert f"{ROWS} " in broker.metrics.render_text()

    def test_one_data_provider_down_is_one_row_per_stripe(self, broker, monkeypatch):
        data = _payload(4 * STRIPE + 3, 13)
        meta = self.put_wide(broker, data)
        broker.registry.fail(dict(meta.chunk_map)[0])
        calls, before = self.record(monkeypatch), _recovered(broker)
        assert broker.get("c", "k") == data
        assert _recovered(broker) - before == meta.stripe_count
        # One output row, m coefficients over m sources, per stripe.
        assert calls == [((1, 4), 4)] * meta.stripe_count

    def test_nothing_is_counted_with_metrics_off(self):
        broker = Scalia(stripe_size_bytes=STRIPE, enable_metrics=False, enable_events=False)
        data = _payload(2 * STRIPE + 3, 14)
        meta = self.put_wide(broker, data)
        broker.registry.fail(dict(meta.chunk_map)[0])
        assert broker.get("c", "k") == data
        assert ROWS not in broker.metrics.render_text()
        broker.close()
