"""Billing-parity tests for batched reads (get_many)."""

import pytest

from tests.cluster.test_engine import Harness


def provider_totals(harness):
    return {
        p.name: (
            p.meter.total().ops_get,
            p.meter.total().bytes_out,
        )
        for p in harness.registry.providers()
    }


class TestGetManyParity:
    def test_batched_equals_looped_without_cache(self):
        looped, batched = Harness(), Harness()
        data = b"parity check payload" * 100
        looped.engine.put("c", "obj", data)
        batched.engine.put("c", "obj", data)
        for _ in range(25):
            looped.engine.get("c", "obj")
        batched.engine.get_many("c", "obj", 25)
        assert provider_totals(looped) == provider_totals(batched)

    def test_batched_equals_looped_with_cache(self):
        looped, batched = Harness(cache_bytes=10**6), Harness(cache_bytes=10**6)
        data = b"cached parity payload" * 80
        looped.engine.put("c", "obj", data)
        batched.engine.put("c", "obj", data)
        for _ in range(25):
            looped.engine.get("c", "obj")
        batched.engine.get_many("c", "obj", 25)
        assert provider_totals(looped) == provider_totals(batched)

    def test_stats_records_equivalent(self):
        looped, batched = Harness(), Harness()
        looped.engine.put("c", "obj", b"stat parity" * 30)
        batched.engine.put("c", "obj", b"stat parity" * 30)
        for _ in range(7):
            looped.engine.get("c", "obj", period=2)
        batched.engine.get_many("c", "obj", 7, period=2)
        key = next(iter(looped.stats.accessed_between(2, 2)))
        a = looped.stats.history(key, 2, 1)[0]
        b = batched.stats.history(key, 2, 1)[0]
        assert (a.ops_read, a.bytes_out) == (b.ops_read, b.bytes_out) == (7, 7 * 330)

    def test_count_validation(self):
        h = Harness()
        h.engine.put("c", "obj", b"x")
        with pytest.raises(ValueError):
            h.engine.get_many("c", "obj", 0)

    def test_single_read_same_as_get(self):
        h = Harness()
        data = b"single" * 10
        h.engine.put("c", "obj", data)
        assert h.engine.get_many("c", "obj", 1) == data


class TestWindowBurstParity:
    """A burst of ranged reads on a multi-leaf chunk bills ``k`` x (one
    get + the window's leaves and paths): not one window, not ``k`` whole
    chunks.  m:2, 1 MiB object: chunks of 512 KiB = 8 leaves, paths of 3."""

    LEAF = 64 * 1024
    SIZE = 1024 * 1024
    WINDOW = (3 * 64 * 1024 + 5, 3 * 64 * 1024 + 104)  # inside leaf 3 of row 0

    @pytest.mark.parametrize("payload", [b"\x5a" * SIZE, SIZE], ids=["real", "synthetic"])
    def test_get_many_with_a_range_equals_looped_gets(self, payload):
        looped, batched = Harness(), Harness()
        for harness in (looped, batched):
            harness.engine.put("c", "obj", payload)
        before = provider_totals(batched)
        for _ in range(7):
            one = looped.engine.get("c", "obj", byte_range=self.WINDOW)
        many = batched.engine.get_many("c", "obj", 7, byte_range=self.WINDOW)
        assert many == one == (payload[5:105] if isinstance(payload, bytes) else 100)
        assert provider_totals(looped) == provider_totals(batched)
        moved = {
            name: (gets - before[name][0], out - before[name][1])
            for name, (gets, out) in provider_totals(batched).items()
            if (gets, out) != before[name]
        }
        assert list(moved.values()) == [(7, 7 * (self.LEAF + 3 * 32))]

    @pytest.mark.parametrize("payload", [b"\xa5" * SIZE, SIZE], ids=["real", "synthetic"])
    def test_read_stripe_times_k(self, payload):
        h = Harness()
        meta = h.engine.put("c", "obj", payload)
        before = provider_totals(h)
        lo, hi = self.WINDOW[0], self.WINDOW[1] + 1
        got = h.engine.read_stripe(meta, 0, lo, hi, times=5)
        assert got == (payload[lo:hi] if isinstance(payload, bytes) else hi - lo)
        after = provider_totals(h)
        moved = [
            (after[name][0] - before[name][0], after[name][1] - before[name][1])
            for name in after
            if after[name] != before[name]
        ]
        assert moved == [(5, 5 * (self.LEAF + 3 * 32))]
