"""Round-trip and erasure-tolerance tests for the Reed-Solomon codec."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.rs import CodeCache, ReedSolomon, shard_length


class TestShardLength:
    @pytest.mark.parametrize(
        "data_len,m,expected",
        [(0, 3, 1), (1, 1, 1), (10, 3, 4), (9, 3, 3), (1_000_000, 4, 250_000)],
    )
    def test_values(self, data_len, m, expected):
        assert shard_length(data_len, m) == expected


class TestConstruction:
    def test_invalid_m_n(self):
        with pytest.raises(ValueError):
            ReedSolomon(0, 2)
        with pytest.raises(ValueError):
            ReedSolomon(3, 2)

    def test_rate_and_overhead(self):
        code = ReedSolomon(3, 4)
        assert code.rate == pytest.approx(0.75)
        assert code.storage_overhead == pytest.approx(4 / 3)

    def test_generator_read_only(self):
        code = ReedSolomon(2, 4)
        with pytest.raises(ValueError):
            code.generator[0, 0] = 9


class TestRoundTrip:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 9)])
    def test_all_data_shards(self, m, n):
        code = ReedSolomon(m, n)
        data = bytes(range(256)) * 3 + b"tail"
        shards = code.encode(data)
        assert len(shards) == n
        assert code.decode({i: shards[i] for i in range(m)}, len(data)) == data

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 5), (4, 6)])
    def test_every_m_subset_decodes(self, m, n):
        code = ReedSolomon(m, n)
        data = b"scalia reproduces the paper" * 7
        shards = code.encode(data)
        for subset in itertools.combinations(range(n), m):
            recovered = code.decode({i: shards[i] for i in subset}, len(data))
            assert recovered == data

    def test_extra_shards_ignored(self):
        code = ReedSolomon(2, 4)
        data = b"0123456789"
        shards = code.encode(data)
        assert code.decode(dict(enumerate(shards)), len(data)) == data

    def test_empty_object(self):
        code = ReedSolomon(3, 5)
        shards = code.encode(b"")
        assert all(len(s) == 1 for s in shards)
        assert code.decode({0: shards[0], 2: shards[2], 4: shards[4]}, 0) == b""

    def test_single_byte(self):
        code = ReedSolomon(2, 3)
        data = b"x"
        shards = code.encode(data)
        assert code.decode({1: shards[1], 2: shards[2]}, 1) == data

    def test_systematic_prefix_is_data(self):
        code = ReedSolomon(2, 4)
        data = b"abcdef"
        shards = code.encode(data)
        assert shards[0] == b"abc"
        assert shards[1] == b"def"

    def test_replication_m1(self):
        # m=1 means every shard is a full copy (RAID-1, Section II-A1).
        code = ReedSolomon(1, 3)
        data = b"mirrored"
        shards = code.encode(data)
        for i in range(3):
            assert code.decode({i: shards[i]}, len(data)) == data

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=2048),
        m=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    def test_random_erasure_property(self, data, m, extra, seed):
        import random

        n = m + extra
        code = _cached(m, n)
        shards = code.encode(data)
        rng = random.Random(seed)
        keep = rng.sample(range(n), m)
        assert code.decode({i: shards[i] for i in keep}, len(data)) == data


_CACHE = CodeCache()


def _cached(m: int, n: int) -> ReedSolomon:
    return _CACHE.get(m, n)


class TestDecodeErrors:
    def test_too_few_shards(self):
        code = ReedSolomon(3, 5)
        shards = code.encode(b"hello world")
        with pytest.raises(ValueError, match="at least m=3"):
            code.decode({0: shards[0], 1: shards[1]}, 11)

    def test_bad_index(self):
        code = ReedSolomon(2, 3)
        shards = code.encode(b"hello")
        with pytest.raises(ValueError, match="out of range"):
            code.decode({0: shards[0], 7: shards[1]}, 5)

    def test_wrong_shard_length(self):
        code = ReedSolomon(2, 3)
        shards = code.encode(b"hello!")
        with pytest.raises(ValueError, match="length"):
            code.decode({0: shards[0], 1: shards[1][:-1]}, 6)

    def test_negative_data_len(self):
        code = ReedSolomon(2, 3)
        with pytest.raises(ValueError):
            code.decode({0: b"a", 1: b"b"}, -1)


class TestReconstructShard:
    @pytest.mark.parametrize("target", range(5))
    def test_reconstruct_each_shard(self, target):
        code = ReedSolomon(3, 5)
        data = b"active repair of a faulty provider chunk" * 3
        shards = code.encode(data)
        available = {i: shards[i] for i in range(5) if i != target}
        rebuilt = code.reconstruct_shard(available, target, len(data))
        assert rebuilt == shards[target]

    def test_target_out_of_range(self):
        code = ReedSolomon(2, 3)
        shards = code.encode(b"xyz!")
        with pytest.raises(ValueError):
            code.reconstruct_shard(dict(enumerate(shards)), 5, 4)


class TestDecodeRow:
    """One data row from equal-width windows of any m shards."""

    @settings(max_examples=60, deadline=None)
    @given(
        code=st.sampled_from([(1, 1), (1, 3), (2, 3), (3, 5), (4, 5), (4, 6)]),
        construction=st.sampled_from(["vandermonde", "cauchy"]),
        data=st.binary(min_size=1, max_size=400),
        picks=st.data(),
    )
    def test_any_m_windows_recover_any_row(self, code, construction, data, picks):
        m, n = code
        rs = ReedSolomon(m, n, construction)
        shards = [bytes(s) for s in rs.encode(data)]
        slen = len(shards[0])
        lo = picks.draw(st.integers(0, slen - 1), label="lo")
        hi = picks.draw(st.integers(lo + 1, slen), label="hi")
        chosen = picks.draw(
            st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True),
            label="shards",
        )
        row = picks.draw(st.integers(0, m - 1), label="row")
        windows = {i: memoryview(shards[i])[lo:hi] for i in chosen}
        assert rs.decode_row(windows, row) == shards[row][lo:hi]

    def test_a_holder_is_sliced_not_decoded(self):
        rs = ReedSolomon(4, 5)
        shards = [bytes(s) for s in rs.encode(bytes(range(200)))]
        # One shard is enough when it is the row itself.
        assert rs.decode_row({2: shards[2][10:20]}, 2) == shards[2][10:20]
        with pytest.raises(ValueError, match="at least m=4"):
            rs.decode_row({1: shards[1][10:20]}, 2)

    def test_holds_row(self):
        rs = ReedSolomon(4, 5)
        assert [i for i in range(5) if rs.holds_row(i, 2)] == [2]
        # Vandermonde m:1 is replication: every shard is the one row.
        assert all(ReedSolomon(1, 3).holds_row(i, 0) for i in range(3))
        assert [ReedSolomon(1, 3, "cauchy").holds_row(i, 0) for i in range(3)] == [
            True, True, False,
        ]

    def test_rejects_bad_input(self):
        rs = ReedSolomon(2, 3)
        with pytest.raises(ValueError, match="row"):
            rs.decode_row({0: b"ab", 2: b"cd"}, 2)
        with pytest.raises(ValueError, match="equally wide"):
            rs.decode_row({0: b"ab", 2: b"cde"}, 1)


class TestCodeCache:
    def test_reuses_instances(self):
        cache = CodeCache()
        a = cache.get(2, 4)
        b = cache.get(2, 4)
        assert a is b
        assert len(cache) == 1

    def test_preload(self):
        cache = CodeCache()
        cache.preload([(1, 2), (2, 3), (3, 4)])
        assert len(cache) == 3

    def test_cauchy_construction_roundtrip(self):
        cache = CodeCache(construction="cauchy")
        code = cache.get(3, 6)
        data = b"cauchy generator variant" * 5
        shards = code.encode(data)
        assert code.decode({1: shards[1], 3: shards[3], 5: shards[5]}, len(data)) == data


class TestZeroCopyEncode:
    """Aligned encode must slice the input, not copy it."""

    def test_aligned_data_shards_are_views_of_input(self):
        code = ReedSolomon(3, 5)
        data = bytes(range(256)) * 3  # 768 = 3 * 256: aligned
        shards = code.encode(data)
        slen = len(data) // 3
        for i in range(3):
            assert shards[i].obj is data
            assert bytes(shards[i]) == data[i * slen : (i + 1) * slen]

    def test_aligned_memoryview_input_stays_zero_copy(self):
        code = ReedSolomon(2, 4)
        backing = bytearray(8192)
        backing[:] = bytes(range(256)) * 32
        view = memoryview(backing)[0:4096]
        shards = code.encode(view)
        # Slices of a view share the view's underlying object.
        assert shards[0].obj is backing
        assert shards[1].obj is backing
        assert bytes(shards[0]) + bytes(shards[1]) == bytes(view)

    def test_unaligned_input_still_round_trips(self):
        code = ReedSolomon(3, 5)
        data = b"x" * 1001  # forces the padded path
        shards = code.encode(data)
        assert shards[0].obj is not data
        assert code.decode(dict(enumerate(shards[:3])), len(data)) == data

    def test_aligned_and_padded_paths_agree(self):
        code = ReedSolomon(4, 6)
        data = bytes(range(256)) * 4  # aligned for m=4
        aligned = code.encode(data)
        padded = code.encode(data + b"")  # same bytes, same result
        assert [bytes(s) for s in aligned] == [bytes(s) for s in padded]
        # Parity survives losing any two data shards.
        assert (
            code.decode({0: aligned[0], 1: aligned[1], 4: aligned[4], 5: aligned[5]}, len(data))
            == data
        )
