"""The one multiply shard bytes go through, against its definition.

``gf_mul_rows`` (coefficient rows times byte rows) is what ``encode``,
``decode_blocks``, ``decode_row`` and ``reconstruct_shard`` call;
``gf_matmul`` over ``MUL_TABLE`` stays as the matrix-by-matrix
definition and is the reference here.  The codec properties below hold
for every ``m``-subset, not a sample: the kernel decides its arithmetic
from the coefficients (0 skipped, 1 plain, else a table pass), so a
subset whose decode matrix has a 0 or a 1 in it takes another path than
one that has none.
"""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import rs as rs_module
from repro.erasure.galois import MUL_TABLE, gf_matmul, gf_mul_rows
from repro.erasure.rs import INVERSE_MEMO_ENTRIES, ReedSolomon, shard_length

LEAF = 64 * 1024
CODES = [(1, 2), (2, 3), (3, 5), (4, 5), (4, 6), (8, 12)]
CONSTRUCTIONS = ["vandermonde", "cauchy"]
WRAPPERS = ["bytes", "bytearray", "memoryview", "numpy"]


def _rows(raw: bytes, width: int, count: int, wrapper: str):
    """``count`` byte rows of ``width`` cut out of ``raw``, as the type
    a caller may hand the kernel."""
    pieces = [raw[k * width : (k + 1) * width] for k in range(count)]
    if wrapper == "bytes":
        return pieces
    if wrapper == "bytearray":
        return [bytearray(piece) for piece in pieces]
    if wrapper == "memoryview":
        # Slices of one buffer at odd offsets, as a ranged read cuts them.
        backing = memoryview(b"\xee" + raw + b"\xee")
        return [backing[1 + k * width : 1 + (k + 1) * width] for k in range(count)]
    matrix = np.frombuffer(raw[: count * width], dtype=np.uint8).reshape(count, width)
    return [matrix[k] for k in range(count)]


def _reference(coefficients, pieces):
    stacked = np.array([list(bytes(piece)) for piece in pieces], dtype=np.uint8)
    stacked = stacked.reshape(len(pieces), len(pieces[0]) if pieces else 0)
    return gf_matmul(coefficients, stacked)


class TestKernelAgainstTheTable:
    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        width=st.sampled_from([0, 1, 2, 7, 255, 1001]),
        wrapper=st.sampled_from(WRAPPERS),
        draw=st.data(),
    )
    def test_random_coefficients_with_zeros_and_ones(self, shape, width, wrapper, draw):
        r, k = shape
        # Half the entries are 0 or 1: both are paths of their own.
        entry = st.one_of(st.sampled_from([0, 1]), st.integers(0, 255))
        coefficients = np.array(
            draw.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r)),
            dtype=np.uint8,
        )
        raw = draw.draw(st.binary(min_size=k * width, max_size=k * width))
        pieces = _rows(raw, width, k, wrapper)
        before = [bytes(piece) for piece in pieces]
        out = gf_mul_rows(coefficients, pieces)
        expected = _reference(coefficients, before)
        assert [row.tobytes() for row in out] == [row.tobytes() for row in expected]
        # Sources are read, never written or handed back.
        assert [bytes(piece) for piece in pieces] == before
        for row in out:
            row[...] = 0xFF
        assert [bytes(piece) for piece in pieces] == before

    @pytest.mark.parametrize("wrapper", WRAPPERS)
    def test_a_row_wider_than_one_piece(self, wrapper):
        width = LEAF + 1  # the kernel walks a row 64 KiB at a time
        coefficients = np.array([[0, 1, 2], [1, 1, 0], [0, 0, 0], [29, 0, 0]], dtype=np.uint8)
        raw = np.random.default_rng(3).integers(0, 256, 3 * width, dtype=np.uint8).tobytes()
        pieces = _rows(raw, width, 3, wrapper)
        out = gf_mul_rows(coefficients, pieces)
        a, b, c = (np.frombuffer(raw, dtype=np.uint8)[k * width : (k + 1) * width] for k in range(3))
        assert np.array_equal(out[0], b ^ MUL_TABLE[2][c])
        assert np.array_equal(out[1], a ^ b)
        assert not out[2].any() and len(out[2]) == width
        assert np.array_equal(out[3], MUL_TABLE[29][a])

    def test_rejects_what_is_not_rows_times_rows(self):
        with pytest.raises(ValueError, match="one byte row per coefficient column"):
            gf_mul_rows(np.ones((1, 2), dtype=np.uint8), [b"ab"])
        with pytest.raises(ValueError, match="equally long"):
            gf_mul_rows(np.ones((1, 2), dtype=np.uint8), [b"ab", b"abc"])
        assert gf_mul_rows(np.zeros((0, 1), dtype=np.uint8), [b"ab"]) == []


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("code", CODES, ids=lambda c: f"{c[0]}of{c[1]}")
class TestEverySubset:
    def _coded(self, code, construction, size=None):
        m, n = code
        rs = ReedSolomon(m, n, construction)
        size = 3 * m + 1 if size is None else size  # a short last row
        data = bytes((i * 37 + 11) % 256 for i in range(size))
        return rs, data, [bytes(s) for s in rs.encode(data)]

    def test_encode_is_the_generator_times_the_data(self, code, construction):
        """Shard bytes are those of the table definition (and so of every
        earlier commit) for each index; only who holds which index moved."""
        rs, data, shards = self._coded(code, construction)
        slen = shard_length(len(data), rs.m)
        padded = np.zeros(rs.m * slen, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        expected = gf_matmul(rs.generator, padded.reshape(rs.m, slen))
        assert shards == [row.tobytes() for row in expected]

    def test_every_m_subset_decodes_to_the_payload(self, code, construction):
        rs, data, shards = self._coded(code, construction)
        for subset in itertools.combinations(range(rs.n), rs.m):
            assert rs.decode({i: shards[i] for i in subset}, len(data)) == data

    def test_reconstruct_shard_is_the_encoded_shard(self, code, construction):
        rs, data, shards = self._coded(code, construction)
        for subset in itertools.combinations(range(rs.n), rs.m):
            available = {i: shards[i] for i in subset}
            for target in range(rs.n):
                assert rs.reconstruct_shard(available, target, len(data)) == shards[target]

    def test_decode_row_of_a_window_is_those_columns_of_decode(self, code, construction):
        rs, data, shards = self._coded(code, construction, size=40 * code[0])
        slen = shard_length(len(data), rs.m)
        lo, hi = 5, slen - 3
        for subset in itertools.combinations(range(rs.n), rs.m):
            whole = rs.decode({i: shards[i] for i in subset}, len(data))
            windows = {i: memoryview(shards[i])[lo:hi] for i in subset}
            for row in range(rs.m):
                assert rs.decode_row(windows, row) == whole[row * slen + lo : row * slen + hi]


class TestWhereTheArithmeticRuns:
    """The saving is structural: which calls reach the kernel, and with
    how many coefficients, not how fast it is."""

    def _record(self, monkeypatch):
        calls = []
        real = rs_module.gf_mul_rows

        def recording(coefficients, sources):
            calls.append((coefficients.shape, len(sources)))
            return real(coefficients, sources)

        monkeypatch.setattr(rs_module, "gf_mul_rows", recording)
        return calls

    def test_an_all_data_decode_never_multiplies(self, monkeypatch):
        rs = ReedSolomon(4, 5)
        data = bytes(range(200))
        shards = [bytes(s) for s in rs.encode(data)]
        calls = self._record(monkeypatch)
        assert rs.decode(dict(enumerate(shards[:4])), len(data)) == data
        assert rs.recovered_rows(range(4), len(data)) == []
        assert calls == []

    def test_one_lost_data_shard_is_one_row_of_m_passes(self, monkeypatch):
        rs = ReedSolomon(4, 5)
        data = bytes(range(200))
        shards = [bytes(s) for s in rs.encode(data)]
        calls = self._record(monkeypatch)
        assert rs.decode({i: shards[i] for i in (0, 1, 3, 4)}, len(data)) == data
        assert rs.recovered_rows((0, 1, 3, 4), len(data)) == [2]
        assert calls == [((1, 4), 4)]

    def test_a_replica_is_present_whichever_shard_it_is(self, monkeypatch):
        # Every shard of a Vandermonde m:1 code is the data verbatim.
        rs = ReedSolomon(1, 3)
        shards = [bytes(s) for s in rs.encode(b"replicated")]
        calls = self._record(monkeypatch)
        for index in range(3):
            assert rs.decode({index: shards[index]}, 10) == b"replicated"
            assert rs.recovered_rows([index], 10) == []
        assert calls == []
        # A Cauchy m:1 parity shard is a multiple of it, and is decoded.
        cauchy = ReedSolomon(1, 3, "cauchy")
        shards = [bytes(s) for s in cauchy.encode(b"replicated")]
        del calls[:]
        assert cauchy.decode({2: shards[2]}, 10) == b"replicated"
        assert cauchy.recovered_rows([2], 10) == [0]
        assert calls == [((1, 1), 1)]

    def test_rows_past_the_payload_are_not_recovered(self, monkeypatch):
        rs = ReedSolomon(4, 6)
        shards = [bytes(s) for s in rs.encode(b"a")]  # one live row of four
        calls = self._record(monkeypatch)
        assert rs.decode({i: shards[i] for i in (0, 3, 4, 5)}, 1) == b"a"
        assert calls == []
        assert rs.decode({i: shards[i] for i in (2, 3, 4, 5)}, 1) == b"a"
        assert calls == [((1, 4), 4)]

    def test_reconstruct_shard_is_one_row_not_a_decode_and_an_encode(self, monkeypatch):
        rs = ReedSolomon(4, 6)
        data = bytes(range(256)) * 3
        shards = [bytes(s) for s in rs.encode(data)]
        calls = self._record(monkeypatch)
        available = {i: shards[i] for i in (1, 2, 4, 5)}
        for target in range(6):
            assert rs.reconstruct_shard(available, target, len(data)) == shards[target]
        assert calls == [((1, 4), 4)] * 6


class TestDecodeMatrixMemo:
    def setup_method(self):
        rs_module._decode_matrix.cache_clear()

    def test_a_subset_is_inverted_once(self, monkeypatch):
        inversions = []
        real = rs_module.gf_inverse
        monkeypatch.setattr(
            rs_module, "gf_inverse", lambda m: inversions.append(1) or real(m)
        )
        rs = ReedSolomon(4, 5)
        data = bytes(range(100))
        shards = [bytes(s) for s in rs.encode(data)]
        for _ in range(5):
            assert rs.decode({i: shards[i] for i in (1, 2, 3, 4)}, len(data)) == data
            assert rs.decode_row({i: shards[i] for i in (1, 2, 3, 4)}, 0) == shards[0]
        assert len(inversions) == 1
        # An equal code built elsewhere (another CodeCache) shares the entry.
        ReedSolomon(4, 5).decode({i: shards[i] for i in (1, 2, 3, 4)}, len(data))
        assert len(inversions) == 1
        # The shared matrix cannot be scribbled on.
        with pytest.raises(ValueError):
            rs_module._decode_matrix(rs, (1, 2, 3, 4))[0, 0] = 7

    def test_the_memo_has_the_bound_it_states(self):
        assert rs_module._decode_matrix.cache_info().maxsize == INVERSE_MEMO_ENTRIES
        rs = ReedSolomon(8, 12)  # 495 subsets, more than the memo keeps
        data = bytes(range(64))
        shards = [bytes(s) for s in rs.encode(data)]
        for subset in itertools.combinations(range(12), 8):
            assert rs.decode({i: shards[i] for i in subset}, len(data)) == data
        info = rs_module._decode_matrix.cache_info()
        assert info.currsize == INVERSE_MEMO_ENTRIES < info.misses

    def test_two_threads_decoding_different_subsets(self):
        rs = ReedSolomon(8, 12)
        data = bytes((i * 13) % 256 for i in range(8 * 50))
        shards = [bytes(s) for s in rs.encode(data)]
        subsets = list(itertools.combinations(range(12), 8))
        assert len(subsets) > INVERSE_MEMO_ENTRIES
        wrong, errors = [], []

        def decode(mine):
            try:
                for _ in range(2):  # more subsets than entries: hits, misses, evictions
                    for subset in mine:
                        if rs.decode({i: shards[i] for i in subset}, len(data)) != data:
                            wrong.append(subset)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=decode, args=(subsets[k::3],)) for k in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (wrong, errors) == ([], [])
        assert rs_module._decode_matrix.cache_info().currsize <= INVERSE_MEMO_ENTRIES
