"""The pure pieces of the ranged-read path, each alone: the planner, the
proof gate, the slice-or-decode.  No engine, no provider."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.readpath import (
    ProvenRun,
    RowWindow,
    attach_leaves,
    covers_every_leaf,
    cut_windows,
    detach_leaves,
    open_run,
    rows_for_window,
)
from repro.erasure.rs import ReedSolomon
from repro.storage.backend import ChunkCorruptionError
from repro.storage.merkle import LEAF_SIZE as LEAF
from repro.storage.merkle import (
    SYNTHETIC_ROOT,
    build_proof,
    leaf_length,
    merkle_root,
    synthetic_proof,
)

KiB = 1024


class TestPlanner:
    def test_inside_one_row(self):
        # 8 MiB stripe at m=4: rows of 2 MiB, 32 leaves each.
        length, row = 8 * 1024 * KiB, 2 * 1024 * KiB
        lo = row + 3 * LEAF + 100
        assert rows_for_window(length, 4, lo, lo + LEAF) == [
            RowWindow(row=1, first_leaf=3, last_leaf=4, start=100, stop=100 + LEAF)
        ]

    def test_leaf_aligned_window_is_one_leaf(self):
        assert rows_for_window(8 * 1024 * KiB, 4, 5 * LEAF, 6 * LEAF) == [
            RowWindow(0, 5, 5, 0, LEAF)
        ]

    def test_straddling_a_row_touches_two(self):
        length, row = 8 * 1024 * KiB, 2 * 1024 * KiB
        assert rows_for_window(length, 4, row - 10, row + 10) == [
            RowWindow(0, 31, 31, LEAF - 10, LEAF),
            RowWindow(1, 0, 0, 0, 10),
        ]

    def test_padded_last_row_and_short_last_leaf(self):
        # 1_000_001 B at m=4: rows of 250_001 B, the last one padded by 3;
        # 250_001 = 3 leaves + 53_393 B.
        length = 1_000_001
        clen = 250_001
        windows = rows_for_window(length, 4, length - 5, length)
        assert windows == [RowWindow(3, 3, 3, clen - 3 - 5 - 3 * LEAF, clen - 3 - 3 * LEAF)]
        assert windows[0].stop <= leaf_length(clen, 3)

    def test_only_all_of_every_data_chunk_covers_every_leaf(self):
        length, clen = 1_000_001, 250_001
        whole = rows_for_window(length, 4, 0, length)
        assert [w.row for w in whole] == [0, 1, 2, 3]
        assert covers_every_leaf(whole, 4, clen)
        # A byte short at either end still needs every leaf ...
        assert covers_every_leaf(rows_for_window(length, 4, 1, length - 1), 4, clen)
        # ... a leaf short, or a row short, does not.
        assert not covers_every_leaf(rows_for_window(length, 4, LEAF, length), 4, clen)
        assert not covers_every_leaf(rows_for_window(length, 4, clen, length), 4, clen)
        assert not covers_every_leaf(rows_for_window(length, 4, clen, 2 * clen), 4, clen)

    def test_empty_and_invalid_windows(self):
        assert rows_for_window(100, 2, 7, 7) == []
        for lo, hi in ((-1, 5), (5, 4), (0, 101)):
            with pytest.raises(ValueError):
                rows_for_window(100, 2, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(1, 5 * LEAF * 3),
        m=st.integers(1, 5),
        data=st.data(),
    )
    def test_windows_tile_the_range(self, length, m, data):
        lo = data.draw(st.integers(0, length - 1))
        hi = data.draw(st.integers(lo + 1, length))
        clen = max(1, -(-length // m))
        covered = []
        for w in rows_for_window(length, m, lo, hi):
            assert 0 <= w.first_leaf <= w.last_leaf <= (clen - 1) // LEAF
            assert 0 <= w.start < w.stop <= (w.last_leaf - w.first_leaf + 1) * LEAF
            # No leaf is fetched that holds none of the wanted bytes.
            assert w.start < LEAF and w.stop > (w.last_leaf - w.first_leaf) * LEAF
            begin = w.row * clen + w.first_leaf * LEAF
            covered.append((begin + w.start, begin + w.stop))
        assert covered[0][0] == lo and covered[-1][1] == hi
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))


class TestProofGateAndCut:
    """``open_run`` and ``cut_windows``: what engine and worker share."""

    CHUNK = 5 * LEAF + 300  # six leaves, the last one short

    def encoded(self, m=2, n=3):
        code = ReedSolomon(m, n)
        stripe = random.Random(2).randbytes(m * self.CHUNK)
        return code, stripe, [bytes(shard) for shard in code.encode(stripe)]

    def test_open_run_returns_the_asked_leaves_or_refuses(self):
        _code, _stripe, shards = self.encoded()
        window = RowWindow(row=1, first_leaf=4, last_leaf=5, start=10, stop=LEAF + 200)
        root = merkle_root(shards[1])
        proof = build_proof(shards[1], [4, 5])
        assert open_run(proof, root, self.CHUNK, window) == shards[1][4 * LEAF :]
        refused = [
            (build_proof(shards[1], [3, 4]), root, self.CHUNK),  # other leaves
            (build_proof(shards[1], [5, 4]), root, self.CHUNK),  # other order
            (proof, merkle_root(shards[0]), self.CHUNK),  # other chunk's root
            (proof, root, self.CHUNK + 1),  # other size than the broker expects
            (proof, None, self.CHUNK),  # no anchored root at all
        ]
        for bad_proof, bad_root, size in refused:
            with pytest.raises(ChunkCorruptionError, match="leaves 4..5"):
                open_run(bad_proof, bad_root, size, window)

    def test_synthetic_run_has_no_bytes(self):
        window = RowWindow(0, 1, 2, 5, LEAF + 5)
        proof = synthetic_proof(self.CHUNK, [1, 2])
        assert open_run(proof, SYNTHETIC_ROOT, self.CHUNK, window) is None
        with pytest.raises(ChunkCorruptionError):
            open_run(proof, merkle_root(b"real"), self.CHUNK, window)

    def test_leaves_detached_for_the_wire_reattach_and_verify(self):
        _code, _stripe, shards = self.encoded()
        window = RowWindow(0, 4, 5, 0, LEAF + 300)
        root = merkle_root(shards[0])
        proof = build_proof(shards[0], [4, 5])
        run = open_run(proof, root, self.CHUNK, window)
        bare = json.loads(json.dumps(detach_leaves(proof)))  # crosses as JSON
        assert all("d" not in entry for entry in bare["leaves"])
        assert len(json.dumps(bare)) < 2000
        again = attach_leaves(bare, memoryview(run))
        assert open_run(again, root, self.CHUNK, window) == run
        forged = bytearray(run)
        forged[-1] ^= 1
        with pytest.raises(ChunkCorruptionError):
            open_run(attach_leaves(bare, memoryview(forged)), root, self.CHUNK, window)

    def test_slice_and_decode_cut_the_same_bytes(self):
        code, stripe, shards = self.encoded()
        lo, hi = self.CHUNK - 50, self.CHUNK + LEAF + 7  # rows 0 and 1
        windows = rows_for_window(len(stripe), 2, lo, hi)

        def runs(window, indices):
            return [
                ProvenRun(
                    i, {}, shards[i][window.first_leaf * LEAF : (window.last_leaf + 1) * LEAF]
                )
                for i in indices
            ]

        from_holders = cut_windows(code, [(w, runs(w, [w.row])) for w in windows])
        from_others = cut_windows(
            code, [(w, runs(w, {0, 1, 2} - {w.row})) for w in windows]
        )
        assert from_holders == from_others == stripe[lo:hi]
