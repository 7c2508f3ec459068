"""Tests for chunk striping and the repair primitive."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.striping import (
    Chunk,
    SyntheticChunk,
    chunk_from_doc,
    chunk_length,
    chunk_to_doc,
    padded_overhead,
    reassemble_object,
    repair_chunk,
    split_object,
    split_synthetic,
    total_stored_bytes,
)


class TestChunk:
    def test_build_and_verify(self):
        # ``build`` is the plain constructor: a chunk is its index and
        # bytes, checked against its row's anchored root when fetched.
        chunk = Chunk.build(0, b"payload")
        assert chunk.size == 7
        assert chunk == Chunk(0, b"payload")

    def test_synthetic_chunk(self):
        chunk = SyntheticChunk(index=2, size=1024)
        assert chunk.size == 1024


class TestChunkDocs:
    def test_round_trip(self):
        for chunk in (Chunk(3, b"\x00payload\xff"), SyntheticChunk(index=1, size=77)):
            assert chunk_from_doc(chunk_to_doc(chunk)) == chunk

    def test_a_journaled_sha1_is_ignored(self):
        # Chunk records journaled before chunks lost their own SHA-1
        # carry it as "h"; they replay to the same chunk.
        doc = {"i": 2, "d": "cGF5bG9hZA==", "h": "9a5fd1d5bbbd1ec2d8a2b3f4a9a3f0f0bfcd6f34"}
        assert chunk_from_doc(doc) == Chunk(2, b"payload")
        assert "h" not in chunk_to_doc(Chunk(2, b"payload"))


class TestSplitReassemble:
    def test_split_counts_and_sizes(self):
        data = b"q" * 10
        chunks = split_object(data, 3, 5)
        assert len(chunks) == 5
        assert all(c.size == chunk_length(10, 3) == 4 for c in chunks)
        assert [c.index for c in chunks] == list(range(5))

    def test_reassemble_any_subset(self):
        data = bytes(range(100))
        chunks = split_object(data, 2, 4)
        assert reassemble_object([chunks[1], chunks[3]], 2, 4, len(data)) == data

    def test_too_few_chunks(self):
        chunks = split_object(b"abcdef", 3, 4)
        with pytest.raises(ValueError):
            reassemble_object(chunks[:2], 3, 4, 6)

    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(min_size=0, max_size=512), m=st.integers(1, 4), extra=st.integers(0, 3))
    def test_roundtrip_property(self, data, m, extra):
        n = m + extra
        chunks = split_object(data, m, n)
        # Use the *last* m chunks, exercising parity decode when extra > 0.
        assert reassemble_object(chunks[-m:], m, n, len(data)) == data

    def test_split_synthetic_matches_real_sizes(self):
        data = b"y" * 1001
        real = split_object(data, 3, 5)
        synth = split_synthetic(1001, 3, 5)
        assert [c.size for c in real] == [c.size for c in synth]


class TestRepair:
    def test_repair_round(self):
        data = b"provider S3(l) went down at hour 60" * 4
        chunks = split_object(data, 3, 5)
        survivors = [c for c in chunks if c.index != 4]
        rebuilt = repair_chunk(survivors, 4, 3, 5, len(data))
        assert rebuilt == chunks[4]

    def test_repaired_chunk_usable_for_decode(self):
        data = b"0123456789" * 11
        chunks = split_object(data, 2, 4)
        rebuilt = repair_chunk([chunks[0], chunks[3]], 1, 2, 4, len(data))
        assert reassemble_object([rebuilt, chunks[3]], 2, 4, len(data)) == data


class TestAccounting:
    def test_total_stored_bytes(self):
        assert total_stored_bytes(10, 3, 5) == 5 * 4
        assert total_stored_bytes(0, 2, 3) == 3

    def test_padded_overhead(self):
        assert padded_overhead(9, 3, 4) == pytest.approx(4 / 3)
        assert padded_overhead(10, 3, 4) == pytest.approx(16 / 10)
        assert math.isinf(padded_overhead(0, 1, 2))
