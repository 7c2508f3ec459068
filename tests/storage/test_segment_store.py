"""The append-only segment store: round-trips, recovery, damage, compaction."""

import os

import pytest

from repro.erasure.striping import Chunk, SyntheticChunk
from repro.storage.backend import ChunkCorruptionError, MemoryChunkStore
from repro.storage.segment import FileChunkStore


@pytest.fixture()
def store(tmp_path):
    s = FileChunkStore(tmp_path / "chunks")
    yield s
    s.close()


def real_chunk(index=0, payload=b"chunk-payload"):
    return Chunk.build(index, payload)


class TestRoundTrip:
    def test_put_get_real_chunk(self, store):
        chunk = real_chunk(3, b"hello segment store")
        store.put("k1", chunk)
        got = store.get("k1")
        assert got.index == 3
        assert got.data == b"hello segment store"
        assert got == chunk

    def test_put_get_synthetic_chunk(self, store):
        store.put("s1", SyntheticChunk(index=2, size=12345))
        got = store.get("s1")
        assert isinstance(got, SyntheticChunk)
        assert (got.index, got.size) == (2, 12345)

    def test_missing_key_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("nope")
        with pytest.raises(KeyError):
            store.delete("nope")

    def test_overwrite_replaces_and_tracks_bytes(self, store):
        store.put("k", real_chunk(0, b"aaaa"))
        store.put("k", real_chunk(0, b"bbbbbbbb"))
        assert store.get("k").data == b"bbbbbbbb"
        assert store.stored_bytes == 8
        assert len(store) == 1

    def test_delete_removes_key_and_bytes(self, store):
        store.put("k", real_chunk(0, b"abc"))
        store.delete("k")
        assert "k" not in store
        assert store.stored_bytes == 0

    def test_size_of_and_keys(self, store):
        store.put("a", real_chunk(0, b"12345"))
        store.put("b", SyntheticChunk(index=1, size=77))
        assert store.size_of("a") == 5
        assert store.size_of("b") == 77
        assert store.size_of("absent") is None
        assert sorted(store.keys()) == ["a", "b"]

    def test_empty_payload_chunk(self, store):
        store.put("e", real_chunk(0, b""))
        assert store.get("e").data == b""

    def test_unframeable_keys_rejected(self, store):
        # keylen 0 would read as a torn tail on recovery and truncate
        # every record after it; > 16-bit keys cannot be framed at all.
        with pytest.raises(ValueError):
            store.put("", real_chunk(0, b"x"))
        with pytest.raises(ValueError):
            store.put("k" * 70_000, real_chunk(0, b"x"))
        store.put("k" * 65_535, real_chunk(0, b"fits"))
        assert store.get("k" * 65_535).data == b"fits"


class TestPersistence:
    def test_index_rebuilt_on_open(self, tmp_path):
        root = tmp_path / "chunks"
        s1 = FileChunkStore(root)
        s1.put("a", real_chunk(0, b"alpha"))
        s1.put("b", real_chunk(1, b"bravo"))
        s1.delete("a")
        s1.put("c", SyntheticChunk(index=2, size=999))
        s1.close()

        s2 = FileChunkStore(root)
        assert sorted(s2.keys()) == ["b", "c"]
        assert s2.get("b").data == b"bravo"
        assert s2.get("c").size == 999
        assert s2.stored_bytes == 5 + 999
        s2.close()

    def test_survives_close_less_shutdown(self, tmp_path):
        # sync="os" flushes per record: reopening without close() sees all.
        s1 = FileChunkStore(tmp_path / "c")
        s1.put("k", real_chunk(0, b"not-lost"))
        # no close() — simulates SIGKILL
        s2 = FileChunkStore(tmp_path / "c")
        assert s2.get("k").data == b"not-lost"
        s2.close()

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        s1 = FileChunkStore(tmp_path / "c")
        s1.put("good", real_chunk(0, b"intact"))
        s1.close()
        seg = sorted((tmp_path / "c").glob("seg-*.log"))[-1]
        with open(seg, "ab") as fh:
            fh.write(b"SG\x01garbage-partial-record")
        s2 = FileChunkStore(tmp_path / "c")
        assert s2.keys() == ["good"]
        assert s2.get("good").data == b"intact"
        assert s2.truncated_tail_bytes > 0
        # the truncation repaired the file: a third open is clean
        s2.put("more", real_chunk(1, b"after-repair"))
        s2.close()
        s3 = FileChunkStore(tmp_path / "c")
        assert sorted(s3.keys()) == ["good", "more"]
        s3.close()

    def test_interior_frame_damage_does_not_drop_later_records(self, tmp_path):
        # One flipped bit in a record's *length field* makes that record
        # unframeable; the scan must resync on the next valid record
        # instead of truncating every acknowledged write after the damage.
        s1 = FileChunkStore(tmp_path / "c")
        s1.put("first", real_chunk(0, b"aaaa"))
        s1.put("damaged", real_chunk(1, b"bbbb"))
        s1.put("after-1", real_chunk(2, b"cccc"))
        s1.put("after-2", real_chunk(3, b"dddd"))
        path, payload_offset, _ = s1.locate("damaged")
        s1.close()
        with open(path, "r+b") as fh:
            # keylen field: record start (payload_offset - 26 - len("damaged"))
            # plus the 8-byte magic+op+kind+index prefix
            fh.seek(payload_offset - len("damaged") - 26 + 8)
            fh.write(b"\xff\xff")  # keylen becomes 65535: unframeable
        s2 = FileChunkStore(tmp_path / "c")
        assert s2.get("first").data == b"aaaa"
        assert s2.get("after-1").data == b"cccc"
        assert s2.get("after-2").data == b"dddd"
        assert s2.truncated_tail_bytes == 0
        assert s2.corrupt_records >= 1
        assert "damaged" not in s2  # the unframeable record itself is lost
        s2.close()

    def test_segment_roll(self, tmp_path):
        s = FileChunkStore(tmp_path / "c", segment_max_bytes=1024)
        for i in range(20):
            s.put(f"k{i}", real_chunk(i, bytes(200)))
        assert s.stats()["segments"] > 1
        for i in range(20):
            assert s.get(f"k{i}").data == bytes(200)
        s.close()
        s2 = FileChunkStore(tmp_path / "c", segment_max_bytes=1024)
        assert len(s2) == 20
        s2.close()


class TestCorruption:
    def _corrupt_payload(self, store, key):
        path, offset, length = store.locate(key)
        assert length > 0
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))

    def test_get_detects_in_place_corruption(self, store):
        store.put("k", real_chunk(0, b"soon-to-be-damaged"))
        self._corrupt_payload(store, "k")
        with pytest.raises(ChunkCorruptionError):
            store.get("k")
        with pytest.raises(ChunkCorruptionError):  # and stays refused
            store.get("k")

    def test_corruption_detected_across_reopen(self, tmp_path):
        s1 = FileChunkStore(tmp_path / "c")
        s1.put("k", real_chunk(0, b"damaged-on-disk"))
        s1.put("ok", real_chunk(1, b"untouched"))
        self._corrupt_payload(s1, "k")
        s1.close()
        s2 = FileChunkStore(tmp_path / "c")
        # the record still frames (lengths intact) so the key is indexed,
        # marked corrupt, and the neighbour is unaffected
        assert "k" in s2 and "ok" in s2
        assert s2.corrupt_records >= 1
        with pytest.raises(ChunkCorruptionError):
            s2.get("k")
        assert s2.get("ok").data == b"untouched"
        s2.close()

    def test_verify_states(self, store):
        store.put("k", real_chunk(0, b"fine"))
        assert store.get("k").data == b"fine"
        assert "ghost" not in store

    def test_repair_by_overwrite_clears_corruption(self, store):
        store.put("k", real_chunk(0, b"original"))
        self._corrupt_payload(store, "k")
        with pytest.raises(ChunkCorruptionError):
            store.get("k")
        store.put("k", real_chunk(0, b"original"))
        assert store.get("k").data == b"original"


class TestTombstoneSync:
    """Under ``sync="always"`` a delete is flushed, not fsynced; the
    store's next fsync (put, roll, flush) covers it."""

    @pytest.fixture()
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(os.fstat(fd).st_size)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_delete_does_not_fsync_and_the_next_put_does(self, tmp_path, fsyncs):
        store = FileChunkStore(tmp_path / "chunks", sync="always")
        store.put("a", real_chunk(0, b"a" * 100))
        fsyncs.clear()
        store.delete("a")
        assert fsyncs == []
        store.put("b", real_chunk(0, b"b" * 100))
        (synced,) = fsyncs
        assert synced == store.stats()["total_bytes"]  # the tombstone too
        store.close()

    def test_a_roll_fsyncs_the_outgoing_segment(self, tmp_path, fsyncs):
        store = FileChunkStore(tmp_path / "chunks", sync="always", segment_max_bytes=1024)
        store.put("a", real_chunk(0, b"a" * 400))
        store.delete("a")
        outgoing = store.stats()["total_bytes"]
        fsyncs.clear()
        store.put("b", real_chunk(0, b"b" * 900))  # does not fit: rolls
        assert store.stats()["segments"] == 2
        assert fsyncs[0] == outgoing  # before the new segment is opened
        store.close()


class TestCompaction:
    def test_explicit_compact_reclaims_dead_space(self, tmp_path):
        s = FileChunkStore(tmp_path / "c", compact_min_bytes=10**9)  # no auto
        for i in range(50):
            s.put("hot", real_chunk(0, bytes(100)))  # 49 dead versions
        before = s.stats()["total_bytes"]
        reclaimed = s.compact()
        assert reclaimed > 0
        assert s.stats()["total_bytes"] < before
        assert s.stats()["dead_bytes"] == 0
        assert s.get("hot").data == bytes(100)

    def test_auto_compaction_triggers_on_dead_ratio(self, tmp_path):
        s = FileChunkStore(tmp_path / "c", compact_min_bytes=2048, compact_dead_ratio=0.5)
        for i in range(100):
            s.put("k", real_chunk(0, bytes(64)))
        assert s.compactions >= 1
        assert s.get("k").data == bytes(64)
        s.close()

    def test_store_reopens_after_compaction(self, tmp_path):
        s = FileChunkStore(tmp_path / "c", compact_min_bytes=10**9)
        for i in range(10):
            s.put(f"k{i}", real_chunk(i, bytes([i]) * 50))
        for i in range(0, 10, 2):
            s.delete(f"k{i}")
        s.compact()
        s.close()
        s2 = FileChunkStore(tmp_path / "c")
        assert sorted(s2.keys()) == [f"k{i}" for i in range(1, 10, 2)]
        for i in range(1, 10, 2):
            assert s2.get(f"k{i}").data == bytes([i]) * 50
        s2.close()

    def test_compaction_drops_corrupt_records(self, tmp_path):
        s = FileChunkStore(tmp_path / "c", compact_min_bytes=10**9)
        s.put("bad", real_chunk(0, b"to-be-corrupted"))
        s.put("good", real_chunk(1, b"kept"))
        path, offset, _ = s.locate("bad")
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(b"X")
        with pytest.raises(ChunkCorruptionError):
            s.get("bad")
        s.compact()
        # the untrustworthy record is gone — reads as missing, which is
        # the state the scrubber repairs from the other erasure chunks
        assert "bad" not in s
        assert s.get("good").data == b"kept"
        s.close()


class TestMemoryStoreParity:
    """The dict store honours the same protocol surface."""

    def test_roundtrip_and_stats(self):
        s = MemoryChunkStore()
        s.put("a", real_chunk(0, b"xyz"))
        assert s.get("a").data == b"xyz"
        assert s.size_of("a") == 3
        assert s.stored_bytes == 3
        assert "b" not in s
        assert s.stats()["type"] == "memory"
        s.delete("a")
        assert len(s) == 0
