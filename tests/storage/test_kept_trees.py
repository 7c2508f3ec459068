"""A proof is a lookup: the stores keep each multi-leaf chunk's Merkle
levels from the hashing the write did and answer a challenge with the
asked leaves and their looked-up sibling paths.

What is pinned here: one hash per leaf per write and none per challenge
(by count), kept-tree proofs that verify against the live root and no
other after an overwrite or a delete, the ``merkle_bytes`` gauge and its
bound, and what a file store that seeks to the asked leaves does and
does not see of bytes that changed under it (and who does see them).
"""

import io
import math
import random

import pytest

import repro.storage.merkle as merkle
from repro.cluster.readpath import rows_for_window
from repro.core.broker import Scalia
from repro.erasure.striping import Chunk
from repro.storage.backend import ChunkCorruptionError, MemoryChunkStore
from repro.storage.merkle import LEAF_SIZE, leaf_count, open_proof, verify_proof
from repro.storage.segment import FileChunkStore

MiB = 1024 * 1024
MULTI_LEAF_SIZES = [LEAF_SIZE + 1, 3 * LEAF_SIZE - 7, 5 * LEAF_SIZE + 3, 2 * MiB]


def _file_store(root):
    # Compaction only when a test asks for it.
    return FileChunkStore(root, compact_min_bytes=1 << 40)


@pytest.fixture(params=["memory", "segment"])
def store(request, tmp_path):
    opened = MemoryChunkStore() if request.param == "memory" else _file_store(tmp_path / "seg")
    yield opened
    opened.close()


def written(size, seed=0, *, kept=True):
    """A chunk as the write path hands it to a store, with its root
    (``kept=False``: as it arrives off a wire, without its tree)."""
    chunk = Chunk.build(0, random.Random(seed).randbytes(size))
    return chunk, (merkle.kept_root(chunk) if kept else merkle.chunk_root(chunk))


def leaf(data, index):
    return data[index * LEAF_SIZE : (index + 1) * LEAF_SIZE]


@pytest.fixture()
def hashed(monkeypatch):
    """Every ``merkle._leaf_hash`` call from here on, as a list to count."""
    calls = []
    real = merkle._leaf_hash

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(merkle, "_leaf_hash", counting)
    return calls


class _CountedReader:
    def __init__(self, handle, tally):
        self._handle, self._tally = handle, tally

    def seek(self, position):
        return self._handle.seek(position)

    def read(self, count=-1):
        data = self._handle.read(count)
        self._tally.append(len(data))
        return data

    def close(self):
        self._handle.close()


def count_reads(store, monkeypatch):
    """Lengths of every read the store makes of its segments from here on."""
    tally = []
    real = store._reader
    monkeypatch.setattr(store, "_reader", lambda segment: _CountedReader(real(segment), tally))
    return tally


# -- one hash per leaf per write, none per challenge ------------------------


def test_a_write_hashes_each_leaf_once_and_a_challenge_hashes_none(hashed):
    data = random.Random(23).randbytes(16 * MiB)
    # Inside a row across a leaf edge; on a leaf edge; across two rows;
    # across the two stripes.
    ranges = [(200_000, 2), (5 * MiB, 1), (2 * MiB - 40_000, 2), (8 * MiB - 1_000, 2)]

    def read_ranges(broker, key, meta):
        for lo, leaves in ranges:
            del hashed[:]
            got = broker.get("c", key, byte_range=(lo, lo + LEAF_SIZE - 1))
            assert bytes(got) == data[lo : lo + LEAF_SIZE]
            covering = sum(
                len(window.leaves)
                for stripe in range(2)
                for window in rows_for_window(
                    8 * MiB, meta.m,
                    min(max(lo - stripe * 8 * MiB, 0), 8 * MiB),
                    min(max(lo + LEAF_SIZE - stripe * 8 * MiB, 0), 8 * MiB),
                )
            )
            # The verifier's, one per leaf served; the store adds none.
            assert len(hashed) == covering == leaves

    with Scalia(enable_metrics=False) as broker:
        meta = broker.put("c", "streamed", io.BytesIO(data))
        assert (meta.m, meta.n, meta.stripe_lengths) == (4, 5, (8 * MiB, 8 * MiB))
        assert len(hashed) == 2 * 5 * 32
        read_ranges(broker, "streamed", meta)

        del hashed[:]
        upload = broker.create_multipart_upload("c", "parts", size_hint=len(data))
        for number in (1, 2):
            part = data[(number - 1) * 8 * MiB : number * 8 * MiB]
            broker.upload_part("c", "parts", upload.upload_id, number, io.BytesIO(part))
        meta = broker.complete_multipart_upload("c", "parts", upload.upload_id)
        assert (meta.m, meta.n, meta.stripe_lengths) == (4, 5, (8 * MiB, 8 * MiB))
        assert len(hashed) == 2 * 5 * 32
        read_ranges(broker, "parts", meta)


def test_a_chunk_that_arrives_without_its_tree_is_hashed_at_its_first_challenge_only(
    store, hashed
):
    chunk, root = written(2 * MiB, kept=False)
    store.put("k", chunk)
    del hashed[:]
    assert store.stats()["merkle_bytes"] == 0
    first = store.audit("k", [3])
    assert len(hashed) == 32
    second = store.audit("k", [20, 4])
    assert len(hashed) == 32
    assert store.stats()["merkle_bytes"] == merkle.build_tree(chunk.data).nbytes
    assert open_proof(first, root, 2 * MiB) == [leaf(chunk.data, 3)]
    assert open_proof(second, root, 2 * MiB) == [leaf(chunk.data, 20), leaf(chunk.data, 4)]


def test_a_single_leaf_chunks_challenge_hashes_nothing_and_keeps_nothing(store, hashed):
    roots = {}
    for size in (0, 1, 1024, LEAF_SIZE):
        chunk, roots[size] = written(size, seed=size)
        store.put(f"k{size}", chunk)
    del hashed[:]
    proofs = {size: store.audit(f"k{size}", [0]) for size in roots}
    assert hashed == []
    assert store.stats()["merkle_bytes"] == 0
    for size, proof in proofs.items():
        assert proof["leaves"][0]["path"] == []
        assert verify_proof(proof, roots[size], size)


# -- nothing stale -----------------------------------------------------------


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "arrived-bare"])
def test_a_proof_is_of_the_bytes_now_under_the_key(store, kept):
    old, old_root = written(2 * MiB, seed=1, kept=kept)
    new, new_root = written(2 * MiB, seed=2, kept=kept)
    asked = [3, 20]

    def challenge():
        return store.audit("k", asked)

    store.put("k", old)
    assert open_proof(challenge(), old_root, 2 * MiB) == [leaf(old.data, i) for i in asked]
    store.put("k", new)  # same key, same size, other bytes
    assert open_proof(challenge(), new_root, 2 * MiB) == [leaf(new.data, i) for i in asked]
    assert not verify_proof(challenge(), old_root, 2 * MiB)
    store.delete("k")
    with pytest.raises(KeyError):
        challenge()
    store.put("k", old)
    assert open_proof(challenge(), old_root, 2 * MiB) == [leaf(old.data, i) for i in asked]
    assert not verify_proof(challenge(), new_root, 2 * MiB)


def test_a_store_that_swaps_the_bytes_fails_every_proof(store):
    """What ``_tampered`` and a test's ``backend.put(key, forged)`` do: a
    new chunk, whose tree is of the forged bytes."""
    chunk, root = written(2 * MiB)
    forged = bytearray(chunk.data)
    forged[20 * LEAF_SIZE + 5] ^= 1
    store.put("k", chunk)
    store.put("k", Chunk.build(0, bytes(forged)))
    for index in (3, 20, 31):
        assert not verify_proof(store.audit("k", [index]), root, 2 * MiB)


# -- the gauge ----------------------------------------------------------------


def test_merkle_bytes_is_a_sliver_of_multi_leaf_chunks_and_follows_the_keys(store):
    weights = {}
    for number, size in enumerate(MULTI_LEAF_SIZES):
        chunk, _root = written(size, seed=number)
        store.put(f"k{number}", chunk)
        weights[f"k{number}"] = merkle.build_tree(chunk.data).nbytes
        # 32 B per leaf and as much again for the levels above: 0.1%.
        assert 32 * leaf_count(size) < weights[f"k{number}"] <= 0.002 * size
    stats = store.stats()
    assert stats["merkle_bytes"] == sum(weights.values())
    assert stats["merkle_bytes"] <= 0.002 * stats["stored_bytes"]
    # Overwritten by fewer leaves, by one leaf, deleted: the gauge follows.
    smaller, _root = written(LEAF_SIZE + 1, seed=9)
    store.put("k3", smaller)
    weights["k3"] = merkle.build_tree(smaller.data).nbytes
    assert store.stats()["merkle_bytes"] == sum(weights.values())
    store.put("k2", written(1024)[0])
    del weights["k2"]
    assert store.stats()["merkle_bytes"] == sum(weights.values())
    store.delete("k0")
    del weights["k0"]
    assert store.stats()["merkle_bytes"] == sum(weights.values())
    for key in ("k1", "k2", "k3"):
        store.delete(key)
    assert store.stats()["merkle_bytes"] == 0


def test_compaction_carries_the_trees_without_reading_a_payload_for_them(
    tmp_path, hashed, monkeypatch
):
    store = _file_store(tmp_path / "seg")
    chunks = {}
    for number in range(3):
        chunks[f"k{number}"] = written(2 * MiB, seed=number)
        store.put(f"k{number}", chunks[f"k{number}"][0])
    store.delete("k0")
    kept = store.stats()["merkle_bytes"]
    assert kept == 2 * merkle.build_tree(chunks["k1"][0].data).nbytes
    del hashed[:]
    assert store.compact() > 2 * MiB
    assert store.stats()["merkle_bytes"] == kept
    reads = count_reads(store, monkeypatch)
    for key in ("k1", "k2"):
        chunk, root = chunks[key]
        proof = store.audit(key, [9])
        assert hashed == [] and sum(reads) <= LEAF_SIZE
        del reads[:]
        assert open_proof(proof, root, 2 * MiB) == [leaf(chunk.data, 9)]
        del hashed[:]
    store.close()


# -- a file store reads what it is asked for ---------------------------------


def _rot(store, key, position):
    path, offset, _length = store.locate(key)
    with open(path, "r+b") as fh:
        fh.seek(offset + position)
        byte = fh.read(1)
        fh.seek(offset + position)
        fh.write(bytes([byte[0] ^ 0x01]))


def test_a_challenge_reads_the_asked_leaf_and_sees_rot_only_there(tmp_path, hashed, monkeypatch):
    store = _file_store(tmp_path / "seg")
    chunk, root = written(2 * MiB)
    store.put("k", chunk)
    _rot(store, "k", 7 * LEAF_SIZE + 123)
    reads = count_reads(store, monkeypatch)
    del hashed[:]
    rotten = store.audit("k", [7])
    assert sum(reads) == LEAF_SIZE and hashed == []
    assert open_proof(rotten, root, 2 * MiB) is None
    del reads[:], hashed[:]
    sound = store.audit("k", [3])
    assert sum(reads) == LEAF_SIZE and hashed == []
    # It verifies, and what it serves are the written bytes.
    assert open_proof(sound, root, 2 * MiB) == [leaf(chunk.data, 3)]
    # The full read is the scrubber's, and it sees the rot at once.
    with pytest.raises(ChunkCorruptionError):
        store.get("k")
    store.close()


def test_after_a_restart_the_first_challenge_reads_the_payload_once(
    tmp_path, hashed, monkeypatch
):
    chunk, root = written(2 * MiB)
    store = _file_store(tmp_path / "seg")
    store.put("k", chunk)
    store.close()
    store = _file_store(tmp_path / "seg")
    assert store.stats()["merkle_bytes"] == 0  # nothing new on disk
    reads = count_reads(store, monkeypatch)
    del hashed[:]
    first = store.audit("k", [3])
    assert (sum(reads), len(hashed)) == (2 * MiB, 32)
    del reads[:], hashed[:]
    second = store.audit("k", [4])
    assert (sum(reads), hashed) == (LEAF_SIZE, [])
    assert store.stats()["merkle_bytes"] == merkle.build_tree(chunk.data).nbytes
    assert open_proof(first, root, 2 * MiB) == [leaf(chunk.data, 3)]
    assert open_proof(second, root, 2 * MiB) == [leaf(chunk.data, 4)]
    store.close()


def test_scrub_flags_rot_in_one_leaf_at_once_and_seeded_sweeps_within_the_sampling_bound(
    tmp_path,
):
    """docs/AUDITING.md, "The auditor": one rotten leaf of ``L`` is
    sampled with probability ``1/L`` per sweep, so ``N`` sweeps miss it
    with probability ``(1 - 1/L)**N``: under one in a thousand at
    ``N = ln(0.001) / ln(1 - 1/L)``, 218 sweeps for the 32 leaves here.
    Seeds make the sweep that finds it a fixed one."""
    data = random.Random(5).randbytes(8 * MiB)
    with Scalia(data_dir=str(tmp_path), enable_metrics=False) as broker:
        meta = broker.put("c", "k", data)
        assert meta.m == 4
        index, provider_name = meta.chunk_map[0]
        backend = broker.registry.get(provider_name).backend
        _rot(backend, meta.chunk_key(index, 0), 7 * LEAF_SIZE + 123)
        scrubbed = broker.scrub(repair=False)
        assert scrubbed.chunks_corrupt == 1
        assert scrubbed.problems[0].provider == provider_name
        bound = math.ceil(math.log(0.001) / math.log(1 - 1 / 32))
        assert bound == 218
        found = None
        for seed in range(bound):
            report = broker.audit(repair=False, seed=seed)
            if report.proofs_failed:
                found = report
                break
        assert found is not None and found.problems[0].provider == provider_name
        # The leaves it did not ask for it still serves as they were written.
        lo = 3 * LEAF_SIZE + 17
        assert bytes(broker.get("c", "k", byte_range=(lo, lo + 999))) == data[lo : lo + 1000]
