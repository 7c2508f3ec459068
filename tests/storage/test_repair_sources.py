"""A repair never launders the damage it repairs.

``Engine.rebuild_chunk`` re-anchors whatever bytes it is given: the
rebuilt chunk gets a fresh checksum, and on a row without roots the next
clean scrub mints the roots from it.  So its sources must be other
chunks than the one it rebuilds (and than any other the same inspection
confirmed damaged), and each must be checked before use: against the
row's anchored Merkle root, or the chunk's own SHA-1 where the row has
none.  Fewer than ``m`` good sources is ``unrepairable``, never a wrong
chunk.  This is the premise of Dynamic Accountable Storage (PAPERS.md)
applied to repair: what the store vouches for after a repair must not
be the tampered bytes.
"""

from dataclasses import replace

import pytest

from repro.cluster.engine import ReadFailedError
from repro.core.broker import Scalia
from repro.erasure.striping import Chunk
from repro.storage.merkle import merkle_root
from repro.types import Placement
from repro.util.ids import object_row_key


def _payload(n: int = 96 * 1024) -> bytes:
    return bytes((j * 31 + 7) % 251 for j in range(n))


def _engine(broker):
    return broker.cluster.all_engines()[0]


def _put(broker, data: bytes, m: int):
    """``data`` stored on all five providers at threshold ``m``."""
    broker.put("c", "k", data)
    _engine(broker).migrate("c", "k", Placement(tuple(broker.registry.names()), m))
    meta = broker.head("c", "k")
    assert (meta.m, meta.n) == (m, 5) and meta.merkle
    return meta


def _flip(broker, meta, index, *, keep_checksum: bool, stripe: int = 0):
    """Flip byte 0 of one stored chunk.  With the old checksum kept, a
    full read flags it (rot); with the checksum recomputed only the
    anchored Merkle root can tell (adversarial tamper)."""
    provider_name = dict(meta.chunk_map)[index]
    store = broker.registry.get(provider_name).backend
    chunk_key = meta.chunk_key(index, stripe)
    good = store._chunks[chunk_key]  # noqa: SLF001 - test introspection
    rotten = bytearray(good.data)
    rotten[0] ^= 0x01
    store._chunks[chunk_key] = (  # noqa: SLF001
        Chunk(index=good.index, data=bytes(rotten), checksum=good.checksum)
        if keep_checksum
        else Chunk.build(good.index, bytes(rotten))
    )
    return provider_name, chunk_key, bytes(good.data)


def _stored(broker, provider_name, chunk_key) -> bytes:
    return bytes(broker.registry.get(provider_name).backend._chunks[chunk_key].data)  # noqa: SLF001


def _strip_roots(broker, container, key):
    engine = _engine(broker)
    meta = broker.head(container, key)
    engine._metadata.write(  # noqa: SLF001 - simulating a pre-audit journal
        engine.dc, object_row_key(container, key), replace(meta, merkle=()).to_dict(),
        uuid=engine._ids.uuid(), timestamp=meta.last_modified,  # noqa: SLF001
    )
    return broker.head(container, key)


@pytest.mark.parametrize("rooted", [True, False], ids=["rooted", "unrooted"])
def test_a_repair_of_the_best_ranked_chunk_does_not_read_it_back(rooted):
    """The parent's failure: the damaged chunk sits on the provider reads
    are served from first, the rebuild fetches its sources in serving
    order with nothing excluded, the memory backend hands the chunk over
    unchecked, and the tampered bytes come back with a fresh checksum."""
    broker = Scalia(enable_metrics=False, enable_events=False)
    data = _payload()
    meta = _put(broker, data, 4)
    if not rooted:
        meta = _strip_roots(broker, "c", "k")
    first_served = _engine(broker)._serving_order(meta)[0][0]  # noqa: SLF001
    provider_name, chunk_key, good = _flip(broker, meta, first_served, keep_checksum=True)

    first = broker.scrub()
    assert (first.chunks_corrupt, first.repaired, first.unrepairable) == (1, 1, 0)
    assert _stored(broker, provider_name, chunk_key) == good
    second = broker.scrub()
    assert (second.chunks_corrupt, second.repaired) == (0, 0)
    assert broker.get("c", "k") == data
    broker.close()


def test_a_tampered_source_behind_a_valid_checksum_is_not_used():
    """Two chunks of an ``n - m = 1`` stripe are bad: one flagged by its
    checksum, one tampered with the checksum recomputed.  Only the root
    exposes the second, so a rebuild of the first that trusted SHA-1
    would fold the tamper into a chunk it then vouches for."""
    broker = Scalia(enable_metrics=False, enable_events=False)
    data = _payload()
    meta = _put(broker, data, 4)
    order = [index for index, _ in _engine(broker)._serving_order(meta)]  # noqa: SLF001
    # The rebuilt chunk is the last-ranked one, the tampered source the
    # first-ranked: the alphabetical layout does not hide this one.
    rot_provider, rot_key, rot_good = _flip(broker, meta, order[-1], keep_checksum=True)
    bad_provider, bad_key, _ = _flip(broker, meta, order[0], keep_checksum=False)
    tampered = _stored(broker, bad_provider, bad_key)

    with pytest.raises(ReadFailedError):
        _engine(broker).rebuild_chunk(meta, 0, order[-1], rot_provider)
    report = broker.scrub()
    # Both are found (the root catches the second); neither can be
    # rebuilt from m - 1 good chunks, and neither is overwritten.
    assert (report.chunks_corrupt, report.repaired, report.unrepairable) == (2, 0, 2)
    assert _stored(broker, bad_provider, bad_key) == tampered
    assert _stored(broker, rot_provider, rot_key) != rot_good
    broker.close()


def test_confirmed_damaged_chunks_are_not_sources_for_each_other():
    """``inspect`` hands the rebuild every index it confirmed damaged in
    the stripe, so with ``n - m = 2`` two bad chunks are each rebuilt
    from the ``m`` good ones, whatever their rank."""
    broker = Scalia(enable_metrics=False, enable_events=False)
    data = _payload()
    meta = _put(broker, data, 3)
    engine = _engine(broker)
    order = [index for index, _ in engine._serving_order(meta)]  # noqa: SLF001
    sites = [_flip(broker, meta, index, keep_checksum=False) for index in order[:2]]

    report = broker.scrub()
    assert (report.chunks_corrupt, report.repaired, report.unrepairable) == (2, 2, 0)
    for provider_name, chunk_key, good in sites:
        assert _stored(broker, provider_name, chunk_key) == good
    meta = broker.head("c", "k")
    for stripe, index, provider_name, chunk_key in meta.iter_chunks():
        assert merkle_root(_stored(broker, provider_name, chunk_key)) == meta.merkle_root(index, stripe)
    assert broker.get("c", "k") == data
    broker.close()
