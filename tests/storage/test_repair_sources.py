"""A repair never launders the damage it repairs.

``Engine.rebuild_chunk`` re-anchors whatever bytes it is given: the
rebuilt chunk is what the store vouches for afterwards, and on a row
without roots the next clean scrub mints the roots from it.  So its
sources must be other chunks than the one it rebuilds (and than any
other the same inspection confirmed damaged), and each must be checked
before use: against the row's anchored Merkle root, as every fetch is.
Fewer than ``m`` good sources is ``unrepairable``, never a wrong chunk.
This is the premise of Dynamic Accountable Storage (PAPERS.md) applied
to repair: what the store vouches for after a repair must not be the
tampered bytes.
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


def _site(broker, meta, index, stripe):
    provider_name = dict(meta.chunk_map)[index]
    store = broker.registry.get(provider_name).backend
    chunk_key = meta.chunk_key(index, stripe)
    return provider_name, store, chunk_key, bytes(store.get(chunk_key).data)


def _flip(broker, meta, index, *, stripe: int = 0):
    """Flip byte 0 of one chunk a memory store holds: the store sees
    nothing wrong, only the anchored Merkle root can tell (tamper)."""
    provider_name, store, chunk_key, good = _site(broker, meta, index, stripe)
    store._chunks[chunk_key] = Chunk(index, bytes([good[0] ^ 0x01]) + good[1:])  # noqa: SLF001
    return provider_name, chunk_key, good


def _rot_on_disk(broker, meta, index, *, stripe: int = 0):
    """Flip byte 0 of one chunk's record in its segment file: the store's
    own record check refuses it (rot at rest), root or no root."""
    provider_name, store, chunk_key, good = _site(broker, meta, index, stripe)
    path, offset, _length = store.locate(chunk_key)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(bytes([good[0] ^ 0x01]))
    return provider_name, chunk_key, good


def _stored(broker, provider_name, chunk_key) -> bytes:
    return bytes(broker.registry.get(provider_name).backend.get(chunk_key).data)


def _strip_roots(broker, container, key):
    engine = _engine(broker)
    meta = broker.head(container, key)
    engine._metadata.write(  # noqa: SLF001 - simulating a pre-audit journal
        engine.dc, object_row_key(container, key), replace(meta, merkle=()).to_dict(),
        uuid=engine._ids.uuid(), timestamp=meta.last_modified,  # noqa: SLF001
    )
    return broker.head(container, key)


@pytest.mark.parametrize("rooted", [True, False], ids=["rooted", "unrooted"])
def test_a_repair_of_the_best_ranked_chunk_does_not_read_it_back(rooted, tmp_path):
    """The parent's failure: the damaged chunk sits on the provider reads
    are served from first, the rebuild fetches its sources in serving
    order with nothing excluded, and the damaged bytes come back
    re-anchored.  A rooted row's damage is a tamper only its root shows;
    a rootless row's is rot its segment store's record check shows."""
    broker = Scalia(
        enable_metrics=False, enable_events=False,
        data_dir=None if rooted else str(tmp_path / "store"),
    )
    data = _payload()
    meta = _put(broker, data, 4)
    if not rooted:
        meta = _strip_roots(broker, "c", "k")
    first_served = _engine(broker)._serving_order(meta)[0][0]  # noqa: SLF001
    damage = _flip if rooted else _rot_on_disk
    provider_name, chunk_key, good = damage(broker, meta, first_served)

    first = broker.scrub()
    assert (first.chunks_corrupt, first.repaired, first.unrepairable) == (1, 1, 0)
    assert _stored(broker, provider_name, chunk_key) == good
    second = broker.scrub()
    assert (second.chunks_corrupt, second.repaired) == (0, 0)
    assert broker.get("c", "k") == data
    broker.close()


def test_a_tampered_source_behind_a_valid_checksum_is_not_used():
    """Two chunks of an ``n - m = 1`` stripe are tampered behind the
    store's back.  Only their roots expose them, so a rebuild of one
    that trusted its sources would fold the other's tamper into a chunk
    it then vouches for."""
    broker = Scalia(enable_metrics=False, enable_events=False)
    data = _payload()
    meta = _put(broker, data, 4)
    order = [index for index, _ in _engine(broker)._serving_order(meta)]  # noqa: SLF001
    # The rebuilt chunk is the last-ranked one, the tampered source the
    # first-ranked: the alphabetical layout does not hide this one.
    rot_provider, rot_key, rot_good = _flip(broker, meta, order[-1])
    bad_provider, bad_key, _ = _flip(broker, meta, order[0])
    tampered = _stored(broker, bad_provider, bad_key)

    with pytest.raises(ReadFailedError):
        _engine(broker).rebuild_chunk(meta, 0, order[-1], rot_provider)
    report = broker.scrub()
    # Both are found; neither can be rebuilt from m - 1 good chunks, and
    # neither is overwritten.
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
    sites = [_flip(broker, meta, index) for index in order[:2]]

    report = broker.scrub()
    assert (report.chunks_corrupt, report.repaired, report.unrepairable) == (2, 2, 0)
    for provider_name, chunk_key, good in sites:
        assert _stored(broker, provider_name, chunk_key) == good
    meta = broker.head("c", "k")
    for stripe, index, provider_name, chunk_key in meta.iter_chunks():
        assert merkle_root(_stored(broker, provider_name, chunk_key)) == meta.merkle_root(index, stripe)
    assert broker.get("c", "k") == data
    broker.close()
