"""Regression: pre-audit metadata (no Merkle roots) stays serviceable.

Objects journaled before per-chunk Merkle trees existed have
``meta.merkle == ()``.  The auditor must *skip* them (it has no trust
anchor — guessing would let a tampered store mint its own roots), the
scrubber must still verify them by full read, and a clean full-read
pass doubles as the tree build: the scrubber backfills the roots into a
fresh metadata version, after which the object audits like any other.
"""

from dataclasses import replace

from repro.cluster.engine import object_row_key
from repro.core.broker import Scalia
from repro.obs.events import EventJournal
from repro.storage.merkle import merkle_root


def _payload(n: int = 96 * 1024) -> bytes:
    return bytes((j * 17) % 253 for j in range(n))


def _strip_roots(broker, container: str, key: str):
    """Rewrite an object's metadata as a pre-audit WAL would have it."""
    engine = broker.cluster.all_engines()[0]
    meta = broker.head(container, key)
    row_key = object_row_key(container, key)
    bare = replace(meta, merkle=())
    assert "merkle" not in bare.to_dict()  # old rows round-trip bare
    engine._metadata.write(  # noqa: SLF001 — simulating an old journal
        engine.dc, row_key, bare.to_dict(),
        uuid=engine._ids.uuid(), timestamp=meta.last_modified,
    )
    assert broker.head(container, key).merkle == ()
    return row_key


class TestUnrootedObjects:
    def test_auditor_skips_and_counts_unrooted(self):
        broker = Scalia(enable_metrics=False, enable_events=False)
        broker.put("old", "obj", _payload())
        _strip_roots(broker, "old", "obj")

        report = broker.audit()
        assert report.chunks_unrooted > 0
        assert report.chunks_audited == 0
        assert report.proofs_failed == 0 and report.repaired == 0
        broker.close()

    def test_scrub_full_read_verifies_and_backfills(self):
        events = EventJournal(enabled=True)
        broker = Scalia(enable_metrics=False, events=events)
        data = _payload()
        broker.put("old", "obj", data)
        _strip_roots(broker, "old", "obj")

        report = broker.scrub()
        assert report.chunks_ok == report.chunks_scanned > 0
        assert report.roots_backfilled == 1
        assert events.query(type="scrub.backfill")

        # The backfilled roots are the ones the stored bytes hash to.
        meta = broker.head("old", "obj")
        assert meta.merkle
        for stripe, index, provider_name, chunk_key in meta.iter_chunks():
            stored = broker.registry.get(provider_name).backend._chunks[  # noqa: SLF001
                chunk_key
            ]
            assert meta.merkle_root(index, stripe) == merkle_root(stored.data)

        # Once rooted, the object audits like any born-audited one.
        audit = broker.audit()
        assert audit.chunks_unrooted == 0
        assert audit.chunks_audited > 0 and audit.proofs_failed == 0
        # And the backfill is idempotent: the next scrub has nothing to do.
        assert broker.scrub().roots_backfilled == 0
        broker.close()

    def test_damaged_unrooted_object_repairs_first_backfills_later(self, tmp_path):
        """Backfill only happens over a fully clean pass: a damaged
        object is repaired now and earns its roots on the next sweep,
        so a tampered chunk can never be laundered into the anchor."""
        broker = Scalia(
            enable_metrics=False, enable_events=False, data_dir=str(tmp_path / "store")
        )
        data = _payload()
        broker.put("old", "obj", data)
        _strip_roots(broker, "old", "obj")

        meta = broker.head("old", "obj")
        _stripe, index, provider_name, chunk_key = next(meta.iter_chunks())
        # Rot at rest: the segment store's record check flags the chunk
        # corrupt on the full read (a rootless row has nothing else).
        path, offset, _length = broker.registry.get(provider_name).backend.locate(chunk_key)
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x01]))

        first = broker.scrub()
        assert first.chunks_corrupt == 1 and first.repaired == 1
        assert first.roots_backfilled == 0
        assert broker.head("old", "obj").merkle == ()

        second = broker.scrub()
        assert second.chunks_corrupt == 0
        assert second.roots_backfilled == 1
        meta = broker.head("old", "obj")
        assert meta.merkle
        assert broker.get("old", "obj") == data
        broker.close()

    def test_backfilled_roots_survive_restart(self, tmp_path):
        """The backfill write rides the ordinary metadata journal, so a
        restart recovers the roots like any other metadata version."""
        data_dir = str(tmp_path / "store")
        with Scalia(enable_metrics=False, data_dir=data_dir) as broker:
            broker.put("old", "obj", _payload())
            _strip_roots(broker, "old", "obj")
            assert broker.scrub().roots_backfilled == 1
            expected = broker.head("old", "obj").merkle
            assert expected

        with Scalia(enable_metrics=False, data_dir=data_dir) as broker:
            assert broker.head("old", "obj").merkle == expected
            report = broker.audit()
            assert report.chunks_unrooted == 0
            assert report.proofs_failed == 0
            assert report.chunks_audited > 0
