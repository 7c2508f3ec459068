"""Scrubbing: corruption/loss detection and erasure-coded repair."""

import pytest

from repro.core.broker import Scalia


@pytest.fixture()
def broker(tmp_path):
    b = Scalia(data_dir=str(tmp_path))
    yield b
    b.close()


def damaged_chunk_site(broker, container, key, which=0):
    """(provider, chunk_key, backend) for one chunk of a stored object."""
    meta = broker.head(container, key)
    index, provider_name = meta.chunk_map[which]
    provider = broker.registry.get(provider_name)
    return provider, meta.chunk_key(index), provider.backend


def corrupt_in_place(backend, chunk_key):
    path, offset, length = backend.locate(chunk_key)
    assert length > 0
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestScrubDetection:
    def test_clean_store_scrubs_clean(self, broker):
        broker.put("photos", "ok.gif", b"GIF89a" * 50)
        report = broker.scrub()
        assert report.objects_scanned == 1
        assert report.chunks_corrupt == 0
        assert report.chunks_missing == 0
        assert report.repaired == 0

    def test_detects_hand_corrupted_segment_record(self, broker):
        broker.put("photos", "victim.bin", bytes(range(256)) * 4)
        provider, chunk_key, backend = damaged_chunk_site(broker, "photos", "victim.bin")
        corrupt_in_place(backend, chunk_key)
        report = broker.scrub(repair=False)
        assert report.chunks_corrupt == 1
        assert report.repaired == 0
        problem = report.problems[0]
        assert problem.status == "corrupt"
        assert problem.provider == provider.name

    def test_detects_missing_chunk(self, broker):
        broker.put("photos", "lost.bin", b"y" * 500)
        provider, chunk_key, backend = damaged_chunk_site(broker, "photos", "lost.bin")
        backend.delete(chunk_key)  # bypass the provider: unmetered disk loss
        report = broker.scrub(repair=False)
        assert report.chunks_missing == 1


class TestScrubRepair:
    def test_corrupt_chunk_is_reencoded_and_readable(self, broker):
        payload = bytes(range(256)) * 16
        broker.put("photos", "repairme.bin", payload)
        provider, chunk_key, backend = damaged_chunk_site(broker, "photos", "repairme.bin")
        original = backend.get(chunk_key).data
        corrupt_in_place(backend, chunk_key)

        report = broker.scrub()
        assert report.chunks_corrupt == 1
        assert report.repaired == 1
        assert report.unrepairable == 0

        # the damaged replica is whole again, on the same provider
        assert backend.get(chunk_key).data == original
        assert broker.get("photos", "repairme.bin") == payload
        # and a second pass finds nothing left to fix
        assert broker.scrub().chunks_corrupt == 0

    def test_missing_chunk_is_restored(self, broker):
        payload = b"restore-me" * 100
        broker.put("photos", "missing.bin", payload)
        provider, chunk_key, backend = damaged_chunk_site(broker, "photos", "missing.bin")
        original = backend.get(chunk_key).data
        backend.delete(chunk_key)

        report = broker.scrub()
        assert report.chunks_missing == 1
        assert report.repaired == 1
        assert backend.get(chunk_key).data == original
        assert broker.get("photos", "missing.bin") == payload

    def test_read_path_survives_corruption_before_scrub(self, broker):
        # Any m intact chunks serve the read even while damage is unrepaired.
        payload = b"still-readable" * 64
        broker.put("photos", "tolerant.bin", payload)
        _, chunk_key, backend = damaged_chunk_site(broker, "photos", "tolerant.bin")
        corrupt_in_place(backend, chunk_key)
        assert broker.get("photos", "tolerant.bin") == payload

    def test_repair_traffic_is_billed(self, broker):
        broker.put("photos", "billed.bin", bytes(1000))
        provider, chunk_key, backend = damaged_chunk_site(broker, "photos", "billed.bin")
        ops_before = provider.meter.total().ops_put
        corrupt_in_place(backend, chunk_key)
        broker.scrub()
        assert provider.meter.total().ops_put == ops_before + 1

    def test_scrub_report_surfaces_in_storage_stats(self, broker):
        broker.put("photos", "x.bin", bytes(100))
        broker.scrub()
        stats = broker.storage_stats()
        assert stats["last_scrub"]["objects_scanned"] == 1


class TestOrphanSweep:
    def test_unreferenced_chunk_is_collected(self, broker):
        broker.put("photos", "real.bin", bytes(200))
        provider = broker.registry.providers()[0]
        from repro.erasure.striping import Chunk

        provider.backend.put("deadbeef:0", Chunk.build(0, b"orphaned bytes"))
        report = broker.scrub()
        assert report.orphans_found == 1
        assert report.orphans_removed == 1
        assert "deadbeef:0" not in provider
        # referenced chunks untouched
        assert broker.get("photos", "real.bin") == bytes(200)

    def test_detect_only_scrub_leaves_orphans(self, broker):
        from repro.erasure.striping import Chunk

        provider = broker.registry.providers()[0]
        provider.backend.put("deadbeef:1", Chunk.build(1, b"kept for forensics"))
        broker.scrub(repair=False)
        assert "deadbeef:1" in provider

    def test_pending_delete_queue_survives_crash(self, tmp_path):
        # An acknowledged DELETE whose provider was down must complete
        # after a crash+restart: the queue is journaled, not memory-only.
        b1 = Scalia(data_dir=str(tmp_path / "d"))
        b1.put("photos", "doomed.bin", bytes(300))
        meta = b1.head("photos", "doomed.bin")
        down = meta.chunk_map[0][1]
        b1.registry.fail(down)
        b1.delete("photos", "doomed.bin")
        assert len(b1.cluster.pending_deletes) > 0
        b1.durability.abandon()  # crash: no clean shutdown
        b2 = Scalia(data_dir=str(tmp_path / "d"))
        assert list(b2.cluster.pending_deletes.entries) == list(
            b1.cluster.pending_deletes.entries
        )
        b2.tick()  # provider is up in the new process; flush completes
        assert len(b2.cluster.pending_deletes) == 0
        assert b2.registry.get(down).backend.keys() == []
        b2.close()
