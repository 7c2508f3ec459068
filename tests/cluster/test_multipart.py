"""Multipart uploads: staging rows, completion semantics, crash survival."""

import hashlib
import random

import pytest

from repro.cluster.engine import MultipartError, NoSuchUploadError
from repro.core.broker import Scalia
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.ops import OpsService
from repro.gateway.remote import RemoteBrokerFrontend

STRIPE = 4096


def payload_of(size, seed=0):
    return random.Random(seed).randbytes(size)


@pytest.fixture()
def broker(request):
    """A broker on the requesting class's stager: with ``rpc`` its
    ``upload_part`` runs the write driver over the ops RPC against a live
    ``OpsService`` (the worker's write path without the processes);
    everything else, reads and multipart control included, stays direct."""
    b = Scalia(stripe_size_bytes=STRIPE)
    if request.cls.STAGER == "engine":
        yield b
        b.close()
        return
    frontend = BrokerFrontend(b, mode="direct")
    server = OpsService(frontend).serve("127.0.0.1", 0)
    remote = RemoteBrokerFrontend(*server.address)
    b.upload_part = remote.broker.upload_part
    yield b
    remote.close()
    server.close()
    frontend.close()
    b.close()


def stored_keys(broker):
    out = set()
    for provider in broker.registry.providers():
        for chunk_key in provider.backend.keys():
            out.add((provider.name, chunk_key))
    return out


def referenced_keys(meta):
    return {(p, ck) for _s, _i, p, ck in meta.iter_chunks()}


class TestMultipartLifecycle:
    STAGER = "engine"

    def test_roundtrip_with_unaligned_parts(self, broker):
        parts_data = [
            payload_of(STRIPE * 2, seed=1),       # aligned
            payload_of(STRIPE + 700, seed=2),     # trailing partial stripe
            payload_of(300, seed=3),              # sub-stripe final part
        ]
        upload = broker.create_multipart_upload("c", "big.bin", size_hint=STRIPE * 4)
        receipts = []
        for number, data in enumerate(parts_data, start=1):
            part = broker.upload_part("c", "big.bin", upload.upload_id, number, data)
            assert part.etag == hashlib.md5(data).hexdigest()
            receipts.append((number, part.etag))
        meta = broker.complete_multipart_upload(
            "c", "big.bin", upload.upload_id, receipts
        )
        whole = b"".join(parts_data)
        assert meta.size == len(whole)
        assert meta.checksum.endswith("-3")  # S3 multipart etag convention
        assert broker.get("c", "big.bin") == whole
        # range crossing a part boundary
        lo = STRIPE * 2 - 10
        hi = STRIPE * 2 + 10
        assert broker.get("c", "big.bin", byte_range=(lo, hi)) == whole[lo : hi + 1]
        assert stored_keys(broker) == referenced_keys(meta)
        assert broker.list_multipart_uploads("c") == []

    def test_upload_not_listed_until_complete(self, broker):
        upload = broker.create_multipart_upload("c", "wip.bin")
        broker.upload_part("c", "wip.bin", upload.upload_id, 1, b"x" * 100)
        assert broker.list("c") == []
        uploads = broker.list_multipart_uploads("c")
        assert [u.upload_id for u in uploads] == [upload.upload_id]
        assert uploads[0].parts[1].size == 100

    def test_complete_without_manifest_uses_all_parts_in_order(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 2, b"BBB")
        broker.upload_part("c", "k", upload.upload_id, 1, b"AAA")
        broker.complete_multipart_upload("c", "k", upload.upload_id)
        assert broker.get("c", "k") == b"AAABBB"

    def test_manifest_subset_drops_unlisted_parts(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 1, b"keep-1")
        broker.upload_part("c", "k", upload.upload_id, 2, b"drop-2")
        broker.upload_part("c", "k", upload.upload_id, 3, b"keep-3")
        meta = broker.complete_multipart_upload(
            "c", "k", upload.upload_id, [(1, None), (3, None)]
        )
        assert broker.get("c", "k") == b"keep-1keep-3"
        assert stored_keys(broker) == referenced_keys(meta)  # part 2 deleted

    def test_manifest_validation(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 1, b"data")
        with pytest.raises(MultipartError):
            broker.complete_multipart_upload("c", "k", upload.upload_id, [(2, None)])
        with pytest.raises(MultipartError):
            broker.complete_multipart_upload(
                "c", "k", upload.upload_id, [(1, "bogus-etag")]
            )
        with pytest.raises(MultipartError):
            broker.complete_multipart_upload(
                "c", "k", upload.upload_id, [(1, None), (1, None)]
            )
        with pytest.raises(MultipartError):
            broker.complete_multipart_upload("c", "k2", upload.upload_id)

    def test_complete_with_no_parts_rejected(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        with pytest.raises(MultipartError):
            broker.complete_multipart_upload("c", "k", upload.upload_id)

    def test_reupload_part_replaces_and_gcs_old_generation(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 1, payload_of(STRIPE * 2, seed=4))
        shorter = payload_of(500, seed=5)
        broker.upload_part("c", "k", upload.upload_id, 1, shorter)
        meta = broker.complete_multipart_upload("c", "k", upload.upload_id)
        assert broker.get("c", "k") == shorter
        assert stored_keys(broker) == referenced_keys(meta)

    def test_abort_drops_staged_chunks(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 1, payload_of(STRIPE, seed=6))
        assert stored_keys(broker) != set()
        deleted = broker.abort_multipart_upload("c", "k", upload.upload_id)
        assert deleted > 0
        assert stored_keys(broker) == set()
        with pytest.raises(NoSuchUploadError):
            broker.upload_part("c", "k", upload.upload_id, 2, b"late")

    def test_unknown_upload_and_bad_part_numbers(self, broker):
        with pytest.raises(NoSuchUploadError):
            broker.upload_part("c", "k", "no-such-id", 1, b"x")
        upload = broker.create_multipart_upload("c", "k")
        with pytest.raises(MultipartError):
            broker.upload_part("c", "k", upload.upload_id, 0, b"x")
        with pytest.raises(MultipartError):
            broker.upload_part("c", "k", upload.upload_id, 10_001, b"x")
        with pytest.raises(MultipartError):
            broker.upload_part("c", "k", upload.upload_id, 1, 12345)  # synthetic

    def test_completion_overwrites_existing_object(self, broker):
        broker.put("c", "k", b"old version")
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 1, b"new version")
        meta = broker.complete_multipart_upload("c", "k", upload.upload_id)
        assert broker.get("c", "k") == b"new version"
        assert stored_keys(broker) == referenced_keys(meta)

    def test_scrub_keeps_inflight_parts(self, broker):
        upload = broker.create_multipart_upload("c", "k")
        broker.upload_part("c", "k", upload.upload_id, 1, payload_of(STRIPE, seed=7))
        report = broker.scrub()
        assert report.orphans_found == 0
        # the staged part is still completable after the scrub
        broker.complete_multipart_upload("c", "k", upload.upload_id)
        assert broker.get("c", "k") == payload_of(STRIPE, seed=7)


class TestMultipartLifecycleOverRpc(TestMultipartLifecycle):
    """The same suite with parts uploaded over the ops RPC (subclassed,
    not parametrised, so the in-process ids stay as they are)."""

    STAGER = "rpc"


class TestMultipartCrashRecovery:
    """In-process SIGKILL analogue: abandon the journal, rebuild, continue."""

    def crash(self, broker):
        broker.durability.abandon()

    def test_inflight_upload_survives_crash_and_completes(self, tmp_path):
        b1 = Scalia(data_dir=str(tmp_path), stripe_size_bytes=STRIPE)
        part1 = payload_of(STRIPE + 10, seed=8)
        part2 = payload_of(STRIPE, seed=9)
        upload = b1.create_multipart_upload("c", "big.bin")
        b1.upload_part("c", "big.bin", upload.upload_id, 1, part1)
        b1.upload_part("c", "big.bin", upload.upload_id, 2, part2)
        self.crash(b1)

        b2 = Scalia(data_dir=str(tmp_path), stripe_size_bytes=STRIPE)
        uploads = b2.list_multipart_uploads("c")
        assert [u.upload_id for u in uploads] == [upload.upload_id]
        assert sorted(uploads[0].parts) == [1, 2]
        b2.complete_multipart_upload("c", "big.bin", upload.upload_id)
        assert b2.get("c", "big.bin") == part1 + part2
        report = b2.scrub()
        assert report.orphans_found == 0
        assert report.chunks_missing == 0 and report.chunks_corrupt == 0
        b2.close()

    def test_acknowledged_complete_survives_crash(self, tmp_path):
        b1 = Scalia(data_dir=str(tmp_path), stripe_size_bytes=STRIPE)
        data = payload_of(STRIPE * 2 + 50, seed=10)
        upload = b1.create_multipart_upload("c", "done.bin")
        b1.upload_part("c", "done.bin", upload.upload_id, 1, data)
        b1.complete_multipart_upload("c", "done.bin", upload.upload_id)
        self.crash(b1)

        b2 = Scalia(data_dir=str(tmp_path), stripe_size_bytes=STRIPE)
        assert b2.get("c", "done.bin") == data
        assert b2.list_multipart_uploads("c") == []
        report = b2.scrub()
        assert report.chunks_missing == 0 and report.chunks_corrupt == 0
        b2.close()

    def test_abort_after_recovery_leaves_no_orphans(self, tmp_path):
        b1 = Scalia(data_dir=str(tmp_path), stripe_size_bytes=STRIPE)
        upload = b1.create_multipart_upload("c", "never.bin")
        b1.upload_part("c", "never.bin", upload.upload_id, 1, payload_of(STRIPE, seed=11))
        self.crash(b1)

        b2 = Scalia(data_dir=str(tmp_path), stripe_size_bytes=STRIPE)
        b2.abort_multipart_upload("c", "never.bin", upload.upload_id)
        report = b2.scrub()
        assert report.orphans_found == 0
        assert stored_keys(b2) == set()
        b2.close()
