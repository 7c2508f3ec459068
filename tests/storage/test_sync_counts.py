"""What a durable PUT syncs: one WAL fsync per commit, one per chunk file.

Under ``storage_sync="always"`` an overwrite PUT of an ``m:1`` object
journals two rows (object, index) under one barrier, fsyncs each new
chunk before the rows are written, and only flushes the tombstones of the
replaced version's chunks: they ride the store's next fsync.
"""

import collections
import os

import pytest

from repro.core.broker import Scalia

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="maps an fsynced fd to its path via /proc"
)


class FsyncLog:
    """``os.fsync`` stand-in: per-path fsync counts and last synced length."""

    def __init__(self, real):
        self.real = real
        self.counts = collections.Counter()
        self.synced = {}

    def __call__(self, fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        if os.path.isfile(path):
            self.counts[path] += 1
            self.synced[path] = os.fstat(fd).st_size
        return self.real(fd)


def metric(broker, family, field):
    (sample,) = broker.metrics.render_json()["metrics"][family]["samples"]
    return sample[field]


@pytest.fixture()
def durable(tmp_path, monkeypatch):
    log = FsyncLog(os.fsync)
    monkeypatch.setattr(os, "fsync", log)
    broker = Scalia(data_dir=str(tmp_path), storage_sync="always")
    yield broker, log
    broker.close()


def provider_files(broker, meta):
    return {
        name: next((broker.durability.data_dir / "chunks").glob(f"{name}/seg-*.log"))
        for name in meta.placement.providers
    }


class TestOverwritePut:
    def test_one_wal_fsync_and_one_per_placement_provider(self, durable):
        broker, log = durable
        first = broker.put("bkt", "k", b"a" * 1024)
        assert first.m == 1 and len(first.placement.providers) == 2
        wal = str(broker.durability.journal.path)
        appends = metric(broker, "scalia_wal_appends_total", "value")
        fsync_samples = metric(broker, "scalia_wal_fsync_seconds", "count")
        log.counts.clear()

        second = broker.put("bkt", "k", b"b" * 1024)

        assert second.placement.providers == first.placement.providers
        assert log.counts[wal] == 1  # object row + index row, one barrier
        for name, path in provider_files(broker, second).items():
            # The new chunk's put; the old chunk's tombstone is not synced.
            assert log.counts[str(path)] == 1, name
        assert sum(log.counts.values()) == 1 + len(second.placement.providers)
        assert metric(broker, "scalia_wal_appends_total", "value") - appends == 2
        assert metric(broker, "scalia_wal_fsync_seconds", "count") - fsync_samples == 1

    def test_a_tombstone_rides_the_next_put(self, durable):
        broker, log = durable
        broker.put("bkt", "k", b"a" * 1024)
        meta = broker.put("bkt", "k", b"b" * 1024)  # tombstones the first
        files = provider_files(broker, meta)
        unsynced = {name: path.stat().st_size - log.synced[str(path)] for name, path in files.items()}
        assert all(tail > 0 for tail in unsynced.values()), unsynced
        broker.put("bkt", "other", b"c" * 1024)
        for name, path in files.items():
            assert log.synced[str(path)] == path.stat().st_size, name


class TestLostTombstone:
    def test_power_loss_brings_back_only_the_superseded_chunks(self, tmp_path, monkeypatch):
        log = FsyncLog(os.fsync)
        monkeypatch.setattr(os, "fsync", log)
        broker = Scalia(data_dir=str(tmp_path), storage_sync="always")
        old = broker.put("bkt", "k", b"old" * 100)
        new = broker.put("bkt", "k", b"new" * 100)
        lengths = dict(log.synced)
        broker.durability.abandon()
        for path in [tmp_path / "meta" / "wal.log", *tmp_path.glob("chunks/*/seg-*.log")]:
            os.truncate(path, lengths.get(str(path), 0))

        recovered = Scalia(data_dir=str(tmp_path), storage_sync="always")
        try:
            assert recovered.get("bkt", "k") == b"new" * 100
            stored = {
                chunk_key.split(":", 1)[0]
                for provider in recovered.registry.providers()
                for chunk_key in provider.snapshot_keys()
            }
            assert stored == {old.skey, new.skey}
            report = recovered.scrub(repair=True)
            assert report.chunks_missing == report.chunks_corrupt == 0
            assert report.orphans_found == len(old.placement.providers)
            assert recovered.scrub(repair=True).orphans_found == 0
        finally:
            recovered.close()
