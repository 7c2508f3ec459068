"""The WAL's sync barrier runs outside the metadata mutex and group-commits.

Under ``storage_sync="always"`` a commit's rows are written under the
metadata mutex and fsynced after it is released, once per batch: a read
of another key never waits behind a WAL fsync, and commits that land
while a sync is in flight share the next one.
"""

import os
import threading
import time

from repro.core.broker import Scalia
from repro.util.ids import object_row_key

BUCKET = "bkt"


class HeldWalFsyncs:
    """``os.fsync`` stand-in that counts one journal's fsyncs and holds
    them until ``release`` is set."""

    def __init__(self, journal, real):
        self.journal, self.real = journal, real
        self.count = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, fd):
        if os.path.samestat(os.fstat(fd), os.stat(self.journal.path)):
            self.count += 1
            self.entered.set()
            self.release.wait(10.0)
        return self.real(fd)


def keys_on_distinct_stripes(broker, count):
    """``count`` keys whose object rows hash to pairwise distinct stripes."""
    objects = broker.cluster.locks.objects
    keys, stripes = [], set()
    for i in range(1000):
        key = f"key-{i}"
        stripe = id(objects.stripe_of(object_row_key(BUCKET, key)))
        if stripe not in stripes:
            keys.append(key)
            stripes.add(stripe)
        if len(keys) == count:
            return keys
    raise AssertionError("not enough stripes")


def held_broker(tmp_path, monkeypatch):
    broker = Scalia(data_dir=str(tmp_path), storage_sync="always")
    fsyncs = HeldWalFsyncs(broker.durability.journal, os.fsync)
    monkeypatch.setattr(os, "fsync", fsyncs)
    return broker, fsyncs


class TestBarrierOutsideTheMutex:
    def test_a_get_completes_while_a_wal_fsync_is_held(self, tmp_path, monkeypatch):
        broker, fsyncs = held_broker(tmp_path, monkeypatch)
        held, other = keys_on_distinct_stripes(broker, 2)
        fsyncs.release.set()
        broker.put(BUCKET, other, b"o" * 64)
        fsyncs.release.clear()
        fsyncs.entered.clear()
        writer = threading.Thread(target=broker.put, args=(BUCKET, held, b"h" * 64))
        writer.start()
        read = {}
        try:
            assert fsyncs.entered.wait(10.0), "the put never reached its WAL fsync"
            reader = threading.Thread(
                target=lambda: read.setdefault("data", broker.get(BUCKET, other)),
                daemon=True,
            )
            reader.start()
            reader.join(5.0)
            blocked = reader.is_alive()
        finally:
            fsyncs.release.set()
            writer.join(10.0)
        assert not blocked, "a get of another key waited behind the WAL fsync"
        assert read["data"] == b"o" * 64
        assert broker.get(BUCKET, held) == b"h" * 64
        broker.close()

    def test_concurrent_commits_share_a_wal_fsync(self, tmp_path, monkeypatch):
        broker, fsyncs = held_broker(tmp_path, monkeypatch)
        first, *others = keys_on_distinct_stripes(broker, 3)
        journal = broker.durability.journal
        base_seq, base_fsyncs = journal.last_seq, fsyncs.count
        threads = [threading.Thread(target=broker.put, args=(BUCKET, first, b"1" * 64))]
        threads[0].start()
        try:
            assert fsyncs.entered.wait(10.0)
            # Two more commits land their rows while the first one's sync
            # is in flight; they wait for it, then one fsync covers both.
            for key in others:
                thread = threading.Thread(target=broker.put, args=(BUCKET, key, b"2" * 64))
                thread.start()
                threads.append(thread)
            for _ in range(500):
                if journal.last_seq - base_seq == 6:
                    break
                time.sleep(0.01)
            assert journal.last_seq - base_seq == 6, "the commits did not write their rows"
        finally:
            fsyncs.release.set()
            for thread in threads:
                thread.join(10.0)
        records = journal.last_seq - base_seq
        assert fsyncs.count - base_fsyncs == 2 < records
        assert journal.synced_seq == journal.last_seq
        broker.close()
