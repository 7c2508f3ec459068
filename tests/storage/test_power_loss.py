"""Power loss under ``storage_sync="always"``: what an fsync covered survives.

The harness wraps ``os.fsync`` to record the length each file had when it
was last synced.  After a seeded mix of puts, overwrites, deletes, a
multipart upload and an abort, it simulates a power loss by cutting every
WAL and segment file back to that length — whatever was only flushed to
the kernel is gone — and recovers a new broker on the directory.

What must hold: every acknowledged write reads back byte-exact at the
version it was acknowledged at; no row references a missing or corrupt
chunk; the only debris is chunks of superseded versions (a delete
tombstone may be lost, never a row); and one repairing scrub sweeps that
debris for good.

``CHAOS_MAX_EXAMPLES`` raises the example budget (the ``chaos-stress``
CI job runs 150).
"""

import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broker import Scalia

MAX_EXAMPLES = int(os.environ.get("CHAOS_MAX_EXAMPLES", "20"))
BUCKET = "bkt"
KEYS = [f"k{i}" for i in range(5)]

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="maps an fsynced fd to its path via /proc"
)


class SyncRecorder:
    """``os.fsync`` stand-in: remembers each regular file's synced length."""

    def __init__(self, real):
        self.real = real
        self.synced = {}

    def __call__(self, fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        if os.path.isfile(path):
            self.synced[path] = os.fstat(fd).st_size
        return self.real(fd)


def journal_and_segment_files(data_dir: Path):
    yield data_dir / "meta" / "wal.log"
    yield from (data_dir / "chunks").glob("*/seg-*.log")


def power_loss(broker: Scalia, data_dir: Path, synced: dict) -> None:
    """Drop the broker without closing anything, then cut every WAL and
    segment file to its last synced length."""
    lengths = dict(synced)  # what was on disk when the power went
    broker.durability.abandon()
    for path in journal_and_segment_files(data_dir):
        keep = lengths.get(str(path), 0)
        if path.stat().st_size > keep:
            os.truncate(path, keep)


def payload(rng: random.Random) -> bytes:
    return rng.randbytes(rng.choice((0, 1, 300, 1024, 5000)))


def run_mix(broker: Scalia, rng: random.Random, steps: int):
    """Apply a seeded op mix; returns (acked, superseded skeys, open uploads).

    ``acked`` maps each touched key to the bytes and skey of its last
    acknowledged version, or ``None`` once deleted.
    """
    acked = {}
    superseded = set()

    def retire(key):
        previous = acked.get(key)
        if previous is not None:
            superseded.add(previous[1])

    for _ in range(steps):
        key = rng.choice(KEYS)
        roll = rng.random()
        if roll < 0.55:
            data = payload(rng)
            meta = broker.put(BUCKET, key, data)
            retire(key)
            acked[key] = (data, meta.skey)
        elif roll < 0.75:
            if acked.get(key) is not None:
                broker.delete(BUCKET, key)
                retire(key)
                acked[key] = None
        elif roll < 0.9:
            state = broker.create_multipart_upload(BUCKET, key)
            parts = [payload(rng) for _ in range(rng.randint(1, 3))]
            for number, part in enumerate(parts, start=1):
                broker.upload_part(BUCKET, key, state.upload_id, number, part)
            meta = broker.complete_multipart_upload(BUCKET, key, state.upload_id)
            retire(key)
            acked[key] = (b"".join(parts), meta.skey)
        else:
            state = broker.create_multipart_upload(BUCKET, key)
            broker.upload_part(BUCKET, key, state.upload_id, 1, payload(rng))
            broker.abort_multipart_upload(BUCKET, key, state.upload_id)
            superseded.add(state.skey)
    # One upload left open at the power loss: its staged part is live.
    state = broker.create_multipart_upload(BUCKET, "open")
    broker.upload_part(BUCKET, "open", state.upload_id, 1, payload(rng))
    return acked, superseded, {state.skey}


def check_recovered(broker: Scalia, acked, superseded, open_skeys) -> None:
    for key, version in acked.items():
        meta = broker.head(BUCKET, key)
        if version is None:
            assert meta is None, f"deleted {key} came back"
            continue
        data, skey = version
        assert meta is not None, f"acknowledged {key} lost"
        assert meta.skey == skey, f"{key} recovered at another version"
        assert broker.get(BUCKET, key) == data
    live = {version[1] for version in acked.values() if version is not None}
    assert {s.skey for s in broker.list_multipart_uploads(BUCKET)} == open_skeys

    report = broker.scrub(repair=False)
    assert report.chunks_missing == 0 and report.chunks_corrupt == 0, report.problems
    debris = {
        chunk_key.split(":", 1)[0]
        for provider in broker.registry.providers()
        for chunk_key in provider.snapshot_keys()
    } - live - open_skeys
    assert debris <= superseded, f"debris of no superseded version: {debris - superseded}"

    broker.scrub(repair=True)
    assert broker.scrub(repair=True).orphans_found == 0


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30))
def test_power_loss_keeps_every_acknowledged_write(monkeypatch, seed, steps):
    recorder = SyncRecorder(os.fsync)
    with tempfile.TemporaryDirectory() as tmp, monkeypatch.context() as patch:
        patch.setattr(os, "fsync", recorder)
        data_dir = Path(tmp)
        broker = Scalia(data_dir=str(data_dir), storage_sync="always")
        acked, superseded, open_skeys = run_mix(broker, random.Random(seed), steps)
        power_loss(broker, data_dir, recorder.synced)
        recovered = Scalia(data_dir=str(data_dir), storage_sync="always")
        try:
            check_recovered(recovered, acked, superseded, open_skeys)
        finally:
            recovered.close()

