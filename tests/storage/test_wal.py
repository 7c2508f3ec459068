"""The journal + snapshot primitives: append/replay, torn tails, atomicity."""

import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.storage.wal import Journal, _canonical, _checksum, load_snapshot, write_snapshot

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
records = st.dictionaries(st.text(), json_values, max_size=6)


def wrapper_line(record):
    """The reference framing of a WAL line: json.dumps of the whole
    ``{"c": checksum, "r": record}`` wrapper."""
    body = _canonical(record)
    return json.dumps(
        {"c": _checksum(body), "r": record}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


class CountingFsync:
    def __init__(self, real):
        self.real, self.calls = real, 0

    def __call__(self, fd):
        self.calls += 1
        return self.real(fd)


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        j = Journal(tmp_path / "wal.log")
        records = [{"t": "md", "n": i, "payload": ["a", i]} for i in range(5)]
        for r in records:
            j.append(r)
        assert list(j.replay()) == records
        j.close()

    def test_replay_after_reopen(self, tmp_path):
        j1 = Journal(tmp_path / "wal.log")
        j1.append({"x": 1})
        # no close — SIGKILL analogue; sync="os" flushed the line already
        j2 = Journal(tmp_path / "wal.log")
        # Recovery replays before appending (the DurabilityManager boot
        # order); replay also re-seeds the monotonic sequence counter,
        # so post-recovery appends continue it instead of reusing seqs.
        assert list(j2.replay()) == [{"seq": 1, "x": 1}]
        j2.append({"x": 2})
        assert list(j2.replay()) == [{"seq": 1, "x": 1}, {"seq": 2, "x": 2}]
        j2.close()

    def test_torn_tail_line_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        j = Journal(path)
        j.append({"good": 1})
        j.append({"good": 2})
        j.close()
        with open(path, "ab") as fh:
            fh.write(b'{"c":123,"r":{"torn...')
        j2 = Journal(path)
        assert list(j2.replay()) == [{"good": 1, "seq": 1}, {"good": 2, "seq": 2}]
        j2.close()

    def test_interior_checksum_mismatch_skips_only_that_record(self, tmp_path):
        path = tmp_path / "wal.log"
        j = Journal(path)
        j.append({"n": 1})
        j.append({"n": 2})
        j.append({"n": 3})
        j.close()
        lines = path.read_bytes().splitlines()
        doctored = json.loads(lines[1])
        doctored["r"]["n"] = 99  # change the record, keep the stale crc
        lines[1] = json.dumps(doctored, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        j2 = Journal(path)
        # bit rot of one interior record must not drop the acknowledged
        # records behind it; only the damaged line is lost (and counted)
        assert list(j2.replay()) == [{"n": 1, "seq": 1}, {"n": 3, "seq": 3}]
        assert j2.last_replay_damaged == 1
        j2.close()

    def test_final_line_damage_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        j = Journal(path)
        j.append({"n": 1})
        j.close()
        with open(path, "ab") as fh:
            fh.write(b'{"c":0,"r":{"half')  # crash mid-append
        j2 = Journal(path)
        assert list(j2.replay()) == [{"n": 1, "seq": 1}]
        assert j2.last_replay_damaged == 0
        j2.close()

    def test_truncate_empties_the_log(self, tmp_path):
        j = Journal(tmp_path / "wal.log")
        j.append({"n": 1})
        j.truncate()
        assert list(j.replay()) == []
        # The sequence keeps climbing across a truncation (snapshot):
        # seqs are cluster-wide identities, never recycled.
        j.append({"n": 2})
        assert list(j.replay()) == [{"n": 2, "seq": 2}]
        j.close()


class TestLineFormat:
    @settings(max_examples=200, deadline=None)
    @given(record=records)
    def test_line_is_the_wrapper_serialized(self, tmp_path_factory, record):
        path = tmp_path_factory.mktemp("wal") / "wal.log"
        journal = Journal(path)
        journal.write(record)  # stamps record["seq"] in place
        journal.close()
        assert path.read_bytes() == wrapper_line(record)

    def test_a_log_in_the_wrapper_form_replays_and_extends(self, tmp_path):
        path = tmp_path / "wal.log"
        old = [
            {"t": "md", "dc": "dc1", "row": "r", "v": {"uuid": "u", "value": None}, "seq": 1},
            {"t": "pend+", "p": "S3(l)", "k": "sk:0", "seq": 2, "rt": 3},
        ]
        path.write_bytes(b"".join(wrapper_line(record) for record in old))
        journal = Journal(path)
        assert list(journal.replay()) == old
        journal.append({"t": "noop"})
        journal.close()
        assert path.read_bytes() == b"".join(
            wrapper_line(record) for record in [*old, {"t": "noop", "seq": 3}]
        )


class TestSyncBarrier:
    def test_writes_share_one_fsync(self, tmp_path, monkeypatch):
        fsync = CountingFsync(os.fsync)
        journal = Journal(tmp_path / "wal.log", sync="always")
        monkeypatch.setattr(os, "fsync", fsync)
        seqs = [journal.write({"n": i}) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5] and fsync.calls == 0
        assert journal.synced_seq == 0
        journal.sync_through(3)
        assert fsync.calls == 1 and journal.synced_seq == 5
        journal.sync_through(5)  # already covered
        assert fsync.calls == 1
        journal.close()

    def test_append_is_write_plus_sync(self, tmp_path, monkeypatch):
        fsync = CountingFsync(os.fsync)
        journal = Journal(tmp_path / "wal.log", sync="always")
        monkeypatch.setattr(os, "fsync", fsync)
        assert journal.append({"n": 1}) == 1
        assert fsync.calls == 1 and journal.synced_seq == 1
        journal.close()

    def test_truncate_counts_as_a_sync(self, tmp_path, monkeypatch):
        journal = Journal(tmp_path / "wal.log", sync="always")
        journal.write({"n": 1})
        journal.write({"n": 2})
        journal.truncate()
        fsync = CountingFsync(os.fsync)
        monkeypatch.setattr(os, "fsync", fsync)
        journal.sync_through(2)
        assert fsync.calls == 0 and journal.synced_seq == 2
        journal.close()

    def test_without_always_a_flush_is_the_barrier(self, tmp_path, monkeypatch):
        fsync = CountingFsync(os.fsync)
        journal = Journal(tmp_path / "wal.log", sync="os")
        monkeypatch.setattr(os, "fsync", fsync)
        journal.append({"n": 1})
        assert fsync.calls == 0 and journal.synced_seq == 1
        journal.close()

    def test_fsync_histogram_counts_barriers_or_flushes(self, tmp_path):
        for sync, expected in (("always", 1), ("os", 3)):
            metrics = MetricsRegistry()
            journal = Journal(tmp_path / f"{sync}.log", sync=sync, metrics=metrics)
            for i in range(3):
                journal.write({"n": i})
            journal.sync_through(3)
            (sample,) = metrics.render_json()["metrics"]["scalia_wal_fsync_seconds"]["samples"]
            assert sample["count"] == expected, sync
            journal.close()


class TestSnapshot:
    def test_write_load_roundtrip(self, tmp_path):
        state = {"period": 7, "rows": {"k": [1, 2, 3]}, "pi": 3.25}
        write_snapshot(tmp_path / "snap.json", state)
        assert load_snapshot(tmp_path / "snap.json") == state

    def test_missing_file_is_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.json") is None

    def test_damaged_snapshot_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"a": 1})
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0xFF
        path.write_bytes(bytes(body))
        assert load_snapshot(path) is None

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"v": 1})
        write_snapshot(path, {"v": 2})
        assert load_snapshot(path) == {"v": 2}
        assert not path.with_suffix(".tmp").exists()
