"""File-backed chunk store: append-only segments with checksummed records.

The durable :class:`ChunkStore` implementation.  Chunks are appended to
numbered segment files (``seg-00000001.log``, rolled at a size limit) as
self-describing records; an in-memory index maps chunk key to the record's
location and is rebuilt by scanning the segments on open — there is no
separate index file to keep consistent, so a SIGKILL can never leave index
and data disagreeing.  An entry also holds the Merkle tree of a chunk of
more than one leaf (memory only, nothing new on disk): handed over with
the chunk at ``put``, carried through compaction, rebuilt by one payload
read at the first challenge after a restart.

Record layout (big-endian)::

    0   magic   b"SG"                       2 bytes
    2   op      1=put 2=delete              1 byte
    3   kind    0=real 1=synthetic          1 byte
    4   index   chunk shard index           4 bytes
    8   keylen                              2 bytes
    10  size    chunk.size                  8 bytes
    18  paylen  payload bytes that follow   8 bytes
    26  key     utf-8                       keylen bytes
        payload                             paylen bytes
        sha1    SHA-1 of payload            20 bytes
        crc     CRC32C(bytes 2..26+key+sha1) 4 bytes

The CRC32C frames the record (header, key, payload digest); payload
integrity rides on the SHA-1, which hashlib computes at C speed, so the
pure-Python CRC only ever runs over ~60 bytes per record.  A torn record
at the tail of the newest segment (the only place a crash can tear) is
truncated on open; a record that fails its checksum anywhere else is kept
in the index but marked corrupt, so reads raise
:class:`ChunkCorruptionError` and the scrubber can route the chunk to
erasure repair.

Deletes are records too (the store is append-only); space comes back via
compaction, triggered when dead bytes pass a ratio of the store's size:
live records are rewritten into fresh segments and the old files removed.

Under ``sync="always"`` a put is fsynced before it returns, but a delete's
tombstone is only flushed: it becomes durable with the store's next fsync
(the next put, a segment roll, compaction, :meth:`FileChunkStore.flush` or
``close``).  A tombstone lost to power loss brings back a chunk no row
references any more — the state a crash between a journaled row and its
chunk deletes already leaves, and the scrubber's orphan sweep reclaims.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.erasure.striping import AnyChunk, Chunk, SyntheticChunk
from repro.storage import merkle
from repro.storage.backend import ChunkCorruptionError
from repro.storage.checksum import crc32c
from repro.storage.wal import fsync_directory

_MAGIC = b"SG"
_HEADER = struct.Struct(">BBIHQQ")  # op, kind, index, keylen, size, paylen
_HEADER_LEN = 2 + _HEADER.size  # magic + packed header = 26
_CRC = struct.Struct(">I")
_SHA_LEN = 20

_OP_PUT = 1
_OP_DELETE = 2
_KIND_REAL = 0
_KIND_SYNTHETIC = 1

#: Accepted ``sync`` policies: ``os`` flushes to the kernel after every
#: append (survives SIGKILL), ``always`` additionally fsyncs (survives
#: power loss), ``never`` flushes only on roll/close (fastest, test-only).
SYNC_MODES = ("os", "always", "never")


@dataclass
class _Ref:
    """Index entry: where one live chunk's record lives."""

    segment: int
    offset: int
    length: int
    kind: int
    index: int
    size: int
    corrupt: bool = False
    #: Kept Merkle tree of a real chunk of more than one leaf; ``None``
    #: until known (see :meth:`FileChunkStore.audit`).
    tree: Optional[merkle.MerkleTree] = None


def _encode_record(op: int, key: str, chunk: Optional[AnyChunk]) -> bytes:
    key_bytes = key.encode("utf-8")
    if chunk is None:  # delete
        kind, index, size, payload = 0, 0, 0, b""
    elif isinstance(chunk, SyntheticChunk):
        kind, index, size, payload = _KIND_SYNTHETIC, chunk.index, chunk.size, b""
    else:
        kind, index, size, payload = _KIND_REAL, chunk.index, chunk.size, chunk.data
    header = _HEADER.pack(op, kind, index, len(key_bytes), size, len(payload))
    sha = hashlib.sha1(payload).digest()
    crc = crc32c(header + key_bytes + sha)
    return b"".join((_MAGIC, header, key_bytes, payload, sha, _CRC.pack(crc)))


class FileChunkStore:
    """Durable :class:`~repro.storage.backend.ChunkStore` over segment files."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        segment_max_bytes: int = 64 * 1024 * 1024,
        compact_min_bytes: int = 1024 * 1024,
        compact_dead_ratio: float = 0.5,
        sync: str = "os",
    ) -> None:
        if sync not in SYNC_MODES:
            raise ValueError(f"unknown sync mode {sync!r}; want one of {SYNC_MODES}")
        if segment_max_bytes < 1024:
            raise ValueError("segment_max_bytes must be >= 1024")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.compact_min_bytes = compact_min_bytes
        self.compact_dead_ratio = compact_dead_ratio
        self.sync = sync
        self._index: Dict[str, _Ref] = {}
        self._stored_bytes = 0  # sum of live chunk.size
        self._live_bytes = 0  # bytes of live records on disk
        self._total_bytes = 0  # bytes of all segment files
        self._writer = None
        self._writer_segment = 0
        self._readers: Dict[int, object] = {}
        self._closed = False
        self.compactions = 0
        self.truncated_tail_bytes = 0
        self.corrupt_records = 0
        self._recover()

    # -- segment files -----------------------------------------------------

    def _segment_path(self, segment: int) -> Path:
        return self.root / f"seg-{segment:08d}.log"

    def _segment_ids(self) -> List[int]:
        ids = []
        for path in self.root.glob("seg-*.log"):
            try:
                ids.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(ids)

    def _reader(self, segment: int):
        handle = self._readers.get(segment)
        if handle is None:
            handle = open(self._segment_path(segment), "rb")
            self._readers[segment] = handle
        return handle

    def _open_writer(self, segment: int) -> None:
        if self._writer is not None:
            self._writer.close()
        self._writer_segment = segment
        path = self._segment_path(segment)
        existed = path.exists()
        self._writer = open(path, "ab")
        if self.sync == "always" and not existed:
            # Power-loss durability needs the directory entry on disk too,
            # or a whole freshly rolled segment of fsynced records could
            # vanish with the rename-less file creation.
            fsync_directory(self.root)

    def _roll_if_needed(self, incoming: int) -> None:
        if self._writer.tell() + incoming > self.segment_max_bytes and self._writer.tell() > 0:
            # The outgoing segment may end in tombstones no fsync covered.
            self._flush_policy()
            self._open_writer(self._writer_segment + 1)

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        segments = self._segment_ids()
        for position, segment in enumerate(segments):
            last = position == len(segments) - 1
            self._scan_segment(segment, truncate_tail=last)
        self._open_writer(segments[-1] if segments else 1)

    def _scan_segment(self, segment: int, *, truncate_tail: bool) -> None:
        path = self._segment_path(segment)
        data = path.read_bytes()
        pos = 0
        valid_end = 0
        while pos < len(data):
            record = self._parse_record(data, pos)
            if record is None:
                # Unframeable bytes at ``pos``.  A torn write can only sit
                # at the physical end of the file, so before declaring a
                # tail we try to resync on a later fully-valid record —
                # one flipped bit in a length field must not cost every
                # acknowledged record behind it.
                resumed = self._resync(data, pos + 1)
                if resumed is None:
                    break  # damage runs to EOF: genuinely a tail
                self.corrupt_records += 1  # the skipped gap
                pos = resumed
                continue
            length, op, kind, index, size, key, ok = record
            if not ok and pos + length >= len(data) and truncate_tail:
                # A bad checksum on the very last record is a torn write,
                # not corruption — drop it.
                break
            self._apply_scanned(segment, pos, length, op, kind, index, size, key, ok)
            pos += length
            valid_end = pos
        if valid_end < len(data):
            dropped = len(data) - valid_end
            if truncate_tail:
                with open(path, "ab") as fh:
                    fh.truncate(valid_end)
                self.truncated_tail_bytes += dropped
                self._total_bytes += valid_end
            else:
                # Mid-store damage we cannot reframe; keep the file (the
                # scrubber will repair whatever became unreadable).
                self.corrupt_records += 1
                self._total_bytes += len(data)
        else:
            self._total_bytes += len(data)

    def _resync(self, data: bytes, start: int) -> Optional[int]:
        """Next offset >= ``start`` holding a fully valid record, if any.

        Only a record whose CRC verifies is accepted as a resync point,
        so magic bytes occurring inside payloads cannot cause misframing.
        """
        pos = data.find(_MAGIC, start)
        while pos != -1:
            record = self._parse_record(data, pos)
            if record is not None and record[6]:
                return pos
            pos = data.find(_MAGIC, pos + 1)
        return None

    def _parse_record(
        self, data: bytes, pos: int
    ) -> Optional[Tuple[int, int, int, int, int, str, bool]]:
        """Frame one record at ``pos``: (length, op, kind, index, size, key, ok)."""
        if pos + _HEADER_LEN > len(data):
            return None
        if data[pos : pos + 2] != _MAGIC:
            return None
        op, kind, index, keylen, size, paylen = _HEADER.unpack_from(data, pos + 2)
        if op not in (_OP_PUT, _OP_DELETE) or keylen == 0:
            return None
        length = _HEADER_LEN + keylen + paylen + _SHA_LEN + _CRC.size
        if pos + length > len(data):
            return None
        key_start = pos + _HEADER_LEN
        pay_start = key_start + keylen
        sha_start = pay_start + paylen
        crc_start = sha_start + _SHA_LEN
        try:
            key = data[key_start:pay_start].decode("utf-8")
        except UnicodeDecodeError:
            return None
        stored_sha = data[sha_start:crc_start]
        (stored_crc,) = _CRC.unpack_from(data, crc_start)
        crc = crc32c(data[pos + 2 : pay_start] + stored_sha)
        ok = crc == stored_crc and hashlib.sha1(data[pay_start:sha_start]).digest() == stored_sha
        return length, op, kind, index, size, key, ok

    def _apply_scanned(
        self,
        segment: int,
        offset: int,
        length: int,
        op: int,
        kind: int,
        index: int,
        size: int,
        key: str,
        ok: bool,
    ) -> None:
        old = self._index.get(key)
        if old is not None:
            self._drop_live(old)
        if op == _OP_DELETE:
            self._index.pop(key, None)
            if not ok:
                self.corrupt_records += 1
            return
        ref = _Ref(segment, offset, length, kind, index, size, corrupt=not ok)
        if not ok:
            self.corrupt_records += 1
        self._index[key] = ref
        self._live_bytes += length
        self._stored_bytes += size

    def _drop_live(self, ref: _Ref) -> None:
        self._live_bytes -= ref.length
        self._stored_bytes -= ref.size

    # -- ChunkStore protocol ----------------------------------------------

    def put(self, key: str, chunk: AnyChunk) -> None:
        self._check_open()
        # The record format frames keys with a 16-bit length and treats
        # keylen == 0 as unframeable (recovery truncates from there); a
        # key the format cannot round-trip must be refused up front, or
        # every record appended after it would be lost on the next open.
        key_len = len(key.encode("utf-8"))
        if not 1 <= key_len <= 0xFFFF:
            raise ValueError(
                f"chunk key must be 1..65535 utf-8 bytes, got {key_len}"
            )
        record = _encode_record(_OP_PUT, key, chunk)
        self._roll_if_needed(len(record))
        offset = self._writer.tell()
        self._writer.write(record)
        self._flush_policy()
        old = self._index.get(key)
        if old is not None:
            self._drop_live(old)
        kind = _KIND_SYNTHETIC if isinstance(chunk, SyntheticChunk) else _KIND_REAL
        self._index[key] = _Ref(
            self._writer_segment, offset, len(record), kind, chunk.index, chunk.size,
            tree=getattr(chunk, "tree", None),
        )
        self._live_bytes += len(record)
        self._stored_bytes += chunk.size
        self._total_bytes += len(record)
        self._maybe_compact()

    def get(self, key: str) -> AnyChunk:
        self._check_open()
        ref = self._index[key]
        if ref.corrupt:
            raise ChunkCorruptionError(f"chunk {key!r} failed its stored checksum", key)
        data = self._read_record(ref)
        parsed = self._parse_record(data, 0)
        if parsed is None or not parsed[6]:
            ref.corrupt = True
            self.corrupt_records += 1
            raise ChunkCorruptionError(f"chunk {key!r} failed its stored checksum", key)
        if ref.kind == _KIND_SYNTHETIC:
            return SyntheticChunk(index=ref.index, size=ref.size)
        payload = data[_HEADER_LEN + len(key.encode("utf-8")) : -(_SHA_LEN + _CRC.size)]
        return Chunk(ref.index, payload)

    def delete(self, key: str) -> None:
        self._check_open()
        ref = self._index.pop(key)  # KeyError propagates for absent keys
        record = _encode_record(_OP_DELETE, key, None)
        self._roll_if_needed(len(record))
        self._writer.write(record)
        if self.sync != "never":
            self._writer.flush()  # fsynced by the next put, roll or flush
        self._drop_live(ref)
        self._total_bytes += len(record)
        self._maybe_compact()

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> List[str]:
        return list(self._index)

    def size_of(self, key: str) -> Optional[int]:
        ref = self._index.get(key)
        return None if ref is None else ref.size

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes

    def audit(self, key: str, leaf_indices: Sequence[int]) -> Dict:
        """Possession proof from *ranged* reads of the stored payload.

        Seeks to the asked leaves and reads only them; their sibling
        paths come out of the tree kept on the index entry.  An entry
        without one (a chunk that arrived without its tree, or any chunk
        after a restart) reads its payload once, here, and keeps the
        tree from then on.  A chunk of one leaf has no path and hashes
        nothing.

        Deliberately skips the record's SHA-1/CRC gate: the leaves are
        the payload bytes exactly as they sit on disk, so silent rot or
        adversarial tampering surfaces as a root mismatch at the broker
        instead of a trusted local self-check — the provider cannot
        grade its own homework.  Rot in a leaf that was not asked for is
        not this op's to notice (it never read it): the auditor's
        sampling and the scrubber's full read are.  Synthetic records
        answer with a shape-only proof of the recorded size.
        """
        self._check_open()
        ref = self._index[key]  # KeyError propagates for absent keys
        if ref.kind == _KIND_SYNTHETIC:
            return merkle.synthetic_proof(ref.size, leaf_indices)
        payload_offset, payload_len = self._payload_span(key, ref)
        if ref.segment == self._writer_segment:
            self._writer.flush()
        reader = self._reader(ref.segment)
        if ref.tree is None and payload_len > merkle.LEAF_SIZE:
            reader.seek(payload_offset)
            payload = reader.read(payload_len)
            ref.tree = merkle.build_tree(payload)
            read_leaf = merkle.leaf_slicer(payload)
        else:

            def read_leaf(index: int) -> bytes:
                reader.seek(payload_offset + index * merkle.LEAF_SIZE)
                return reader.read(merkle.leaf_length(payload_len, index))

        return merkle.assemble_proof(payload_len, ref.tree, leaf_indices, read_leaf)

    def flush(self) -> None:
        if self._writer is not None and not self._closed:
            self._writer.flush()
            os.fsync(self._writer.fileno())

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._writer.close()
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()

    def stats(self) -> Dict[str, object]:
        return {
            "type": "segment",
            "chunks": len(self._index),
            "stored_bytes": self._stored_bytes,
            "merkle_bytes": merkle.kept_bytes(ref.tree for ref in self._index.values()),
            "segments": len(self._segment_ids()),
            "total_bytes": self._total_bytes,
            "live_bytes": self._live_bytes,
            "dead_bytes": self._total_bytes - self._live_bytes,
            "compactions": self.compactions,
            "corrupt_records": self.corrupt_records,
            "truncated_tail_bytes": self.truncated_tail_bytes,
        }

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        """Rewrite live records into fresh segments; returns bytes reclaimed.

        Records marked corrupt are dropped (they cannot be trusted to copy);
        their keys read as missing afterwards, which is exactly the state
        the scrubber repairs from the other erasure chunks.
        """
        self._check_open()
        before = self._total_bytes
        old_segments = self._segment_ids()
        start = (old_segments[-1] if old_segments else 0) + 1
        ordered = sorted(self._index.items(), key=lambda kv: (kv[1].segment, kv[1].offset))
        new_index: Dict[str, _Ref] = {}
        self._open_writer(start)
        live = 0
        for key, ref in ordered:
            if ref.corrupt:
                continue
            record = self._read_record(ref)
            self._roll_if_needed(len(record))
            offset = self._writer.tell()
            self._writer.write(record)
            new_index[key] = _Ref(
                self._writer_segment, offset, len(record), ref.kind, ref.index, ref.size,
                tree=ref.tree,
            )
            live += len(record)
        self._writer.flush()
        if self.sync == "always":
            os.fsync(self._writer.fileno())
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()
        for segment in old_segments:
            self._segment_path(segment).unlink(missing_ok=True)
        if self.sync == "always":
            fsync_directory(self.root)  # make the unlinks + new files durable
        dropped_sizes = sum(
            ref.size for key, ref in self._index.items() if key not in new_index
        )
        self._index = new_index
        self._stored_bytes -= dropped_sizes
        self._live_bytes = live
        self._total_bytes = live
        self.compactions += 1
        return before - live

    def _maybe_compact(self) -> None:
        dead = self._total_bytes - self._live_bytes
        if self._total_bytes >= self.compact_min_bytes and dead > self.compact_dead_ratio * self._total_bytes:
            self.compact()

    # -- internals ---------------------------------------------------------

    def _read_record(self, ref: _Ref) -> bytes:
        if ref.segment == self._writer_segment:
            self._writer.flush()
        reader = self._reader(ref.segment)
        reader.seek(ref.offset)
        return reader.read(ref.length)

    @staticmethod
    def _payload_span(key: str, ref: _Ref) -> Tuple[int, int]:
        """(offset in its segment, length) of a record's payload."""
        key_len = len(key.encode("utf-8"))
        return (
            ref.offset + _HEADER_LEN + key_len,
            ref.length - _HEADER_LEN - key_len - _SHA_LEN - _CRC.size,
        )

    def _flush_policy(self) -> None:
        if self.sync == "never":
            return
        self._writer.flush()
        if self.sync == "always":
            os.fsync(self._writer.fileno())

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("chunk store is closed")

    # -- test/scrub support ------------------------------------------------

    def locate(self, key: str) -> Tuple[Path, int, int]:
        """(segment path, payload offset, payload length) of a live record.

        Exposed for corruption-injection tests and forensic tooling.
        """
        ref = self._index[key]
        return (self._segment_path(ref.segment), *self._payload_span(key, ref))
