"""Object <-> chunk conversion with integrity checksums.

The engine stores one chunk per selected provider (Figure 1).  Each chunk
carries its shard index and a checksum so that corrupted provider responses
are detected before reassembly.  For the large cost simulations a
:class:`SyntheticChunk` carries only sizes — same control flow, no payload —
which is what keeps the month-long figure scenarios fast.
"""

from __future__ import annotations

import base64
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from repro.erasure.rs import CodeCache, ReedSolomon, shard_length


def _checksum(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@dataclass(frozen=True)
class Chunk:
    """A real erasure-coded chunk: shard index, payload and checksum."""

    index: int
    data: bytes
    checksum: str
    #: The Merkle tree of ``data``, filled lazily and only through
    #: :func:`repro.storage.merkle.chunk_tree` (this package sits below
    #: the storage one).  A pure function of immutable bytes, so it can
    #: be absent but never stale; not part of the chunk's value, not
    #: copied by ``replace`` and not shipped by :func:`chunk_to_doc`.
    tree: Optional[Any] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, index: int, data: bytes) -> "Chunk":
        """Create a chunk, computing its checksum."""
        return cls(index=index, data=data, checksum=_checksum(data))

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.data)

    def verify(self) -> bool:
        """Return ``True`` when the payload matches the stored checksum."""
        return _checksum(self.data) == self.checksum


@dataclass(frozen=True)
class SyntheticChunk:
    """A metadata-only chunk used by the cost simulations.

    It records the shard index and the byte size the real chunk would have,
    so provider meters account storage and bandwidth identically to the
    byte-level path without materializing payloads.
    """

    index: int
    size: int

    def verify(self) -> bool:
        """Synthetic chunks carry no payload; always valid."""
        return True


AnyChunk = Union[Chunk, SyntheticChunk]


def chunk_to_doc(chunk: AnyChunk) -> dict:
    """JSON-safe document for one chunk (the WAL replication stream).

    Real chunks carry their payload base64-encoded plus the checksum;
    synthetic chunks carry only the byte size, mirroring their in-memory
    shape.
    """
    if isinstance(chunk, SyntheticChunk):
        return {"i": chunk.index, "s": chunk.size}
    return {
        "i": chunk.index,
        "d": base64.b64encode(chunk.data).decode("ascii"),
        "h": chunk.checksum,
    }


def chunk_from_doc(doc: dict) -> AnyChunk:
    """Inverse of :func:`chunk_to_doc`."""
    if "d" in doc:
        return Chunk(
            index=int(doc["i"]),
            data=base64.b64decode(doc["d"]),
            checksum=str(doc["h"]),
        )
    return SyntheticChunk(index=int(doc["i"]), size=int(doc["s"]))


_DEFAULT_CACHE = CodeCache()


def chunk_length(data_len: int, m: int) -> int:
    """Byte size of each chunk for a ``data_len``-byte object at threshold m."""
    return shard_length(data_len, m)


def split_object(
    data: bytes,
    m: int,
    n: int,
    *,
    code_cache: Optional[CodeCache] = None,
) -> list[Chunk]:
    """Erasure-code ``data`` into ``n`` checksummed chunks (any m rebuild)."""
    cache = code_cache if code_cache is not None else _DEFAULT_CACHE
    code = cache.get(m, n)
    return [Chunk.build(i, shard) for i, shard in enumerate(code.encode(data))]


def split_synthetic(data_len: int, m: int, n: int) -> list[SyntheticChunk]:
    """Produce the synthetic chunk set for a ``data_len``-byte object."""
    size = chunk_length(data_len, m)
    return [SyntheticChunk(index=i, size=size) for i in range(n)]


def reassemble_object(
    chunks: Iterable[Chunk],
    m: int,
    n: int,
    data_len: int,
    *,
    code_cache: Optional[CodeCache] = None,
    verify: bool = True,
) -> bytes:
    """Rebuild the original object from any ``m`` chunks.

    Raises :class:`ValueError` if fewer than ``m`` valid chunks are supplied
    or a checksum mismatch is found (with ``verify=True``).
    """
    cache = code_cache if code_cache is not None else _DEFAULT_CACHE
    code = cache.get(m, n)
    shard_map: dict[int, bytes] = {}
    for chunk in chunks:
        if verify and not chunk.verify():
            raise ValueError(f"chunk {chunk.index} failed checksum verification")
        shard_map[chunk.index] = chunk.data
    return code.decode(shard_map, data_len)


def repair_chunk(
    chunks: Sequence[Chunk],
    target_index: int,
    m: int,
    n: int,
    data_len: int,
    *,
    code_cache: Optional[CodeCache] = None,
) -> Chunk:
    """Regenerate the chunk at ``target_index`` from ``m`` surviving chunks."""
    cache = code_cache if code_cache is not None else _DEFAULT_CACHE
    code = cache.get(m, n)
    shard_map = {c.index: c.data for c in chunks}
    shard = code.reconstruct_shard(shard_map, target_index, data_len)
    return Chunk.build(target_index, shard)


def total_stored_bytes(data_len: int, m: int, n: int) -> int:
    """Total bytes stored across providers for an object: ``n * ceil(len/m)``.

    This is the ``1/r`` storage blow-up of Section II-A1 made exact for the
    padded shard size.
    """
    return n * chunk_length(data_len, m)


def padded_overhead(data_len: int, m: int, n: int) -> float:
    """Actual storage overhead including padding, as a factor >= n/m."""
    if data_len == 0:
        return math.inf
    return total_stored_bytes(data_len, m, n) / data_len
