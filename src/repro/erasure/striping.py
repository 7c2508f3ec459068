"""Object <-> chunk conversion.

The engine stores one chunk per selected provider (Figure 1).  Each chunk
carries its shard index and payload; its one integrity value is the Merkle
root the object's row anchors (:mod:`repro.storage.merkle`), which every
read checks before a chunk is decoded.  For the large cost simulations a
:class:`SyntheticChunk` carries only sizes — same control flow, no payload —
which is what keeps the month-long figure scenarios fast.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

from repro.erasure.rs import CodeCache, ReedSolomon, shard_length


@dataclass(frozen=True)
class Chunk:
    """A real erasure-coded chunk: shard index and payload."""

    index: int
    data: bytes
    #: The Merkle tree of ``data``, filled lazily and only through
    #: :func:`repro.storage.merkle.chunk_tree` (this package sits below
    #: the storage one).  A pure function of immutable bytes, so it can
    #: be absent but never stale; not part of the chunk's value, not
    #: copied by ``replace`` and not shipped by :func:`chunk_to_doc`.
    tree: Optional[Any] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, index: int, data: bytes) -> "Chunk":
        """Create a chunk (the plain constructor, kept by name)."""
        return cls(index=index, data=data)

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.data)


@dataclass(frozen=True)
class SyntheticChunk:
    """A metadata-only chunk used by the cost simulations.

    It records the shard index and the byte size the real chunk would have,
    so provider meters account storage and bandwidth identically to the
    byte-level path without materializing payloads.
    """

    index: int
    size: int


AnyChunk = Union[Chunk, SyntheticChunk]


def chunk_to_doc(chunk: AnyChunk) -> dict:
    """JSON-safe document for one chunk (the WAL replication stream).

    Real chunks carry their payload base64-encoded; synthetic chunks
    carry only the byte size, mirroring their in-memory shape.
    """
    if isinstance(chunk, SyntheticChunk):
        return {"i": chunk.index, "s": chunk.size}
    return {
        "i": chunk.index,
        "d": base64.b64encode(chunk.data).decode("ascii"),
    }


def chunk_from_doc(doc: dict) -> AnyChunk:
    """Inverse of :func:`chunk_to_doc`; the ``"h"`` (SHA-1) that older
    journals carry beside the payload is ignored."""
    if "d" in doc:
        return Chunk(index=int(doc["i"]), data=base64.b64decode(doc["d"]))
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
    """Erasure-code ``data`` into ``n`` chunks (any m rebuild)."""
    cache = code_cache if code_cache is not None else _DEFAULT_CACHE
    code = cache.get(m, n)
    return [Chunk(i, shard) for i, shard in enumerate(code.encode(data))]


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
) -> bytes:
    """Rebuild the original object from any ``m`` chunks.

    Raises :class:`ValueError` if fewer than ``m`` chunks are supplied.
    The chunks are trusted: a read checks each against its anchored root
    when it fetches it.
    """
    cache = code_cache if code_cache is not None else _DEFAULT_CACHE
    code = cache.get(m, n)
    return code.decode({chunk.index: chunk.data for chunk in chunks}, data_len)


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
    return Chunk(target_index, code.reconstruct_shard(shard_map, target_index, data_len))


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
