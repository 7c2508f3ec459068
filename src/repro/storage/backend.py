"""Chunk-store backends: the provider's pluggable data plane.

A :class:`SimulatedProvider` historically kept its chunks in a Python
dict, which meant a process restart lost every byte the broker had
acknowledged.  The dict now lives here as :class:`MemoryChunkStore`, one
implementation of the :class:`ChunkStore` protocol; the durable
alternative is the append-only segment store in
:mod:`repro.storage.segment`.  Providers only ever talk to the protocol,
so simulations keep the zero-overhead dict while ``repro serve
--data-dir`` swaps in files without the provider noticing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable

from repro.erasure.striping import AnyChunk
from repro.storage import merkle


class ChunkCorruptionError(RuntimeError):
    """A stored chunk's on-disk record failed its integrity check."""

    def __init__(self, message: str, key: Optional[str] = None) -> None:
        super().__init__(message)
        self.key = key


#: Chunk health states of a scrub (:mod:`repro.storage.scrubber`).
VERIFY_OK = "ok"
VERIFY_MISSING = "missing"
VERIFY_CORRUPT = "corrupt"


@runtime_checkable
class ChunkStore(Protocol):
    """What a provider needs from its data plane.

    ``get``/``delete`` raise :class:`KeyError` for absent keys and
    :class:`ChunkCorruptionError` when the stored record fails its
    integrity check; the provider translates both for the engine.
    """

    def put(self, key: str, chunk: AnyChunk) -> None: ...

    def get(self, key: str) -> AnyChunk: ...

    def delete(self, key: str) -> None: ...

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...

    def keys(self) -> List[str]: ...

    def size_of(self, key: str) -> Optional[int]:
        """Stored payload size of ``key`` without reading it, or ``None``."""
        ...

    @property
    def stored_bytes(self) -> int: ...

    def audit(self, key: str, leaf_indices: Sequence[int]) -> Dict:
        """Merkle possession proof for ``leaf_indices`` of one chunk.

        The asked leaves *as stored*, each beside its sibling path out
        of the tree the store keeps for the chunk — a tampered store
        produces a proof that fails broker-side verification, which is
        the audit signal.  Raises :class:`KeyError` for absent keys.
        """
        ...

    def flush(self) -> None: ...

    def close(self) -> None: ...

    def stats(self) -> Dict[str, object]:
        """JSON-ready backend description: ``type`` plus counters, among
        them ``merkle_bytes``, what the kept trees weigh."""
        ...


class MemoryChunkStore:
    """The seed behaviour: chunks in a dict, nothing survives the process."""

    def __init__(self) -> None:
        self._chunks: Dict[str, AnyChunk] = {}
        self._stored_bytes = 0

    def put(self, key: str, chunk: AnyChunk) -> None:
        old = self._chunks.get(key)
        if old is not None:
            self._stored_bytes -= old.size
        self._chunks[key] = chunk
        self._stored_bytes += chunk.size

    def get(self, key: str) -> AnyChunk:
        return self._chunks[key]

    def delete(self, key: str) -> None:
        chunk = self._chunks.pop(key)
        self._stored_bytes -= chunk.size

    def __contains__(self, key: str) -> bool:
        return key in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def keys(self) -> List[str]:
        return list(self._chunks)

    def size_of(self, key: str) -> Optional[int]:
        chunk = self._chunks.get(key)
        return None if chunk is None else chunk.size

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes

    def audit(self, key: str, leaf_indices: Sequence[int]) -> Dict:
        chunk = self._chunks[key]
        data = getattr(chunk, "data", None)
        if data is None:
            return merkle.synthetic_proof(chunk.size, leaf_indices)
        return merkle.assemble_proof(
            len(data), merkle.chunk_tree(chunk), leaf_indices, merkle.leaf_slicer(data)
        )

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def stats(self) -> Dict[str, object]:
        return {
            "type": "memory",
            "chunks": len(self._chunks),
            "stored_bytes": self._stored_bytes,
            "merkle_bytes": merkle.kept_bytes(
                getattr(chunk, "tree", None) for chunk in self._chunks.values()
            ),
        }
