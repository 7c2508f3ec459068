"""Systematic (m, n) Reed-Solomon encoder/decoder.

An object is encoded into ``n`` shards such that any ``m`` of them rebuild
the original bytes (paper Section II-A1).  The code is *systematic*: shards
``0..m-1`` are verbatim slices of the data, so an all-data read never touches
the field arithmetic.  The rate is ``r = m / n`` and the storage blow-up is
``1 / r``, exactly the accounting the paper's cost model uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

import numpy as np

from repro.erasure.galois import gf_matmul
from repro.erasure.matrix import gf_inverse, systematic_generator


def shard_length(data_len: int, m: int) -> int:
    """Length in bytes of each shard for a ``data_len``-byte object.

    Zero-length objects still get 1-byte shards so that every chunk has a
    physical representation at the providers.
    """
    return max(1, math.ceil(data_len / m))


@dataclass(frozen=True)
class ReedSolomon:
    """A systematic (m, n) Reed-Solomon erasure code over GF(2^8).

    Parameters
    ----------
    m:
        Number of data shards (the paper's *threshold*); any ``m`` shards
        reconstruct the object.
    n:
        Total number of shards produced (one per selected provider).
    construction:
        Generator matrix construction, ``"vandermonde"`` or ``"cauchy"``.
    """

    m: int
    n: int
    construction: str = "vandermonde"
    _generator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        gen = systematic_generator(self.m, self.n, self.construction)
        gen.setflags(write=False)
        object.__setattr__(self, "_generator", gen)

    @property
    def rate(self) -> float:
        """Code rate ``r = m / n`` (Section II-A1)."""
        return self.m / self.n

    @property
    def storage_overhead(self) -> float:
        """Disk blow-up factor ``1 / r`` of storing an encoded object."""
        return self.n / self.m

    @property
    def generator(self) -> np.ndarray:
        """The (read-only) ``n x m`` generator matrix."""
        return self._generator

    def encode(self, data: "bytes | memoryview") -> list[memoryview]:
        """Encode ``data`` into ``n`` shards of equal length.

        Shards are returned as :class:`memoryview`\\ s.  When ``len(data)``
        is already a multiple of ``m * shard_length`` — every interior
        stripe of the streaming data plane — the data shards are zero-copy
        slices of ``data`` itself (``shard.obj is data``): no pad buffer is
        allocated and no bytes move.  Unaligned tails are zero-padded to a
        multiple of ``m`` shard lengths; the original length must be
        carried in metadata for :meth:`decode`.
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        slen = shard_length(len(view), self.m)
        if len(view) == self.m * slen:
            # Aligned fast path: slice, never copy.
            shards: list[memoryview] = [
                view[i * slen : (i + 1) * slen] for i in range(self.m)
            ]
            if self.n > self.m:
                matrix = np.frombuffer(view, dtype=np.uint8).reshape(self.m, slen)
                parity = gf_matmul(self._generator[self.m :], matrix)
                shards.extend(memoryview(parity[i]) for i in range(self.n - self.m))
            return shards
        padded = np.zeros(self.m * slen, dtype=np.uint8)
        if len(view):
            padded[: len(view)] = np.frombuffer(view, dtype=np.uint8)
        matrix = padded.reshape(self.m, slen)
        # Systematic fast path: only the parity rows need field arithmetic.
        shards = [memoryview(matrix[i]) for i in range(self.m)]
        if self.n > self.m:
            parity = gf_matmul(self._generator[self.m :], matrix)
            shards.extend(memoryview(parity[i]) for i in range(self.n - self.m))
        return shards

    def decode_blocks(
        self, shards: Mapping[int, "bytes | memoryview"], data_len: int
    ) -> list[memoryview]:
        """Rebuild the original bytes as a list of buffer views.

        The concatenation of the returned views is the ``data_len``-byte
        object.  Data shards that are present are returned as views of the
        caller's buffers — no copy; only genuinely missing data rows are
        recovered through field arithmetic.  Extra shards beyond ``m`` are
        ignored deterministically (lowest indices win).
        """
        if data_len < 0:
            raise ValueError("data_len must be >= 0")
        if len(shards) < self.m:
            raise ValueError(
                f"need at least m={self.m} shards to decode, got {len(shards)}"
            )
        slen = shard_length(data_len, self.m)
        indices = sorted(shards)[: self.m]
        for idx in indices:
            if not 0 <= idx < self.n:
                raise ValueError(f"shard index {idx} out of range for n={self.n}")
            if len(shards[idx]) != slen:
                raise ValueError(
                    f"shard {idx} has length {len(shards[idx])}, expected {slen}"
                )
        chosen = set(indices)
        # Only rows that contribute live bytes are worth recovering.
        needed_rows = min(self.m, math.ceil(data_len / slen)) if data_len else 0
        missing = [row for row in range(needed_rows) if row not in chosen]
        recovered: dict[int, memoryview] = {}
        if missing:
            sub = self._generator[indices]
            inv = gf_inverse(sub)
            stacked = np.vstack(
                [np.frombuffer(shards[i], dtype=np.uint8) for i in indices]
            )
            rows = gf_matmul(inv[missing], stacked)
            recovered = {row: memoryview(rows[j]) for j, row in enumerate(missing)}
        blocks: list[memoryview] = []
        remaining = data_len
        for row in range(self.m):
            take = min(slen, remaining)
            if take <= 0:
                break
            source = recovered.get(row)
            if source is None:
                raw = shards[row]
                source = raw if isinstance(raw, memoryview) else memoryview(raw)
            blocks.append(source[:take])
            remaining -= take
        return blocks

    def holds_row(self, index: int, row: int) -> bool:
        """Whether shard ``index`` is data row ``row`` verbatim: its
        generator row is that row's unit vector.  True of shard ``row``
        of any systematic code, and of every shard of a Vandermonde
        ``m = 1`` code (plain replication)."""
        generator_row = self._generator[index]
        return generator_row[row] == 1 and np.count_nonzero(generator_row) == 1

    def decode_row(self, shards: Mapping[int, "bytes | memoryview"], row: int) -> bytes:
        """Data row ``row`` alone, from any ``m`` equal-width shards.

        The code is column-wise, so the shards may be the same byte
        window cut out of each full shard: a ranged read recovers just
        the columns it fetched, and just the row it wants, where
        :meth:`decode_blocks` recovers every missing row of whole shards.
        """
        if not 0 <= row < self.m:
            raise ValueError(f"row {row} out of range for m={self.m}")
        for index, shard in shards.items():
            if self.holds_row(index, row):
                return bytes(shard)
        if len(shards) < self.m:
            raise ValueError(
                f"need at least m={self.m} shards to decode, got {len(shards)}"
            )
        indices = sorted(shards)[: self.m]
        if len({len(shards[i]) for i in indices}) != 1:
            raise ValueError("shards of one window must be equally wide")
        inverse = gf_inverse(self._generator[indices])
        stacked = np.vstack([np.frombuffer(shards[i], dtype=np.uint8) for i in indices])
        return gf_matmul(inverse[[row]], stacked)[0].tobytes()

    def decode(self, shards: Mapping[int, "bytes | memoryview"], data_len: int) -> bytes:
        """Rebuild the original ``data_len`` bytes from any ``m`` shards.

        ``shards`` maps shard index (0-based) to shard bytes.  This is the
        copying convenience over :meth:`decode_blocks`.
        """
        return b"".join(self.decode_blocks(shards, data_len))

    def reconstruct_shard(
        self, shards: Mapping[int, "bytes | memoryview"], target_index: int, data_len: int
    ) -> bytes:
        """Recompute a single missing shard from any ``m`` available ones.

        This is the *active repair* primitive (Section IV-E): when a provider
        fails, only its shard is regenerated and re-hosted elsewhere.
        """
        if not 0 <= target_index < self.n:
            raise ValueError(f"shard index {target_index} out of range")
        data = self.decode(shards, shard_length(data_len, self.m) * self.m)
        # bytes() detaches the repaired shard from the full decoded buffer so
        # the store doesn't pin m shards' worth of memory for one chunk.
        return bytes(self.encode(data)[target_index])


class CodeCache:
    """Memoized :class:`ReedSolomon` instances keyed by (m, n).

    Generator-matrix construction costs O(n * m^2) field operations; the
    broker re-uses codes across the billions-of-objects regime the paper
    targets, so instances are cached.
    """

    def __init__(self, construction: str = "vandermonde") -> None:
        self._construction = construction
        self._codes: Dict[tuple[int, int], ReedSolomon] = {}

    def get(self, m: int, n: int) -> ReedSolomon:
        """Return the cached (m, n) code, building it on first use."""
        key = (m, n)
        code = self._codes.get(key)
        if code is None:
            code = ReedSolomon(m, n, self._construction)
            self._codes[key] = code
        return code

    def preload(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Eagerly build codes for the given (m, n) pairs."""
        for m, n in pairs:
            self.get(m, n)

    def __len__(self) -> int:
        return len(self._codes)
