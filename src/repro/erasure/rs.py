"""Systematic (m, n) Reed-Solomon encoder/decoder.

An object is encoded into ``n`` shards such that any ``m`` of them rebuild
the original bytes (paper Section II-A1).  The code is *systematic*: shards
``0..m-1`` are verbatim slices of the data, so an all-data read never touches
the field arithmetic.  The rate is ``r = m / n`` and the storage blow-up is
``1 / r``, exactly the accounting the paper's cost model uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.erasure.galois import gf_matmul, gf_mul_rows
from repro.erasure.matrix import gf_inverse, systematic_generator

#: Entries the decode-matrix memo keeps, process-wide (least recently
#: used goes first).  An entry is one ``m x m`` byte matrix: 16 bytes at
#: the catalogue's ``m = 4``, 16 MiB for the whole memo if every entry
#: were an ``m = 255`` code.
INVERSE_MEMO_ENTRIES = 256


def shard_length(data_len: int, m: int) -> int:
    """Length in bytes of each shard for a ``data_len``-byte object.

    Zero-length objects still get 1-byte shards so that every chunk has a
    physical representation at the providers.
    """
    return max(1, math.ceil(data_len / m))


@functools.lru_cache(maxsize=INVERSE_MEMO_ENTRIES)
def _decode_matrix(code: "ReedSolomon", indices: tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows ``indices``: shards to data rows.

    Memoised per code and index tuple.  An object's provider set is
    stable between migrations, so reads of it decode from the same few
    subsets and a degraded read stops paying a Gauss-Jordan elimination
    per stripe.  The memo is bounded by :data:`INVERSE_MEMO_ENTRIES`
    (``lru_cache`` locks around its own bookkeeping, so concurrent
    decodes of different subsets are safe; two threads missing on the
    same key both invert and one result is kept).  The matrix is shared
    by every caller and therefore read-only.
    """
    inverse = gf_inverse(code.generator[list(indices)])
    inverse.setflags(write=False)
    return inverse


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
    #: Per shard index, the data row that shard is verbatim (its generator
    #: row is that row's unit vector), or ``None`` for a true parity shard.
    _verbatim: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        gen = systematic_generator(self.m, self.n, self.construction)
        gen.setflags(write=False)
        object.__setattr__(self, "_generator", gen)
        verbatim = tuple(
            int(np.flatnonzero(row)[0]) if np.count_nonzero(row) == 1 and row.max() == 1 else None
            for row in gen
        )
        object.__setattr__(self, "_verbatim", verbatim)

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
        if len(view) != self.m * slen:
            padded = np.zeros(self.m * slen, dtype=np.uint8)
            if len(view):
                padded[: len(view)] = np.frombuffer(view, dtype=np.uint8)
            view = memoryview(padded)
        # Systematic: the data shards are slices, never copies; only the
        # parity rows need field arithmetic.
        shards = [view[i * slen : (i + 1) * slen] for i in range(self.m)]
        if self.n > self.m:
            parity = gf_mul_rows(self._generator[self.m :], shards)
            shards.extend(memoryview(row) for row in parity)
        return shards

    def _chosen(
        self, shards: Mapping[int, "bytes | memoryview"], width: Optional[int] = None
    ) -> tuple[int, ...]:
        """The ``m`` shards a decode uses: extra ones are ignored
        deterministically (lowest indices win).  They must be in range
        and ``width`` bytes each (as wide as the first, when not given)."""
        if len(shards) < self.m:
            raise ValueError(
                f"need at least m={self.m} shards to decode, got {len(shards)}"
            )
        indices = tuple(sorted(shards)[: self.m])
        if width is None:
            width = len(shards[indices[0]])
        for idx in indices:
            if not 0 <= idx < self.n:
                raise ValueError(f"shard index {idx} out of range for n={self.n}")
            if len(shards[idx]) != width:
                raise ValueError(
                    f"shards must be equally wide: shard {idx} has length "
                    f"{len(shards[idx])}, expected {width}"
                )
        return indices

    def _holders(self, indices: Sequence[int]) -> dict[int, int]:
        """Data row -> the lowest of ``indices`` whose shard is it verbatim."""
        holders: dict[int, int] = {}
        for index in sorted(indices, reverse=True):
            row = self._verbatim[index]
            if row is not None:
                holders[row] = index
        return holders

    def _live_rows(self, data_len: int) -> range:
        """The data rows that carry bytes of a ``data_len``-byte object;
        only they are worth recovering."""
        slen = shard_length(data_len, self.m)
        return range(min(self.m, math.ceil(data_len / slen)) if data_len else 0)

    def recovered_rows(self, indices: Sequence[int], data_len: int) -> list[int]:
        """The data rows a decode of ``data_len`` bytes from the shards
        ``indices`` rebuilds by field arithmetic: those with live bytes
        that none of the ``m`` shards it uses holds verbatim.  Empty for
        an all-data read, which only concatenates."""
        held = self._holders(sorted(indices)[: self.m])
        return [row for row in self._live_rows(data_len) if row not in held]

    def decode_blocks(
        self, shards: Mapping[int, "bytes | memoryview"], data_len: int
    ) -> list[memoryview]:
        """Rebuild the original bytes as a list of buffer views.

        The concatenation of the returned views is the ``data_len``-byte
        object.  A data row that one of the shards holds verbatim (shard
        ``row`` of any code, every shard of a Vandermonde ``m = 1`` one)
        is returned as a view of the caller's buffer — no copy; only
        genuinely missing data rows are recovered through field
        arithmetic.  Extra shards beyond ``m`` are ignored
        deterministically (lowest indices win).
        """
        if data_len < 0:
            raise ValueError("data_len must be >= 0")
        slen = shard_length(data_len, self.m)
        indices = self._chosen(shards, slen)
        live = self._live_rows(data_len)
        rows = {row: shards[index] for row, index in self._holders(indices).items()}
        missing = [row for row in live if row not in rows]
        if missing:
            recovered = gf_mul_rows(
                _decode_matrix(self, indices)[missing], [shards[i] for i in indices]
            )
            rows.update(zip(missing, recovered))
        blocks: list[memoryview] = []
        for row in live:
            source = rows[row]
            if not isinstance(source, memoryview):
                source = memoryview(source)
            blocks.append(source[: min(slen, data_len - row * slen)])
        return blocks

    def holds_row(self, index: int, row: int) -> bool:
        """Whether shard ``index`` is data row ``row`` verbatim: its
        generator row is that row's unit vector.  True of shard ``row``
        of any systematic code, and of every shard of a Vandermonde
        ``m = 1`` code (plain replication)."""
        return self._verbatim[index] == row

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
        indices = self._chosen(shards)
        coefficients = _decode_matrix(self, indices)[[row]]
        return gf_mul_rows(coefficients, [shards[i] for i in indices])[0].tobytes()

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
        fails, only its shard is regenerated and re-hosted elsewhere.  The
        shard is one linear combination of the ``m`` sources, its
        generator row times their decode matrix, so it costs ``m`` passes
        and no other row is decoded or re-encoded on the way.
        """
        if not 0 <= target_index < self.n:
            raise ValueError(f"shard index {target_index} out of range")
        indices = self._chosen(shards, shard_length(data_len, self.m))
        coefficients = gf_matmul(
            self._generator[[target_index]], _decode_matrix(self, indices)
        )
        return gf_mul_rows(coefficients, [shards[i] for i in indices])[0].tobytes()


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
