"""The ranged-read path below ``read_stripe``: which leaves of which
chunks cover a window of a stripe, and how proven leaves become plaintext.

Reed-Solomon here is column-wise over ``m`` contiguous data rows of
``clen = ceil(len / m)`` bytes, so bytes ``[lo, hi)`` of a stripe sit at
the same offsets of one or two rows, verbatim in the chunk that holds a
row and decodable from the same offsets of any ``m`` chunks.  Every chunk
is anchored by a Merkle root over 64 KiB leaves
(:mod:`repro.storage.merkle`) and providers answer challenges with leaf
bytes plus sibling paths, so a ranged read is a challenge whose answer is
the data: it fetches only the covering leaves, trusts them no more than a
whole GET trusts a chunk, and doubles as a possession audit of the leaves
it touched.

Three pure pieces, shared by the engine (in process) and a gateway
worker (which re-checks what the broker shipped it): the planner
:func:`rows_for_window`, the proof gate :func:`open_run`, and the
slice-or-decode :func:`cut_windows`.  Fetching is the engine's, through
the one walk every chunk read takes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import chunk_length
from repro.storage.backend import ChunkCorruptionError
from repro.storage.merkle import LEAF_SIZE, leaf_count, leaf_length, open_proof


class RowWindow(NamedTuple):
    """The part of one data row a window of a stripe touches."""

    row: int
    #: Leaves of the row's chunk (of every chunk: all are ``clen`` long)
    #: that cover the part, inclusive.
    first_leaf: int
    last_leaf: int
    #: The wanted plaintext is ``[start, stop)`` of that run of leaves.
    start: int
    stop: int

    @property
    def leaves(self) -> List[int]:
        return list(range(self.first_leaf, self.last_leaf + 1))


class ProvenRun(NamedTuple):
    """What one chunk answered for a window, once it verified."""

    index: int
    proof: Dict  # as the provider sent it
    run: Optional[bytes]  # the window's leaves back to back; None if synthetic


def rows_for_window(length: int, m: int, lo: int, hi: int) -> List[RowWindow]:
    """Plan plaintext ``[lo, hi)`` of a ``length``-byte stripe coded at
    threshold ``m``: one :class:`RowWindow` per data row touched."""
    if not 0 <= lo <= hi <= length:
        raise ValueError(f"window [{lo}, {hi}) outside a stripe of {length} bytes")
    if lo == hi:
        return []
    clen = chunk_length(length, m)
    windows = []
    for row in range(lo // clen, (hi - 1) // clen + 1):
        base = row * clen
        begin, end = max(lo, base) - base, min(hi, base + clen) - base
        first = begin // LEAF_SIZE
        windows.append(
            RowWindow(
                row, first, (end - 1) // LEAF_SIZE,
                begin - first * LEAF_SIZE, end - first * LEAF_SIZE,
            )
        )
    return windows


def covers_every_leaf(windows: Sequence[RowWindow], m: int, chunk_size: int) -> bool:
    """Whether the windows' covering leaves are all ``m`` data chunks
    entire: no fetch is narrower than the plain one of ``m`` whole chunks."""
    covering = sum(w.last_leaf - w.first_leaf + 1 for w in windows)
    return covering == m * leaf_count(chunk_size)


def open_run(proof: Dict, root: str, chunk_size: int, window: RowWindow) -> Optional[bytes]:
    """The bytes of ``window``'s leaves out of a provider's proof, once it
    verifies against the broker-held ``root`` at the expected chunk size.

    A proof that fails, or answers other leaves than were asked for, is
    a :class:`ChunkCorruptionError`, like a record that fails its
    checksum.  A synthetic chunk proves its shape and has no bytes:
    ``None``.
    """
    leaves = open_proof(proof, root, chunk_size)
    if leaves is None or [int(e["i"]) for e in proof["leaves"]] != window.leaves:
        raise ChunkCorruptionError(
            f"leaves {window.first_leaf}..{window.last_leaf} failed their Merkle proof"
        )
    if proof.get("synthetic"):
        return None
    return leaves[0] if len(leaves) == 1 else b"".join(leaves)


def detach_leaves(proof: Dict) -> Dict:
    """The proof without its leaf bytes (a JSON header cannot carry
    them), which the ops RPC ships beside it as raw payload."""
    stripped = [{k: v for k, v in entry.items() if k != "d"} for entry in proof["leaves"]]
    return {**proof, "leaves": stripped}


def attach_leaves(proof: Dict, run) -> Dict:
    """Inverse of :func:`detach_leaves`: ``run`` is the leaves' bytes back
    to back, cut by the lengths the claimed chunk size dictates."""
    size = int(proof["size"])
    entries, offset = [], 0
    for entry in proof["leaves"]:
        width = leaf_length(size, int(entry["i"]))
        entries.append({**entry, "d": run[offset : offset + width]})
        offset += width
    return {**proof, "leaves": entries}


def cut_windows(
    code: ReedSolomon, fetched: Sequence[Tuple[RowWindow, Sequence[ProvenRun]]]
) -> Union[bytes, int]:
    """Plaintext of a planned window from the proven runs fetched for it
    (of a synthetic object: its span).

    A run from a chunk that holds the row verbatim is sliced; otherwise
    the wanted columns of the ``m`` runs decode to the wanted row alone.
    """
    if any(p.run is None for _window, proven in fetched for p in proven):
        return sum(window.stop - window.start for window, _proven in fetched)
    pieces = []
    for window, proven in fetched:
        columns = {p.index: memoryview(p.run)[window.start : window.stop] for p in proven}
        pieces.append(code.decode_row(columns, window.row))
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)
