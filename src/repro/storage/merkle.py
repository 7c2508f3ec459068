"""Per-chunk segment Merkle trees for challenge-response provider audits.

Every stored chunk is committed to by a Merkle root over fixed 64 KiB
leaves (SHA-256, domain-separated: ``0x00 || leaf`` for leaves, ``0x01 ||
left || right`` for interior nodes).  The broker keeps the root in object
metadata — it rides the existing ``md`` WAL records, so it survives
restart and replicates to followers for free — while providers serve
``audit(key, leaf_indices)`` proofs: the asked leaves, read by range, and
their sibling paths, looked up in the :class:`MerkleTree` the store keeps
from the hashing the write already did.  Verifying a proof against the
broker-held root costs O(log leaves) hashes and one leaf of egress per
sampled index, which is the whole point: possession can be checked
continuously without the full-read egress bill the scrubber pays.

Tree shape is the Certificate-Transparency convention: an odd trailing
node is *promoted* to the next level unhashed (no duplicate-last-leaf).
The shape is therefore a pure function of the chunk size, which the
verifier recomputes independently — a proof must consume exactly the
sibling entries that shape dictates, so padded or truncated proofs are
rejected structurally, not just cryptographically.

Synthetic chunks (size-only placeholders used by benchmarks and
workload replays) carry the sentinel root :data:`SYNTHETIC_ROOT` and
answer audits with shape-only proofs that bill exactly like real ones.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Fixed leaf width.  64 KiB keeps the tree shallow (an 8 MiB stripe's
#: chunk has at most a few hundred leaves) while one sampled leaf stays
#: ~1.5% of a 4 MiB chunk — the O(log) audit economics the bench records.
LEAF_SIZE = 64 * 1024

#: Sentinel root stored for synthetic (size-only) chunks.
SYNTHETIC_ROOT = "synthetic"

_HASH_LEN = hashlib.sha256().digest_size  # 32


def _leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def leaf_count(size: int) -> int:
    """Number of leaves for a chunk of ``size`` bytes (empty chunk = 1)."""
    if size <= 0:
        return 1
    return (size + LEAF_SIZE - 1) // LEAF_SIZE


def leaf_length(size: int, index: int) -> int:
    """Byte length of leaf ``index`` in a chunk of ``size`` bytes."""
    if index < 0 or index >= leaf_count(size):
        raise IndexError(f"leaf {index} out of range for size {size}")
    if size <= 0:
        return 0
    return min(LEAF_SIZE, size - index * LEAF_SIZE)


class MerkleTree:
    """A chunk's Merkle tree as a value: one flat ``bytes`` of 32-byte
    hashes per level, bottom-up; ``levels[-1]`` is the root alone.

    Kept by whoever holds the chunk's bytes (on the frozen
    :class:`~repro.erasure.striping.Chunk`, on a segment store's index
    entry) so that a challenge is answered by lookup.  About 64 B per
    64 KiB leaf: 0.1% of the chunk.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: Tuple[bytes, ...]) -> None:
        self.levels = levels

    @property
    def root(self) -> str:
        return self.levels[-1].hex()

    @property
    def nbytes(self) -> int:
        return sum(len(level) for level in self.levels)

    def path(self, index: int) -> List[List[str]]:
        """Sibling hashes from leaf ``index`` up to the root, as the
        proof document carries them: ``[side of the sibling, hex]``."""
        path: List[List[str]] = []
        pos = index
        for level in self.levels[:-1]:
            count = len(level) // _HASH_LEN
            if pos == count - 1 and count % 2:
                pass  # promoted: no sibling at this level
            else:
                at = (pos ^ 1) * _HASH_LEN
                path.append(
                    ["R" if pos % 2 == 0 else "L", level[at : at + _HASH_LEN].hex()]
                )
            pos //= 2
        return path


def build_tree(data) -> MerkleTree:
    """Hash ``data`` once, as fixed-size leaves, into its tree."""
    view = memoryview(data)
    level = b"".join(
        _leaf_hash(view[i * LEAF_SIZE : (i + 1) * LEAF_SIZE])
        for i in range(leaf_count(len(view)))
    )
    levels = [level]
    while len(level) > _HASH_LEN:
        paired = len(level) // (2 * _HASH_LEN) * (2 * _HASH_LEN)
        level = b"".join(
            [
                _node_hash(level[at : at + _HASH_LEN], level[at + _HASH_LEN : at + 2 * _HASH_LEN])
                for at in range(0, paired, 2 * _HASH_LEN)
            ]
            + [level[paired:]]  # an odd trailing node is promoted, not re-hashed
        )
        levels.append(level)
    return MerkleTree(tuple(levels))


def merkle_root(data: bytes) -> str:
    """Hex Merkle root of ``data`` split into fixed-size leaves."""
    if len(data) <= LEAF_SIZE:  # one leaf: its hash is the root
        return _leaf_hash(data).hex()
    return build_tree(data).root


def chunk_root(chunk) -> str:
    """Root for a chunk object: real data hashes, synthetic gets the sentinel."""
    data = getattr(chunk, "data", None)
    if data is None:
        return SYNTHETIC_ROOT
    return merkle_root(data)


def chunk_tree(chunk) -> Optional[MerkleTree]:
    """The tree a real chunk of more than one leaf carries, hashed at the
    first ask and kept on the chunk; ``None`` for any other chunk.

    The chunk is frozen and its ``data`` immutable, so the tree cannot go
    stale: other bytes are another ``Chunk``.  Racing first asks compute
    the same pure value and one of them stays.  A chunk of one leaf keeps
    nothing, because its proof has no path to look up.
    """
    data = getattr(chunk, "data", None)
    if data is None or len(data) <= LEAF_SIZE:
        return None
    tree = chunk.tree
    if tree is None:
        tree = build_tree(data)
        object.__setattr__(chunk, "tree", tree)
    return tree


def kept_root(chunk) -> str:
    """:func:`chunk_root` for a chunk about to be stored: the same one
    hashing pass, whose levels stay on the chunk (:func:`chunk_tree`)
    for the store to answer challenges from."""
    tree = chunk_tree(chunk)
    return chunk_root(chunk) if tree is None else tree.root


def kept_bytes(trees) -> int:
    """What a store's kept trees weigh (its ``merkle_bytes`` gauge);
    ``None`` entries are chunks that keep none."""
    return sum(tree.nbytes for tree in trees if tree is not None)


def _path_sides(size: int, index: int) -> List[bool]:
    """Per paired level, True when the proof node sits left of its sibling.

    Promoted (odd trailing) nodes contribute no entry — the returned list
    length *is* the proof path length the verifier will insist on.
    """
    sides: List[bool] = []
    n = leaf_count(size)
    pos = index
    while n > 1:
        if pos == n - 1 and n % 2:
            pass  # promoted: no sibling at this level
        else:
            sides.append(pos % 2 == 0)
        pos //= 2
        n = (n + 1) // 2
    return sides


def path_length(size: int, index: int) -> int:
    """Number of sibling hashes a proof for leaf ``index`` must carry."""
    return len(_path_sides(size, index))


def build_proof(data: bytes, leaf_indices: Sequence[int]) -> Dict:
    """Assemble a possession proof for ``leaf_indices`` of ``data``.

    The definition over raw bytes: hash the tree, then
    :func:`assemble_proof` from it.  The builder is honest by
    construction; run over tampered bytes it produces a proof that fails
    verification against the broker's root — which is exactly the
    detection signal.
    """
    tree = build_tree(data) if len(data) > LEAF_SIZE else None
    return assemble_proof(len(data), tree, leaf_indices, leaf_slicer(data))


def leaf_slicer(data: bytes) -> Callable[[int], bytes]:
    """A leaf reader over bytes held in memory."""
    return lambda index: data[index * LEAF_SIZE : (index + 1) * LEAF_SIZE]


def assemble_proof(
    size: int,
    tree: Optional[MerkleTree],
    leaf_indices: Sequence[int],
    read_leaf: Callable[[int], bytes],
) -> Dict:
    """The proof for ``leaf_indices`` of a ``size``-byte chunk whose
    ``tree`` is known: each asked leaf's bytes, from ``read_leaf(index)``,
    beside its sibling path, looked up.  Nothing is hashed here.

    ``tree`` may be ``None`` for a chunk of one leaf (no path).  A store
    whose bytes changed under a kept tree answers with a leaf that no
    longer chains to the root: the same detection signal.
    """
    n = leaf_count(size)
    indices = _checked_indices(leaf_indices, n)
    out_leaves = [
        {"i": index, "d": read_leaf(index), "path": tree.path(index) if n > 1 else []}
        for index in indices
    ]
    return {"v": 1, "leaf_size": LEAF_SIZE, "size": size, "leaves": out_leaves}


def synthetic_proof(size: int, leaf_indices: Sequence[int]) -> Dict:
    """Shape-only proof for a synthetic chunk of ``size`` bytes.

    Carries no bytes but records each leaf's nominal length and path
    length so billing is identical to a real proof of the same shape.
    """
    n = leaf_count(size)
    indices = _checked_indices(leaf_indices, n)
    out_leaves = [
        {
            "i": index,
            "n": leaf_length(size, index),
            "p": path_length(size, index),
        }
        for index in indices
    ]
    return {
        "v": 1,
        "leaf_size": LEAF_SIZE,
        "size": size,
        "synthetic": True,
        "leaves": out_leaves,
    }


def open_proof(
    proof: Dict, root_hex: str, expected_size: Optional[int] = None
) -> Optional[List[bytes]]:
    """Check a proof against the broker-held root; its leaf bytes, or ``None``.

    Structural checks come first — claimed size vs the broker's expected
    size, leaf lengths, and *exact* path consumption per the recomputed
    tree shape — then every leaf's hash chain must land on ``root_hex``.
    A proof that passes returns the verified leaves in the order the
    proof lists them, the very objects it hashed (a valid synthetic
    proof carries no bytes and returns ``[]``); any failure returns
    ``None``.  Proofs are adversarial input and never raise on malformed
    documents.

    A leaf's ``"d"`` is bytes, from the store to here (across the ops
    RPC it rides the frame's binary payload and is re-attached); text is
    refused, not decoded.
    """
    try:
        if proof.get("v") != 1 or proof.get("leaf_size") != LEAF_SIZE:
            return None
        size = int(proof["size"])
        if size < 0:
            return None
        if expected_size is not None and size != int(expected_size):
            return None
        n = leaf_count(size)
        entries = proof["leaves"]
        if not entries:
            return None
        if proof.get("synthetic"):
            if root_hex != SYNTHETIC_ROOT:
                return None
            seen = set()
            for entry in entries:
                index = int(entry["i"])
                if index < 0 or index >= n or index in seen:
                    return None
                seen.add(index)
                if int(entry["n"]) != leaf_length(size, index):
                    return None
                if int(entry["p"]) != path_length(size, index):
                    return None
            return []
        if root_hex == SYNTHETIC_ROOT:
            return None
        root = bytes.fromhex(root_hex)
        if len(root) != _HASH_LEN:
            return None
        seen = set()
        leaves: List[bytes] = []
        for entry in entries:
            index = int(entry["i"])
            if index < 0 or index >= n or index in seen:
                return None
            seen.add(index)
            leaf = entry["d"]
            if not isinstance(leaf, (bytes, bytearray, memoryview)):
                return None
            if len(leaf) != leaf_length(size, index):
                return None
            sides = _path_sides(size, index)
            path = entry["path"]
            if len(path) != len(sides):
                return None
            node = _leaf_hash(leaf)
            for (side, sibling_hex), node_is_left in zip(path, sides):
                expected_side = "R" if node_is_left else "L"
                if side != expected_side:
                    return None
                sibling = bytes.fromhex(sibling_hex)
                if len(sibling) != _HASH_LEN:
                    return None
                node = (
                    _node_hash(node, sibling)
                    if node_is_left
                    else _node_hash(sibling, node)
                )
            if node != root:
                return None
            leaves.append(leaf)
        return leaves
    except (KeyError, TypeError, ValueError):
        return None


def verify_proof(proof: Dict, root_hex: str, expected_size: Optional[int] = None) -> bool:
    """Whether :func:`open_proof` accepts the proof (the auditor's question)."""
    return open_proof(proof, root_hex, expected_size) is not None


def proof_billed_bytes(proof: Dict) -> int:
    """Provider egress a proof represents: leaf bytes + 32 B per sibling.

    Read off the proof's shape — each leaf's nominal length at the
    claimed chunk size plus its path entries — so a synthetic proof (which records the same shape)
    meters exactly what the real one would.
    """
    size = int(proof.get("size", 0))
    total = 0
    for entry in proof.get("leaves", ()):
        if proof.get("synthetic"):
            total += int(entry.get("n", 0)) + _HASH_LEN * int(entry.get("p", 0))
        else:
            nominal = min(LEAF_SIZE, size - int(entry["i"]) * LEAF_SIZE)
            total += max(0, nominal) + _HASH_LEN * len(entry["path"])
    return total


def _checked_indices(leaf_indices: Sequence[int], n: int) -> Tuple[int, ...]:
    indices = tuple(int(i) for i in leaf_indices)
    if not indices:
        raise ValueError("audit needs at least one leaf index")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate leaf indices in audit challenge")
    for index in indices:
        if index < 0 or index >= n:
            raise IndexError(f"leaf {index} out of range for {n} leaves")
    return indices
