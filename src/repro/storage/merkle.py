"""Per-chunk segment Merkle trees for challenge-response provider audits.

Every stored chunk is committed to by a Merkle root over fixed 64 KiB
leaves (SHA-256, domain-separated: ``0x00 || leaf`` for leaves, ``0x01 ||
left || right`` for interior nodes).  The broker keeps the root in object
metadata — it rides the existing ``md`` WAL records, so it survives
restart and replicates to followers for free — while providers serve
``audit(key, leaf_indices)`` proofs assembled from *ranged* reads of the
stored bytes.  Verifying a proof against the broker-held root costs
O(log leaves) hashes and one leaf of egress per sampled index, which is
the whole point: possession can be checked continuously without the
full-read egress bill the scrubber pays.

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

import base64
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

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


def _levels(leaves: List[bytes]) -> List[List[bytes]]:
    """All tree levels bottom-up; ``levels[-1]`` is ``[root]``."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        nxt: List[bytes] = []
        for i in range(0, len(prev) - 1, 2):
            nxt.append(_node_hash(prev[i], prev[i + 1]))
        if len(prev) % 2:
            nxt.append(prev[-1])  # promoted, not re-hashed
        levels.append(nxt)
    return levels


def merkle_root(data: bytes) -> str:
    """Hex Merkle root of ``data`` split into fixed-size leaves."""
    n = leaf_count(len(data))
    leaves = [
        _leaf_hash(bytes(data[i * LEAF_SIZE : (i + 1) * LEAF_SIZE]))
        for i in range(n)
    ]
    return _levels(leaves)[-1][0].hex()


def chunk_root(chunk) -> str:
    """Root for a chunk object: real data hashes, synthetic gets the sentinel."""
    data = getattr(chunk, "data", None)
    if data is None:
        return SYNTHETIC_ROOT
    return merkle_root(data)


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

    The proof is a JSON-safe document: each requested leaf carries its
    raw bytes (base64) plus the sibling path up to the root.  The
    builder is honest by construction; a *provider* running this over
    tampered stored bytes produces a proof that fails verification
    against the broker's root — which is exactly the detection signal.
    """
    size = len(data)
    n = leaf_count(size)
    indices = _checked_indices(leaf_indices, n)
    leaves = [
        _leaf_hash(bytes(data[i * LEAF_SIZE : (i + 1) * LEAF_SIZE]))
        for i in range(n)
    ]
    levels = _levels(leaves)
    out_leaves = []
    for index in indices:
        path: List[List[str]] = []
        pos = index
        for level in levels[:-1]:
            count = len(level)
            if pos == count - 1 and count % 2:
                pass  # promoted
            else:
                sibling = level[pos ^ 1]
                path.append(["R" if pos % 2 == 0 else "L", sibling.hex()])
            pos //= 2
        leaf_bytes = bytes(data[index * LEAF_SIZE : (index + 1) * LEAF_SIZE])
        out_leaves.append(
            {
                "i": index,
                "d": base64.b64encode(leaf_bytes).decode("ascii"),
                "path": path,
            }
        )
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
    proof lists them, each base64-decoded exactly once (a valid
    synthetic proof carries no bytes and returns ``[]``); any failure
    returns ``None``.  Proofs are adversarial input and never raise on
    malformed documents.

    A leaf's ``"d"`` is base64 text in every proof a provider answers
    with; raw bytes are accepted too, which no JSON document can carry —
    only a proof this process re-assembled around leaves that travelled
    beside it (the ops RPC's binary payload).
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
            if isinstance(leaf, str):
                leaf = base64.b64decode(leaf, validate=True)
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
    claimed chunk size plus its path entries — so no leaf is decoded to
    be counted, and a synthetic proof (which records the same shape)
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
