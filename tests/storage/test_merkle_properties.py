"""Property suite for the audit Merkle trees (Hypothesis).

The proofs are the trust boundary between broker and provider: a proof
that verifies while the stored bytes differ from what the root committed
to would let a tampering provider pass audits forever.  So the
properties here are adversarial — every honest proof must verify, and
every single-bit deviation (in leaf data, in a sibling hash, in the
claimed root) must be rejected.
"""

import base64

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.merkle import (
    LEAF_SIZE,
    SYNTHETIC_ROOT,
    assemble_proof,
    build_proof,
    build_tree,
    leaf_count,
    leaf_length,
    merkle_root,
    open_proof,
    path_length,
    proof_billed_bytes,
    synthetic_proof,
    verify_proof,
)

# Chunk sizes concentrated on the tree-shape edges: empty, single byte,
# exactly one leaf +/- 1, and several-leaf chunks (including odd counts,
# which exercise the promoted-node rule).  Data is pattern-filled rather
# than random so Hypothesis spends its entropy on sizes and indices.
_EDGE_SIZES = [
    0, 1, LEAF_SIZE - 1, LEAF_SIZE, LEAF_SIZE + 1,
    2 * LEAF_SIZE, 3 * LEAF_SIZE - 7, 5 * LEAF_SIZE + 3, 8 * LEAF_SIZE,
]
sizes = st.sampled_from(_EDGE_SIZES) | st.integers(0, 9 * LEAF_SIZE)


def _data(size: int) -> bytes:
    return bytes(i % 251 for i in range(size))


@st.composite
def chunk_and_indices(draw):
    """A chunk's data plus a non-empty subset of its leaf indices."""
    size = draw(sizes)
    n = leaf_count(size)
    k = draw(st.integers(1, n))
    indices = draw(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    )
    return _data(size), indices


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices())
def test_honest_proofs_verify(case):
    data, indices = case
    root = merkle_root(data)
    proof = build_proof(data, indices)
    assert verify_proof(proof, root)
    assert verify_proof(proof, root, expected_size=len(data))
    # The wrong expected size is rejected before any hashing happens.
    assert not verify_proof(proof, root, expected_size=len(data) + 1)


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices())
def test_opened_proofs_return_the_leaves_they_verified(case):
    """``open_proof`` is ``verify_proof`` that hands back what it hashed:
    the asked leaves, in the asked order, decoded once."""
    data, indices = case
    root = merkle_root(data)
    proof = build_proof(data, indices)
    leaves = open_proof(proof, root, expected_size=len(data))
    assert leaves == [data[i * LEAF_SIZE : (i + 1) * LEAF_SIZE] for i in indices]
    assert open_proof(proof, root, expected_size=len(data) + 1) is None
    # Leaves that travelled beside the document (raw bytes, as the ops
    # RPC re-attaches them) open the same; anything else in "d" does not.
    for entry, leaf in zip(proof["leaves"], leaves):
        entry["d"] = memoryview(leaf)
    assert open_proof(proof, root) == leaves
    proof["leaves"][0]["d"] = 7
    assert open_proof(proof, root) is None


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices())
def test_a_kept_tree_and_a_leaf_reader_assemble_the_proof_of_the_bytes(case):
    """What a store does (look the paths up in a tree it kept, read only
    the asked leaves) is ``build_proof`` over the bytes, to the last
    field; the verifier hands back the very leaves it was given, and a
    leaf that arrives as text is refused, not decoded."""
    data, indices = case
    tree = build_tree(data)
    assert tree.root == merkle_root(data)
    read = []

    def read_leaf(index):
        read.append(index)
        return data[index * LEAF_SIZE : (index + 1) * LEAF_SIZE]

    proof = assemble_proof(len(data), tree, indices, read_leaf)
    assert proof == build_proof(data, indices)
    assert read == indices
    if leaf_count(len(data)) == 1:  # no path to look up: no tree to keep
        assert assemble_proof(len(data), None, indices, read_leaf) == proof
    leaves = open_proof(proof, tree.root, expected_size=len(data))
    assert all(a is b["d"] for a, b in zip(leaves, proof["leaves"]))
    proof["leaves"][0]["d"] = base64.b64encode(leaves[0]).decode("ascii")
    assert open_proof(proof, tree.root, expected_size=len(data)) is None


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices())
def test_billed_bytes_by_shape_equal_billed_bytes_by_decoding(case):
    """The bill is read off the proof's shape; on every honest proof
    that equals counting the bytes the proof actually carries."""
    data, indices = case
    proof = build_proof(data, indices)
    by_decoding = sum(
        len(entry["d"]) + 32 * len(entry["path"])
        for entry in proof["leaves"]
    )
    assert proof_billed_bytes(proof) == by_decoding
    assert proof_billed_bytes(proof) == sum(
        leaf_length(len(data), i) + 32 * path_length(len(data), i) for i in indices
    )


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices(), st.data())
def test_any_leaf_bit_flip_is_rejected(case, data_strategy):
    data, indices = case
    root = merkle_root(data)
    tampered = bytearray(data)
    if not tampered:
        # An empty chunk has no bits to flip in the leaf; tamper the
        # proof's (empty) leaf field instead by injecting a byte.
        proof = build_proof(data, indices)
        proof["leaves"][0]["d"] = base64.b64encode(b"x").decode("ascii")
        assert not verify_proof(proof, root)
        return
    position = data_strategy.draw(
        st.integers(0, len(tampered) * 8 - 1), label="bit"
    )
    tampered[position // 8] ^= 1 << (position % 8)
    flipped_leaf = (position // 8) // LEAF_SIZE
    proof = build_proof(bytes(tampered), indices)
    # The flip is detected iff a sampled leaf's hash chain crosses it —
    # and any chain does: either the leaf itself or a sibling subtree.
    assert not verify_proof(proof, root)
    # Directly: sampling the flipped leaf always catches it.
    direct = build_proof(bytes(tampered), [flipped_leaf])
    assert not verify_proof(direct, root)


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices(), st.data())
def test_sibling_hash_tamper_is_rejected(case, data_strategy):
    data, indices = case
    root = merkle_root(data)
    proof = build_proof(data, indices)
    entries = [e for e in proof["leaves"] if e["path"]]
    if not entries:
        return  # single-leaf tree: no siblings to tamper (covered above)
    entry = data_strategy.draw(st.sampled_from(entries), label="leaf")
    step = data_strategy.draw(
        st.integers(0, len(entry["path"]) - 1), label="step"
    )
    bit = data_strategy.draw(st.integers(0, 255), label="bit")
    sibling = bytearray(bytes.fromhex(entry["path"][step][1]))
    sibling[bit // 8] ^= 1 << (bit % 8)
    entry["path"][step][1] = bytes(sibling).hex()
    assert not verify_proof(proof, root)


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices(), st.integers(0, 255))
def test_claimed_root_tamper_is_rejected(case, bit):
    data, indices = case
    root_bytes = bytearray(bytes.fromhex(merkle_root(data)))
    root_bytes[bit // 8] ^= 1 << (bit % 8)
    proof = build_proof(data, indices)
    assert not verify_proof(proof, bytes(root_bytes).hex())


@settings(max_examples=60, deadline=None)
@given(chunk_and_indices())
def test_proof_size_is_logarithmic(case):
    data, indices = case
    n = leaf_count(len(data))
    # ceil(log2(n)) sibling hashes at most, per sampled leaf.
    log_cap = max(1, (n - 1).bit_length())
    proof = build_proof(data, indices)
    for entry in proof["leaves"]:
        assert len(entry["path"]) <= log_cap
    billed = proof_billed_bytes(proof)
    cap = sum(
        leaf_length(len(data), i) + 32 * log_cap for i in indices
    )
    assert billed <= cap
    # And the bytes are a sliver of the chunk once it spans many leaves:
    if n >= 16 and len(indices) == 1:
        assert billed < len(data) / 8


@settings(max_examples=40, deadline=None)
@given(chunk_and_indices())
def test_synthetic_proofs_bill_identically(case):
    data, indices = case
    real = build_proof(data, indices)
    synthetic = synthetic_proof(len(data), indices)
    assert proof_billed_bytes(synthetic) == proof_billed_bytes(real)
    assert verify_proof(synthetic, SYNTHETIC_ROOT, expected_size=len(data))
    # Synthetic proofs never verify against a real root and vice versa.
    assert not verify_proof(synthetic, merkle_root(data))
    assert not verify_proof(real, SYNTHETIC_ROOT)


@settings(max_examples=40, deadline=None)
@given(chunk_and_indices(), st.data())
def test_structural_padding_is_rejected(case, data_strategy):
    """Padded or truncated paths fail shape checks, not just hashing."""
    data, indices = case
    root = merkle_root(data)
    proof = build_proof(data, indices)
    entry = data_strategy.draw(st.sampled_from(proof["leaves"]), label="leaf")
    mode = data_strategy.draw(st.sampled_from(["pad", "truncate"]), label="mode")
    if mode == "pad":
        entry["path"] = entry["path"] + [["L", "00" * 32]]
    elif entry["path"]:
        entry["path"] = entry["path"][:-1]
    else:
        return  # nothing to truncate on a single-leaf tree
    assert not verify_proof(proof, root)


def test_tree_shape_edges():
    """Pin the exact shapes the verifier recomputes from size alone."""
    assert leaf_count(0) == 1 and leaf_length(0, 0) == 0
    assert leaf_count(1) == 1
    assert leaf_count(LEAF_SIZE) == 1
    assert leaf_count(LEAF_SIZE + 1) == 2
    assert leaf_length(LEAF_SIZE + 1, 1) == 1
    # 5 leaves: last leaf is promoted twice, so its path has one entry.
    size = 5 * LEAF_SIZE
    assert path_length(size, 4) == 1
    assert path_length(size, 0) == 3
    # Verifiable end to end at every edge size.
    for size in _EDGE_SIZES:
        data = _data(size)
        proof = build_proof(data, list(range(leaf_count(size))))
        assert verify_proof(proof, merkle_root(data), expected_size=size)
