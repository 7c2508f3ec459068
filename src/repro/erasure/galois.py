"""Vectorized arithmetic over the finite field GF(2^8).

The field is realized as polynomials over GF(2) modulo the primitive
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D, the AES-unrelated classic
Reed-Solomon modulus).  Addition is XOR; multiplication uses discrete
log/antilog tables.  All operations accept scalars or NumPy ``uint8`` arrays
and broadcast element-wise, so the encoder's hot loop is table lookups on
whole shard rows rather than per-byte Python arithmetic (see the
"vectorizing for loops" guidance in the HPC guides).
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomial generating the field (degree-8 terms included).
PRIMITIVE_POLY: int = 0x11D

#: Multiplicative order of the field's generator element.
FIELD_ORDER: int = 255


def _build_log_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build antilog (exp) and log tables for the generator element 2."""
    exp = np.zeros(2 * FIELD_ORDER, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int64)
    x = 1
    for i in range(FIELD_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    # Duplicate so that exp[i + j] never needs a modulo for i, j < 255.
    exp[FIELD_ORDER:] = exp[:FIELD_ORDER]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_log_tables()


def _build_mul_table() -> np.ndarray:
    """Dense 256x256 product table: ``MUL_TABLE[a, b] = a * b`` in GF(2^8)."""
    table = np.zeros((256, 256), dtype=np.uint8)
    nz = np.arange(1, 256)
    la = LOG_TABLE[nz][:, None]
    lb = LOG_TABLE[nz][None, :]
    table[1:, 1:] = EXP_TABLE[la + lb]
    return table


MUL_TABLE = _build_mul_table()

#: ``INV_TABLE[a]`` is the multiplicative inverse of ``a`` (undefined at 0).
INV_TABLE = np.zeros(256, dtype=np.uint8)
INV_TABLE[1:] = EXP_TABLE[FIELD_ORDER - LOG_TABLE[np.arange(1, 256)]]


def _as_field(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype != np.uint8:
        if np.any((arr < 0) | (arr > 255)):
            raise ValueError("GF(2^8) elements must be in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def gf_add(a, b) -> np.ndarray:
    """Field addition (== subtraction): bitwise XOR."""
    return np.bitwise_xor(_as_field(a), _as_field(b))


def gf_mul(a, b) -> np.ndarray:
    """Element-wise field multiplication via the dense product table."""
    return MUL_TABLE[_as_field(a), _as_field(b)]


def gf_inv(a) -> np.ndarray:
    """Element-wise multiplicative inverse; raises on zero."""
    arr = _as_field(a)
    if np.any(arr == 0):
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return INV_TABLE[arr]


def gf_div(a, b) -> np.ndarray:
    """Element-wise division ``a / b``; raises when ``b`` contains zero."""
    return gf_mul(a, gf_inv(b))


def gf_pow(a: int, k: int) -> int:
    """Scalar exponentiation ``a ** k`` in the field (k >= 0)."""
    if k < 0:
        raise ValueError("negative exponents are not supported")
    a = int(a)
    if not 0 <= a <= 255:
        raise ValueError("GF(2^8) elements must be in [0, 255]")
    if k == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP_TABLE[(LOG_TABLE[a] * k) % FIELD_ORDER])


def gf_matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2^8).

    ``C[i, j] = XOR_k a[i, k] * b[k, j]``.  The loop runs over the small
    inner dimension only (``k`` = number of data shards); each iteration is a
    vectorized table lookup and XOR over full rows, which keeps encoding
    throughput high for large shards.
    """
    am = _as_field(a)
    bm = _as_field(b)
    if am.ndim != 2 or bm.ndim != 2:
        raise ValueError("gf_matmul expects 2-D matrices")
    if am.shape[1] != bm.shape[0]:
        raise ValueError(f"shape mismatch: {am.shape} @ {bm.shape}")
    out = np.zeros((am.shape[0], bm.shape[1]), dtype=np.uint8)
    for k in range(am.shape[1]):
        out ^= MUL_TABLE[am[:, k][:, None], bm[k, :][None, :]]
    return out


#: ``_SCALE[c]`` is the 256-byte table ``x -> c * x`` in the form
#: ``translate`` takes, so one C pass scales a whole run of bytes.
_SCALE = tuple(MUL_TABLE[c].tobytes() for c in range(256))

#: Bytes of a row scaled and folded at a time: small enough that the
#: piece, its scaled copy and the output stay in cache between passes
#: and come from the allocator's free lists, not from fresh pages.
_PIECE = 64 * 1024


def gf_mul_rows(coefficients, sources) -> list[np.ndarray]:
    """Coefficient rows times byte rows, the multiply shard bytes go through.

    ``out[i] = XOR_k coefficients[i, k] * sources[k]``, which is
    :func:`gf_matmul` with the right-hand matrix given as ``k`` separate,
    equally long byte rows (``bytes``, ``bytearray``, ``memoryview`` or
    contiguous ``uint8`` arrays) that are never stacked.  The coefficients
    decide the arithmetic: a 0 contributes nothing and its source is not
    read, a 1 is the bytes themselves, anything else is one ``translate``
    pass through that coefficient's table; every term folds into its
    output row with an in-place XOR.  Each source is walked once, a piece
    at a time, and each piece copied once: ``bytearray.translate`` is the
    pass because it runs at twice the speed of ``bytes.translate``, which
    also checks whether anything changed.  The outputs are writable 1-D
    ``uint8`` arrays that alias no source.
    """
    rows = _as_field(coefficients)
    if rows.ndim != 2 or rows.shape[1] != len(sources):
        raise ValueError(
            f"need one byte row per coefficient column, got {rows.shape} x {len(sources)}"
        )
    if len({len(source) for source in sources}) > 1:
        raise ValueError("byte rows must be equally long")
    width = len(sources[0]) if len(sources) else 0
    out = [np.zeros(width, dtype=np.uint8) for _ in range(rows.shape[0])]
    for k, source in enumerate(sources):
        column = [(i, c) for i, c in enumerate(rows[:, k].tolist()) if c]
        if not column:
            continue
        view = memoryview(source)
        for start in range(0, width, _PIECE):
            piece = bytearray(view[start : start + _PIECE])
            for i, c in column:
                scaled = piece if c == 1 else piece.translate(_SCALE[c])
                target = out[i][start : start + _PIECE]
                np.bitwise_xor(target, np.frombuffer(scaled, dtype=np.uint8), out=target)
    return out


def gf_matvec(a, v) -> np.ndarray:
    """Matrix-vector product over GF(2^8)."""
    vm = _as_field(v)
    if vm.ndim != 1:
        raise ValueError("gf_matvec expects a 1-D vector")
    return gf_matmul(a, vm[:, None])[:, 0]
