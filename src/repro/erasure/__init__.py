"""Erasure-coding substrate: (m, n) Reed-Solomon codes over GF(2^8).

The paper (Section II-A1, Figure 1) relies on erasure coding to split a data
object into ``n`` chunks such that *any* ``m``-subset suffices to reconstruct
it.  This package provides a real, self-contained implementation:

* :mod:`repro.erasure.galois` — vectorized GF(2^8) field arithmetic,
* :mod:`repro.erasure.matrix` — Vandermonde/Cauchy generator matrices and
  Gauss-Jordan inversion over the field,
* :mod:`repro.erasure.rs` — the systematic Reed-Solomon encoder/decoder,
* :mod:`repro.erasure.striping` — object <-> chunk conversion, plus the
  synthetic (metadata-only) chunk type used by the large-scale cost
  simulations.
"""

from repro.erasure.galois import gf_add, gf_div, gf_inv, gf_mul, gf_matmul, gf_pow
from repro.erasure.matrix import (
    cauchy_matrix,
    gf_identity,
    gf_inverse,
    systematic_generator,
    vandermonde,
)
from repro.erasure.rs import CodeCache, ReedSolomon
from repro.erasure.striping import (
    Chunk,
    SyntheticChunk,
    chunk_length,
    reassemble_object,
    split_object,
)

__all__ = [
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_matmul",
    "vandermonde",
    "cauchy_matrix",
    "gf_identity",
    "gf_inverse",
    "systematic_generator",
    "ReedSolomon",
    "CodeCache",
    "Chunk",
    "SyntheticChunk",
    "chunk_length",
    "split_object",
    "reassemble_object",
]
