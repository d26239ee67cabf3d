"""Walsh–Hadamard codes for the KK13 1-out-of-N OT extension.

KK13 replaces IKNP's repetition encoding of the choice bit with a code of
minimum distance >= kappa.  For ``N <= 256`` the Walsh–Hadamard code of
length ``2 * kappa = 256`` fits: codeword ``j`` has bit ``k`` equal to the
parity of ``j & k``, and any two distinct codewords differ in exactly 128
positions.

A session only ever encodes choices in ``[0, N)``, and for small ``N``
many columns are zero in every one of those codewords: bit ``k`` of
codeword ``j < 4`` depends only on ``k & 3``, so for ``N <= 4`` the 64
columns with ``k & 3 == 0`` carry nothing.  :func:`code_length` drops
exactly those columns (128 remain for ``N = 2``, IKNP's repetition code,
and 192 for ``N = 3, 4``); the distances are unchanged, since a dropped
column is 0 in every codeword.  The engines keep their bit matrices a
whole number of 64-bit words wide, so a count that is not a multiple of
64 (every ``N > 4``) keeps all 256 columns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import CryptoError

CODE_LENGTH = 256
MAX_N = 256


@lru_cache(maxsize=None)
def _full_code(n_codewords: int) -> np.ndarray:
    """The first ``n_codewords`` codewords over all 256 columns, read-only."""
    if not 2 <= n_codewords <= MAX_N:
        raise CryptoError(f"N must be in [2, {MAX_N}], got {n_codewords}")
    j = np.arange(n_codewords, dtype=np.uint32)[:, None]
    k = np.arange(CODE_LENGTH, dtype=np.uint32)[None, :]
    # Parity of j & k, one bit at a time (values < 256).
    v = j & k
    pop = np.zeros_like(v)
    while v.any():
        pop ^= v & 1
        v >>= 1
    bits = pop.astype(np.uint8)
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=None)
def code_columns(n_codewords: int) -> np.ndarray:
    """Indices of the 256-column code's columns an ``N``-choice session keeps."""
    used = np.flatnonzero(_full_code(n_codewords).any(axis=0))
    if used.size % 64:
        used = np.arange(CODE_LENGTH)
    used.flags.writeable = False
    return used


def code_length(n_codewords: int) -> int:
    """Columns of the code an ``N``-choice session runs: the columns that
    are nonzero in some codeword of ``[0, N)`` when their count is a
    multiple of 64, else all 256.  128, 192 or 256."""
    return int(code_columns(n_codewords).size)


def codeword_bits(n_codewords: int) -> np.ndarray:
    """The first ``N`` codewords as an ``(N, code_length(N))`` 0/1 matrix."""
    return np.ascontiguousarray(_full_code(n_codewords)[:, code_columns(n_codewords)])


def codeword_words(n_codewords: int) -> np.ndarray:
    """Codewords packed into ``(N, code_length(N) / 64)`` uint64 rows
    (LSB-first bit order)."""
    bits = codeword_bits(n_codewords)
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(n_codewords, bits.shape[1] // 64)


def minimum_distance(n_codewords: int) -> int:
    """Exact minimum pairwise Hamming distance of the first N codewords."""
    bits = codeword_bits(n_codewords)
    best = bits.shape[1]
    for i in range(n_codewords):
        diff = bits[i + 1 :] ^ bits[i]
        if diff.size:
            best = min(best, int(diff.sum(axis=1).min()))
    return best
