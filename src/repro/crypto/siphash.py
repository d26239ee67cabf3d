"""Numpy-vectorized SipHash-2-4 used as a fixed-key PRF / random oracle.

OT extension hashes *millions* of short blocks; calling ``hashlib`` per
block would dominate the runtime of a pure-Python reproduction.  Practical
OT stacks (incl. ABY, which the paper builds on) solve this with fixed-key
AES-NI; we substitute a fixed-key **SipHash-2-4**, an ARX PRF whose 64-bit
lane structure vectorizes perfectly in numpy: one call processes an entire
``(rows, words)`` uint64 message matrix at once.

The implementation follows the SipHash reference exactly for whole-word
messages (our only use case: messages are already u64-aligned, and the
length byte is folded into the final block).  The scalar path is tested
against known vectors derived from the reference implementation.

Security note, recorded in DESIGN.md: SipHash is a PRF, not a collision-
resistant hash.  For the random-oracle role in IKNP/KK13 masking this is
the same heuristic leap as fixed-key AES.  It is the library's one
oracle (:data:`repro.crypto.hash_ro.default_ro`); this numpy path is the
reference the compiled kernel of :mod:`repro.crypto.fastro` is tested
against, and its fallback on a host without a C compiler.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CryptoError

_U64 = np.uint64

# Fixed public key, "expand 32-byte k" style nothing-up-my-sleeve constants.
FIXED_KEY = (0x0706050403020100, 0x0F0E0D0C0B0A0908)


def _rotl(x: np.ndarray, b: int) -> np.ndarray:
    return (x << _U64(b)) | (x >> _U64(64 - b))


def _sipround(v0, v1, v2, v3):
    v0 = v0 + v1
    v1 = _rotl(v1, 13)
    v1 ^= v0
    v0 = _rotl(v0, 32)
    v2 = v2 + v3
    v3 = _rotl(v3, 16)
    v3 ^= v2
    v0 = v0 + v3
    v3 = _rotl(v3, 21)
    v3 ^= v0
    v2 = v2 + v1
    v1 = _rotl(v1, 17)
    v1 ^= v2
    v2 = _rotl(v2, 32)
    return v0, v1, v2, v3


def siphash24(
    message_words: np.ndarray,
    key: tuple[int, int] = FIXED_KEY,
) -> np.ndarray:
    """SipHash-2-4 over whole-u64 messages, vectorized across rows.

    ``message_words`` has shape ``(..., words)``; each row is hashed
    independently and an ``(...,)``-shaped uint64 digest array is returned.
    The standard length byte becomes ``8 * words`` in the final block,
    matching the reference algorithm for messages with no tail bytes.
    """
    msg = np.asarray(message_words, dtype=_U64)
    if msg.ndim == 0:
        raise CryptoError("message must have at least one axis of u64 words")
    words = msg.shape[-1]
    k0 = _U64(key[0])
    k1 = _U64(key[1])

    shape = msg.shape[:-1]
    v0 = np.full(shape, 0x736F6D6570736575, dtype=_U64) ^ k0
    v1 = np.full(shape, 0x646F72616E646F6D, dtype=_U64) ^ k1
    v2 = np.full(shape, 0x6C7967656E657261, dtype=_U64) ^ k0
    v3 = np.full(shape, 0x7465646279746573, dtype=_U64) ^ k1

    with np.errstate(over="ignore"):
        for i in range(words):
            m = msg[..., i]
            v3 = v3 ^ m
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
            v0 = v0 ^ m
        # Final block: all-zero data bytes, length byte in the MSB.
        final = _U64((8 * words % 256) << 56)
        v3 = v3 ^ final
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        v0 = v0 ^ final
        v2 = v2 ^ _U64(0xFF)
        for _ in range(4):
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        return v0 ^ v1 ^ v2 ^ v3


def prf_expand(
    message_words: np.ndarray,
    out_words: int,
    domain: int = 0,
    key: tuple[int, int] = FIXED_KEY,
) -> np.ndarray:
    """Expand each message row into ``out_words`` uint64 PRF outputs.

    Output word ``j`` of row ``i`` is ``SipHash(key, row_i || domain || j)``;
    appending the counter keeps distinct output positions independent.
    Result shape: ``(..., out_words)``.
    """
    if out_words < 1:
        raise CryptoError(f"out_words must be >= 1, got {out_words}")
    msg = np.atleast_2d(np.asarray(message_words, dtype=_U64))
    lead = msg.shape[:-1]
    words = msg.shape[-1]
    counters = np.arange(out_words, dtype=_U64) | (_U64(domain) << _U64(32))
    # Build (..., out_words, words + 1) blocks: row words then the counter.
    expanded = np.empty(lead + (out_words, words + 1), dtype=_U64)
    expanded[..., :, :words] = msg[..., None, :]
    expanded[..., :, words] = counters
    return siphash24(expanded, key=key)
