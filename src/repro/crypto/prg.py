"""Pseudo-random generator: expand a short seed into long pseudorandom data.

IKNP OT extension needs each 128-bit base-OT secret expanded into an
``m``-bit column.  We use numpy's Philox counter-based generator keyed by
the seed — a cryptographically structured ARX generator whose keying makes
independent seeds yield independent streams, which is the property the
protocol relies on.  (As with the SipHash oracle, DESIGN.md records this
as the performance substitution for an AES-CTR PRG.)

:class:`BatchPrg` holds all kappa (or 2*kappa) column seeds of one
OT-extension session and emits the whole word-packed column block in one
call.  Its multi-key Philox4x64-10 runs in the compiled kernel of
:mod:`repro.crypto.fastro`; the vectorized numpy :func:`_philox_blocks`
is the reference and the fallback when the kernel cannot be built, with
the same words.  Its byte streams are bit-for-bit identical to a
``list[Prg]`` driven column by column: ``Generator.integers(0, 256, dtype=uint8)`` over a
power-of-two range consumes the Philox output stream as little-endian
bytes through a 32-bit buffer, and :class:`BatchPrg` replays exactly that
consumption pattern (including the cached high half-word that survives
between draws).  The transcript cross-check tests pin this equivalence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto import fastro
from repro.errors import CryptoError

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox4x64 round multipliers and Weyl key increments (Random123 / numpy).
_PHILOX_M0 = _U64(0xD2E7470EE14C6C93)
_PHILOX_M1 = _U64(0xCA5A826395121157)
_PHILOX_W0 = _U64(0x9E3779B97F4A7C15)
_PHILOX_W1 = _U64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

SEED_BYTES = 16


class Prg:
    """Deterministic stream expansion from a 128-bit seed."""

    def __init__(self, seed_bytes: bytes) -> None:
        if len(seed_bytes) != SEED_BYTES:
            raise CryptoError(f"PRG seed must be {SEED_BYTES} bytes, got {len(seed_bytes)}")
        key = int.from_bytes(seed_bytes, "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def bits(self, count: int) -> np.ndarray:
        """``count`` pseudorandom bits as a uint8 0/1 array."""
        if count < 0:
            raise CryptoError("bit count must be non-negative")
        nbytes = (count + 7) // 8
        raw = self._gen.integers(0, 256, size=nbytes, dtype=np.uint8)
        # ``count=`` sizes the output exactly — no oversized allocation
        # that a trailing slice would then have to copy or pin alive.
        return np.unpackbits(raw, bitorder="little", count=count)

    def packed_bits(self, count: int) -> np.ndarray:
        """``count`` pseudorandom bits as ``ceil(count/64)`` uint64 words.

        Consumes exactly the bytes :meth:`bits` would (so the two calls
        are interchangeable stream-wise); bits at positions >= ``count``
        in the last word are zero.
        """
        if count < 0:
            raise CryptoError("bit count must be non-negative")
        nbytes = (count + 7) // 8
        raw = self._gen.integers(0, 256, size=nbytes, dtype=np.uint8)
        words = (count + 63) // 64
        buf = np.zeros(words * 8, dtype=np.uint8)
        buf[:nbytes] = raw
        out = buf.view(np.uint64)
        if count % 64:
            out[-1] &= _U64((1 << (count % 64)) - 1)
        return out


# --------------------------------------------------------------------- #
# vectorized multi-key Philox
# --------------------------------------------------------------------- #
_SH32 = _U64(32)

#: Soft cap on Philox counter blocks generated per internal step: bounds
#: the round-state scratch of one :func:`_philox_blocks` call (six
#: ``(K, B)`` buffers) and keeps individual GIL-holding numpy ops short
#: enough that shard threads can interleave.  4096 blocks at the OT
#: sessions' K=256 keys is ~50 MiB of scratch.
_PHILOX_BLOCK_STEP = 4096


def _mulhi_into(
    a_lo: np.uint64,
    a_hi: np.uint64,
    b: np.ndarray,
    out: np.ndarray,
    t: np.ndarray,
    s: np.ndarray,
    u: np.ndarray,
) -> None:
    """High word of the 128-bit product ``(a_hi:a_lo) * b``, into ``out``.

    Schoolbook 32-bit limbs with exact carry propagation; ``t``/``s``/``u``
    are caller-owned scratch buffers (the Philox loop reuses them across
    all twenty multiplies so the round function never allocates).
    """
    np.bitwise_and(b, _MASK32, out=t)  # b_lo
    np.multiply(a_lo, t, out=s)
    s >>= _SH32
    np.multiply(a_hi, t, out=t)
    t += s  # t = a_hi*b_lo + ((a_lo*b_lo) >> 32), the middle word
    np.right_shift(b, _SH32, out=s)  # b_hi
    np.multiply(a_lo, s, out=out)
    np.multiply(a_hi, s, out=s)  # s = a_hi*b_hi
    np.bitwise_and(t, _MASK32, out=u)
    out += u  # a_lo*b_hi + (t & m32): cannot overflow 64 bits
    out >>= _SH32
    t >>= _SH32
    out += t
    out += s


_M0_LO, _M0_HI = _PHILOX_M0 & _MASK32, _PHILOX_M0 >> _SH32
_M1_LO, _M1_HI = _PHILOX_M1 & _MASK32, _PHILOX_M1 >> _SH32


def _philox_blocks(key0: np.ndarray, key1: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks for ``K`` keys x ``B`` counter values.

    ``key0``/``key1`` are ``(K,)`` uint64; ``counters`` is ``(B,)``
    uint64 (numpy increments its counter *before* generating, so block
    ``b`` of a fresh stream uses counter ``b + 1``).  Returns
    ``(K, B * 4)``: per key, the flat uint64 output stream.

    All round arithmetic runs in six rotating ``(K, B)`` state buffers
    plus three scratch buffers — the low product lands in-place over the
    consumed counter lane and the keys stay ``(K, 1)`` broadcasts, so
    the ten-round loop performs zero allocations.
    """
    k = key0.shape[0]
    b = counters.shape[0]
    shape = (k, b)
    k0 = key0[:, None].copy()
    k1 = key1[:, None].copy()

    # Rounds 0-1 on the algebraically low-rank state.  Round 0 sees
    # x = (counter, 0, 0, 0), so its products depend on the counter
    # alone (shape (B,)); round 1's first lane is the bare key (shape
    # (K, 1)).  Only its second multiply touches a full (K, B) array.
    def _mulhi_small(a_lo, a_hi, arr):
        b_lo, b_hi = arr & _MASK32, arr >> _SH32
        t_mid = a_hi * b_lo + ((a_lo * b_lo) >> _SH32)
        s_full = a_lo * b_hi + (t_mid & _MASK32)
        return a_hi * b_hi + (t_mid >> _SH32) + (s_full >> _SH32)

    h0c = _mulhi_small(_M0_LO, _M0_HI, counters)  # (B,)
    lo0c = _PHILOX_M0 * counters  # (B,)
    # after round 0: x = (k0, 0, h0c ^ k1, lo0c)
    k0 += _PHILOX_W0
    k1 += _PHILOX_W1
    h0k = _mulhi_small(_M0_LO, _M0_HI, key0)[:, None]  # (K, 1)
    lo0k = (_PHILOX_M0 * key0)[:, None]  # (K, 1)
    x2r1 = np.bitwise_xor(h0c[None, :], key1[:, None])  # lane 2 after round 0
    x0 = np.empty(shape, dtype=_U64)
    x1 = np.empty(shape, dtype=_U64)
    x2 = np.empty(shape, dtype=_U64)
    x3 = np.empty(shape, dtype=_U64)
    h0 = np.empty(shape, dtype=_U64)
    h1 = np.empty(shape, dtype=_U64)
    t = np.empty(shape, dtype=_U64)
    s = np.empty(shape, dtype=_U64)
    u = np.empty(shape, dtype=_U64)
    _mulhi_into(_M1_LO, _M1_HI, x2r1, x0, t, s, u)
    x0 ^= k0  # x1 after round 0 is zero
    np.multiply(_PHILOX_M1, x2r1, out=x1)
    np.bitwise_xor(h0k, lo0c[None, :], out=x2)
    x2 ^= k1
    x3[:] = lo0k
    for _ in range(2, _PHILOX_ROUNDS):
        k0 += _PHILOX_W0
        k1 += _PHILOX_W1
        _mulhi_into(_M0_LO, _M0_HI, x0, h0, t, s, u)
        _mulhi_into(_M1_LO, _M1_HI, x2, h1, t, s, u)
        np.multiply(_PHILOX_M0, x0, out=x0)  # x0 becomes lo0 (= next x3)
        np.multiply(_PHILOX_M1, x2, out=x2)  # x2 becomes lo1 (= next x1)
        h1 ^= x1
        h1 ^= k0  # h1 becomes next x0
        h0 ^= x3
        h0 ^= k1  # h0 becomes next x2
        x0, x1, x2, x3, h0, h1 = h1, x2, h0, x0, x1, x3
    return np.stack([x0, x1, x2, x3], axis=-1).reshape(k, b * 4)


def _philox_blocks_chunked(
    key0: np.ndarray, key1: np.ndarray, counters: np.ndarray
) -> np.ndarray:
    """:func:`_philox_blocks` in bounded counter steps (identical output).

    Counter-mode output depends only on the counter values, so splitting
    one big request into steps and writing each step's words into the
    preallocated result is bit-identical to the single-shot call while
    keeping peak scratch flat and yielding the GIL between steps.
    """
    b = counters.shape[0]
    if b <= _PHILOX_BLOCK_STEP:
        return _philox_blocks(key0, key1, counters)
    out = np.empty((key0.shape[0], b * 4), dtype=_U64)
    for lo in range(0, b, _PHILOX_BLOCK_STEP):
        hi = min(b, lo + _PHILOX_BLOCK_STEP)
        out[:, 4 * lo : 4 * hi] = _philox_blocks(key0, key1, counters[lo:hi])
    return out


def _philox(key0: np.ndarray, key1: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 of every key over counters ``first, ...,
    first + blocks - 1``, ``(K, 4 blocks)``: the compiled kernel when it
    is loaded, else :func:`_philox_blocks_chunked` (the same words)."""
    if fastro.kernel_active():
        return fastro.philox(key0, key1, first, blocks)
    counters = np.arange(first, first + blocks, dtype=_U64)
    return _philox_blocks_chunked(key0, key1, counters)


class BatchPrg:
    """All column PRGs of an OT-extension session, expanded in one shot.

    Holds ``K`` 128-bit seeds; :meth:`packed_bits` returns the whole
    ``(K, ceil(count/64))`` word-packed column block.  Stream ``j`` is
    byte-identical to ``Prg(seeds[j])`` driven with the same sequence of
    ``bits``/``packed_bits`` calls, so sessions can swap one for the
    other mid-stream (the reference engines rely on this).
    """

    def __init__(self, seeds: Sequence[bytes]) -> None:
        seeds = [bytes(s) for s in seeds]
        if not seeds:
            raise CryptoError("BatchPrg needs at least one seed")
        for s in seeds:
            if len(s) != SEED_BYTES:
                raise CryptoError(f"PRG seed must be {SEED_BYTES} bytes, got {len(s)}")
        self._seeds = tuple(seeds)
        keys = [int.from_bytes(s, "little") for s in seeds]
        self._key0 = np.array([k & _MASK64 for k in keys], dtype=_U64)
        self._key1 = np.array([k >> 64 for k in keys], dtype=_U64)
        self._drawn64 = 0  # uint64 outputs consumed per stream
        self._cached_hi: np.ndarray | None = None  # pending high half-words

    @property
    def seeds(self) -> tuple[bytes, ...]:
        return self._seeds

    @property
    def n_streams(self) -> int:
        return len(self._seeds)

    def packed_bits(self, count: int) -> np.ndarray:
        """``count`` bits per stream as ``(K, ceil(count/64))`` uint64 words.

        Every stream consumes ``ceil(count/8)`` bytes, exactly like
        ``Prg.bits(count)``; tail bits beyond ``count`` are zero.
        """
        if count < 0:
            raise CryptoError("bit count must be non-negative")
        k = self.n_streams
        words = (count + 63) // 64
        if count == 0:
            return np.zeros((k, 0), dtype=_U64)
        nbytes = (count + 7) // 8
        n32 = (nbytes + 3) // 4
        fresh32 = n32 - (1 if self._cached_hi is not None else 0)
        n64 = (fresh32 + 1) // 2
        if (
            self._cached_hi is None
            and count % 64 == 0
            and self._drawn64 % 4 == 0
            and n64 % 4 == 0
        ):
            # Aligned fast path (every power-of-two OT batch): the fresh
            # Philox words ARE the packed output — no byte shuffling.
            out = _philox(self._key0, self._key1, self._drawn64 // 4 + 1, n64 // 4)
            self._drawn64 += n64
            return out
        buf = np.zeros((k, words * 8), dtype=np.uint8)
        pos = 0
        if self._cached_hi is not None:
            take = min(4, nbytes)
            cached_bytes = self._cached_hi.astype("<u4").view(np.uint8).reshape(k, 4)
            buf[:, :take] = cached_bytes[:, :take]
            pos = take
            self._cached_hi = None
        if n64:
            b0 = self._drawn64 // 4
            b1 = (self._drawn64 + n64 - 1) // 4
            flat = _philox(self._key0, self._key1, b0 + 1, b1 - b0 + 1)
            off = self._drawn64 - 4 * b0
            u64s = np.ascontiguousarray(flat[:, off : off + n64])
            need = nbytes - pos
            buf[:, pos:nbytes] = u64s.view(np.uint8).reshape(k, n64 * 8)[:, :need]
            self._drawn64 += n64
            if fresh32 % 2:
                self._cached_hi = u64s[:, -1] >> _U64(32)
        out = buf.view(_U64)
        if count % 64:
            out[:, -1] &= _U64((1 << (count % 64)) - 1)
        return out
