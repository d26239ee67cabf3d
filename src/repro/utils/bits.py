"""Bit-level helpers: int <-> bit vectors, packing, and bit-matrix transpose.

OT extension works on bit matrices (m x kappa booleans); garbled circuits
work on per-wire bits of ring elements.  These helpers keep the bit order
convention in one place: **index 0 is the least-significant bit**.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import ConfigError


def int_to_bits(values, bits: int) -> np.ndarray:
    """Decompose unsigned integers into LSB-first bit arrays.

    ``values`` may be a scalar or array; the result has one extra trailing
    axis of length ``bits`` with dtype uint8.
    """
    if not 1 <= bits <= 64:
        raise ConfigError(f"bit width must be in [1, 64], got {bits}")
    arr = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(bits, dtype=np.uint64)
    return ((arr[..., None] >> shifts) & np.uint64(1)).astype(np.uint8)


def bits_to_int(bits_arr) -> np.ndarray:
    """Inverse of :func:`int_to_bits`: LSB-first bits -> uint64."""
    arr = np.asarray(bits_arr, dtype=np.uint64)
    if arr.shape[-1] > 64:
        raise ConfigError(f"cannot pack {arr.shape[-1]} bits into uint64")
    shifts = np.arange(arr.shape[-1], dtype=np.uint64)
    return (arr << shifts).sum(axis=-1, dtype=np.uint64)


def pack_bits(bits_arr) -> bytes:
    """Pack a bit array (any shape, values 0/1) into bytes, row-major, LSB-first."""
    arr = np.asarray(bits_arr, dtype=np.uint8).reshape(-1)
    return np.packbits(arr, bitorder="little").tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a flat uint8 array of length ``count``."""
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(arr, bitorder="little")
    if bits.size < count:
        raise ConfigError(f"buffer holds {bits.size} bits, need {count}")
    return bits[:count].copy()


def transpose_bit_matrix(mat: np.ndarray) -> np.ndarray:
    """Transpose a 2-D 0/1 matrix (the core step of IKNP OT extension)."""
    arr = np.asarray(mat, dtype=np.uint8)
    if arr.ndim != 2:
        raise ConfigError(f"expected a 2-D bit matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr.T)


def pack_bits_to_words(bits_arr) -> np.ndarray:
    """Pack a 0/1 array ``(..., n)`` into ``(..., ceil(n/64))`` uint64 words.

    LSB-first within each word (bit ``i`` of the row lands in word
    ``i // 64`` at position ``i % 64``); tail bits beyond ``n`` are zero.
    """
    arr = np.atleast_1d(np.asarray(bits_arr, dtype=np.uint8))
    n = arr.shape[-1]
    words = (n + 63) // 64
    lead = arr.shape[:-1]
    flat = np.ascontiguousarray(arr.reshape(-1, n) if n else arr.reshape(-1, 0))
    buf = np.zeros((flat.shape[0], words * 8), dtype=np.uint8)
    if n:
        packed = np.packbits(flat, axis=1, bitorder="little")
        buf[:, : packed.shape[1]] = packed
    return buf.view(np.uint64).reshape(lead + (words,))


def unpack_words_to_bits(words_arr, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_to_words`: ``(..., W)`` words -> ``(..., count)`` bits."""
    arr = np.ascontiguousarray(words_arr, dtype=np.uint64)
    if arr.shape[-1] * 64 < count:
        raise ConfigError(f"{arr.shape[-1]} words hold {arr.shape[-1] * 64} bits, need {count}")
    lead = arr.shape[:-1]
    flat = arr.reshape(-1, arr.shape[-1])
    bits = np.unpackbits(flat.view(np.uint8), axis=1, bitorder="little", count=count)
    return bits.reshape(lead + (count,))


# --------------------------------------------------------------------- #
# word-packed bit-matrix transpose (the OT-extension hot path)
# --------------------------------------------------------------------- #
_TILE_STEPS = [
    (np.uint64(32), np.uint64(0xFFFFFFFF00000000)),
    (np.uint64(16), np.uint64(0xFFFF0000FFFF0000)),
    (np.uint64(8), np.uint64(0xFF00FF00FF00FF00)),
    (np.uint64(4), np.uint64(0xF0F0F0F0F0F0F0F0)),
    (np.uint64(2), np.uint64(0xCCCCCCCCCCCCCCCC)),
    (np.uint64(1), np.uint64(0xAAAAAAAAAAAAAAAA)),
]


def _transpose_tiles(tiles: np.ndarray) -> np.ndarray:
    """Transpose 64x64 bit tiles laid out as ``(R64, 64, W)`` uint64.

    ``tiles[rt, r, wc]`` is row ``r`` of the tile at row-tile ``rt``,
    word-column ``wc``; bit ``c`` (LSB-first) is tile column ``c``.
    Butterfly masked swaps (Hacker's Delight 7-3) along the middle axis,
    in place.  Swap partners ``(r, r + j)`` are selected by reshaping
    that axis to ``(64 / 2j, 2, j)`` — plain strided views with the long
    ``W`` axis contiguous, no index gathers.
    """
    r64, _, w = tiles.shape
    for sh, swap_mask in _TILE_STEPS:
        j = int(sh)
        view = tiles.reshape(r64, 32 // j, 2, j, w)
        a = view[:, :, 0]
        b = view[:, :, 1]
        t = b << sh
        t ^= a
        t &= swap_mask
        a ^= t
        t >>= sh
        b ^= t
    return tiles


def transpose_packed(rows: np.ndarray) -> np.ndarray:
    """Transpose a word-packed bit matrix without unpacking to bytes.

    ``rows`` is ``(R, W)`` uint64, the packed rows of an ``(R, W * 64)``
    bit matrix (LSB-first; callers with fewer than ``W * 64`` meaningful
    columns zero-pad).  ``R`` must be a multiple of 64.  Returns the
    packed rows of the transpose, shape ``(W * 64, R // 64)``; output
    rows beyond the caller's true column count are the transposed zero
    padding.
    """
    arr = np.ascontiguousarray(rows, dtype=np.uint64)
    if arr.ndim != 2:
        raise ConfigError(f"expected a 2-D packed matrix, got shape {arr.shape}")
    r, w = arr.shape
    if r % 64 != 0:
        raise ConfigError(f"packed transpose needs a multiple of 64 rows, got {r}")
    if r == 0 or w == 0:
        return np.zeros((w * 64, r // 64), dtype=np.uint64)
    flipped = _transpose_tiles(arr.reshape(r // 64, 64, w).copy())
    # flipped[rt, c_local, wc] is the word of transposed-matrix row
    # wc*64 + c_local at word-column rt.
    return np.ascontiguousarray(flipped.transpose(2, 1, 0)).reshape(w * 64, r // 64)


# --------------------------------------------------------------------- #
# ragged wire codecs: packed rows <-> the bit-contiguous blob format
# --------------------------------------------------------------------- #
def _blob_nbytes(n_rows: int, row_bits: int) -> int:
    return (n_rows * row_bits + 7) // 8


def concat_packed_rows(rows: np.ndarray, row_bits: int) -> bytes:
    """Serialize ``(n_rows, W)`` packed rows to the dense wire blob.

    The blob is byte-identical to ``pack_bits`` of the unpacked
    ``(n_rows, row_bits)`` bit matrix: rows are concatenated at *bit*
    granularity, so for ``row_bits % 8 != 0`` row boundaries are not byte
    aligned.  Bits at positions >= ``row_bits`` in each input row are
    masked off.
    """
    arr = np.ascontiguousarray(rows, dtype=np.uint64)
    if arr.ndim != 2 or arr.shape[1] != (row_bits + 63) // 64:
        raise ConfigError(
            f"expected (n_rows, {(row_bits + 63) // 64}) packed rows for "
            f"{row_bits}-bit rows, got shape {arr.shape}"
        )
    n_rows, words = arr.shape
    if n_rows == 0 or row_bits == 0:
        return b""
    if row_bits % 64:
        arr = arr.copy()
        arr[:, -1] &= np.uint64((1 << (row_bits % 64)) - 1)
    nbytes = _blob_nbytes(n_rows, row_bits)
    if row_bits < 64:
        # One word per row: the rows are row_bits-wide ring elements.
        return pack_ring_words(arr[:, 0], row_bits).tobytes()[:nbytes]
    if row_bits % 8 == 0:
        # Rows are byte aligned: slice each row's bytes and concatenate.
        return arr.view(np.uint8).reshape(n_rows, words * 8)[:, : row_bits // 8].tobytes()
    # General case: every output word draws bits from at most two
    # consecutive rows.  Gather both contributions per word — no scatter,
    # no (n_rows, row_bits) uint8 expansion.
    out_words = (n_rows * row_bits + 63) // 64
    padded = np.zeros((n_rows + 1, words + 1), dtype=np.uint64)
    padded[:n_rows, :words] = arr
    w = np.arange(out_words, dtype=np.int64)
    a = (64 * w) // row_bits  # first contributing row
    q = 64 * w - a * row_bits  # bit offset inside that row
    qw, qs = q // 64, (q % 64).astype(np.uint64)
    chunk = padded[a, qw] >> qs
    high = padded[a, qw + 1] << (np.uint64(64) - qs)
    chunk = chunk | np.where(qs == 0, np.uint64(0), high)
    spill = row_bits - q  # bits of row `a` remaining at this offset
    head_shift = np.clip(spill, 0, 63).astype(np.uint64)
    head = padded[a + 1, 0] << head_shift
    out = chunk | np.where(spill < 64, head, np.uint64(0))
    return out.tobytes()[:nbytes]


def split_packed_rows(data: bytes, n_rows: int, row_bits: int) -> np.ndarray:
    """Inverse of :func:`concat_packed_rows`: blob -> ``(n_rows, W)`` words.

    Tail bits beyond ``row_bits`` in each output row are zero.  Raises
    :class:`ConfigError` when the blob length does not match exactly.
    """
    nbytes = _blob_nbytes(n_rows, row_bits)
    if len(data) != nbytes:
        raise ConfigError(
            f"blob of {len(data)} bytes cannot hold {n_rows} rows of "
            f"{row_bits} bits ({nbytes} bytes expected)"
        )
    words = (row_bits + 63) // 64
    if n_rows == 0 or row_bits == 0:
        return np.zeros((n_rows, words), dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    if row_bits % 8 == 0:
        buf = np.zeros((n_rows, words * 8), dtype=np.uint8)
        buf[:, : row_bits // 8] = raw.reshape(n_rows, row_bits // 8)
        return buf.view(np.uint64).reshape(n_rows, words)
    # Bit-aligned rows: gather each output word from the two blob words
    # it straddles.
    blob_words = (n_rows * row_bits + 63) // 64
    padded = np.zeros(blob_words * 8, dtype=np.uint8)
    padded[: raw.size] = raw
    out = gather_bit_rows(
        padded.view(np.uint64), np.arange(n_rows, dtype=np.int64) * row_bits, row_bits
    )
    if row_bits % 64:
        out[:, -1] &= np.uint64((1 << (row_bits % 64)) - 1)
    return out


def gather_bit_rows(stream: np.ndarray, starts, row_bits: int) -> np.ndarray:
    """The ``row_bits``-bit rows of a packed bit stream that start at bit
    offsets ``starts``, as ``(len(starts), ceil(row_bits / 64))`` words.

    Every row must lie inside the stream.  Bits of an output row past
    ``row_bits`` are unspecified (they are the stream's next bits).  Each
    output word is gathered from the two stream words it straddles; a
    row's shift is constant across its words.
    """
    words = np.asarray(stream, dtype=np.uint64)
    start = np.asarray(starts, dtype=np.int64)
    last = words.shape[0] - 1
    first = (start // 64)[:, None] + np.arange((row_bits + 63) // 64, dtype=np.int64)[None, :]
    shift = (start % 64).astype(np.uint64)[:, None]
    low = words[np.minimum(first, last)] >> shift
    high = words[np.minimum(first + 1, last)] << (np.uint64(64) - shift)
    return low | np.where(shift == 0, np.uint64(0), high)


def packed_word_count(count: int, bits: int) -> int:
    """uint64 words needed to carry ``count`` ``bits``-wide ring elements."""
    return (count * bits + 63) // 64


def _period(count: int, bits: int) -> int:
    """Elements per shift-or step: ``64 / gcd(bits, 64)``, after which
    element and word boundaries line up again, or the whole row when it
    is shorter."""
    return min(count, 64 // math.gcd(bits, 64))


#: Elements of one cache-sized pass of :func:`pack_ring_words` (512 KiB
#: of uint64): each output word reads ``bits``-strided element columns,
#: which stay in cache only over a bounded run of periods.
_PACK_BLOCK_ELEMS = 1 << 16
#: Widths whose elements tile a word exactly in a native unsigned dtype.
_WORD_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4"}


@functools.lru_cache(maxsize=None)
def _pack_plan(period: int, bits: int) -> tuple[tuple[tuple[int, int, bool], ...], ...]:
    """Per output word of one period: ``(element, shift, left)`` terms —
    an element shifted left into the word it starts in, and shifted
    right into the next word when it straddles."""
    plan: list[list[tuple[int, int, bool]]] = [[] for _ in range(packed_word_count(period, bits))]
    for j in range(period):
        word, shift = divmod(j * bits, 64)
        plan[word].append((j, shift, True))
        if shift + bits > 64:
            plan[word + 1].append((j, 64 - shift, False))
    return tuple(tuple(terms) for terms in plan)


def pack_ring_words(arr: np.ndarray, bits: int) -> np.ndarray:
    """Pack ``bits``-wide ring elements into dense uint64 words.

    ``arr`` has shape ``(..., count)`` of uint64 values below ``2**bits``;
    the result has shape ``(..., packed_word_count(count, bits))``: the
    row's elements back to back, LSB-first, element ``i`` at stream bits
    ``[i * bits, (i + 1) * bits)``.  This is what keeps OT message sizes
    faithful to the paper's bit counts (e.g. ``o * l * (N - 1)`` bits per
    triplet OT) instead of always paying 64 bits per element.

    At 8, 16 and 32 bits the stream is the elements cast to that width
    and read as words.  Every other width cuts the row into periods of
    :func:`_period` elements, which fill a whole number of words, and
    writes each word of the period once, as the OR of its
    :func:`_pack_plan` terms, over a cache-sized run of periods at a time.
    """
    a = np.asarray(arr, dtype=np.uint64)
    count = a.shape[-1]
    lead = a.shape[:-1]
    n_words = packed_word_count(count, bits)
    if bits in _WORD_DTYPES:
        narrow = np.zeros(lead + (n_words * 64 // bits,), dtype=_WORD_DTYPES[bits])
        narrow[..., :count] = a
        return narrow.view("<u8").astype(np.uint64, copy=False)
    period = _period(count, bits)
    if period == 0:
        return np.zeros(lead + (0,), dtype=np.uint64)
    groups = -(-count // period)
    flat = a.reshape(-1, count)
    if groups * period != count:
        padded = np.zeros((flat.shape[0], groups * period), dtype=np.uint64)
        padded[:, :count] = flat
        flat = padded
    elems = flat.reshape(-1, period)
    plan = _pack_plan(period, bits)
    out = np.empty((elems.shape[0], len(plan)), dtype=np.uint64)
    step = max(1, _PACK_BLOCK_ELEMS // period)
    tmp = np.empty(step, dtype=np.uint64)
    for lo in range(0, elems.shape[0], step):
        block, dst_block = elems[lo : lo + step], out[lo : lo + step]
        spare = tmp[: block.shape[0]]
        for word, terms in enumerate(plan):
            dst = dst_block[:, word]
            for t, (j, shift, left) in enumerate(terms):
                shift_op = np.left_shift if left else np.right_shift
                shift_op(block[:, j], np.uint64(shift), out=dst if t == 0 else spare)
                if t:
                    dst |= spare
    out = out.reshape(lead + (groups * len(plan),))
    return out if groups * len(plan) == n_words else np.ascontiguousarray(out[..., :n_words])


def unpack_ring_words(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_ring_words`; returns ``(..., count)`` uint64."""
    p = np.asarray(packed, dtype=np.uint64)
    n_words = packed_word_count(count, bits)
    if p.shape[-1] != n_words:
        raise ConfigError(
            f"expected {n_words} words for {count}x{bits}-bit elements, got {p.shape[-1]}"
        )
    lead = p.shape[:-1]
    period = _period(count, bits)
    if period == 0:
        return np.zeros(lead + (0,), dtype=np.uint64)
    groups = -(-count // period)
    span = packed_word_count(period, bits)
    flat = p.reshape(-1, n_words)
    if groups * span != n_words:
        padded = np.zeros((flat.shape[0], groups * span), dtype=np.uint64)
        padded[:, :n_words] = flat
        flat = padded
    words = flat.reshape(-1, groups, span)
    mask = np.uint64((1 << bits) - 1)
    out = np.empty((words.shape[0], groups, period), dtype=np.uint64)
    for j in range(period):
        word, shift = divmod(j * bits, 64)
        elem = words[:, :, word] >> np.uint64(shift)
        if shift + bits > 64:
            elem |= words[:, :, word + 1] << np.uint64(64 - shift)
        if bits < 64:
            elem &= mask
        out[:, :, j] = elem
    out = out.reshape(lead + (groups * period,))
    return out if groups * period == count else np.ascontiguousarray(out[..., :count])
