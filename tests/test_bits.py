"""Bit packing utilities: int<->bits, byte packing, ring-element packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastro
from repro.errors import ConfigError
from repro.utils.bits import (
    bits_to_int,
    concat_packed_rows,
    gather_bit_rows,
    int_to_bits,
    pack_bits,
    pack_bits_to_words,
    pack_ring_words,
    packed_word_count,
    split_packed_rows,
    transpose_bit_matrix,
    transpose_packed,
    unpack_bits,
    unpack_ring_words,
    unpack_words_to_bits,
)


class TestIntBits:
    def test_lsb_first(self):
        bits = int_to_bits(np.uint64(6), 4)
        assert bits.tolist() == [0, 1, 1, 0]

    def test_roundtrip_array(self, rng):
        values = rng.integers(0, 1 << 32, size=(3, 5), dtype=np.uint64)
        assert (bits_to_int(int_to_bits(values, 32)) == values).all()

    @pytest.mark.parametrize("bits", [0, 65])
    def test_invalid_width(self, bits):
        with pytest.raises(ConfigError):
            int_to_bits(np.uint64(1), bits)

    def test_bits_to_int_width_check(self):
        with pytest.raises(ConfigError):
            bits_to_int(np.zeros((1, 65), dtype=np.uint8))

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, value):
        assert int(bits_to_int(int_to_bits(np.uint64(value), 64))) == value


class TestBytePacking:
    def test_pack_unpack_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=123, dtype=np.uint8)
        assert (unpack_bits(pack_bits(bits), 123) == bits).all()

    def test_unpack_too_short(self):
        with pytest.raises(ConfigError):
            unpack_bits(b"\x00", 9)

    def test_transpose(self):
        mat = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        assert (transpose_bit_matrix(mat) == mat.T).all()

    def test_transpose_requires_2d(self):
        with pytest.raises(ConfigError):
            transpose_bit_matrix(np.zeros(4, dtype=np.uint8))


class TestRingPacking:
    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_fast_path_roundtrip(self, bits, rng):
        count = 13
        vals = rng.integers(0, 1 << min(bits, 63), size=(4, count), dtype=np.uint64)
        if bits < 64:
            vals &= np.uint64((1 << bits) - 1)
        packed = pack_ring_words(vals, bits)
        assert packed.shape == (4, packed_word_count(count, bits))
        assert (unpack_ring_words(packed, bits, count) == vals).all()

    @pytest.mark.parametrize("bits", [3, 17, 33, 63])
    def test_generic_path_roundtrip(self, bits, rng):
        count = 9
        vals = rng.integers(0, 1 << bits, size=(2, 3, count), dtype=np.uint64)
        packed = pack_ring_words(vals, bits)
        assert (unpack_ring_words(packed, bits, count) == vals).all()

    def test_word_counts(self):
        assert packed_word_count(128, 32) == 64
        assert packed_word_count(1, 32) == 1
        assert packed_word_count(3, 32) == 2
        assert packed_word_count(5, 13) == 2

    def test_density_is_exact_for_aligned_sizes(self, rng):
        # 128 x 32-bit elements must occupy exactly 64 words (no padding):
        # this is what keeps OT message traffic faithful to the paper.
        vals = rng.integers(0, 1 << 32, size=(1, 128), dtype=np.uint64)
        assert pack_ring_words(vals, 32).shape == (1, 64)

    def test_unpack_wrong_word_count(self):
        with pytest.raises(ConfigError):
            unpack_ring_words(np.zeros((1, 3), dtype=np.uint64), 32, 128)

    @given(
        bits=st.integers(1, 64),
        values=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, bits, values):
        mask = (1 << bits) - 1
        vals = np.array([v & mask for v in values], dtype=np.uint64)[None, :]
        packed = pack_ring_words(vals, bits)
        assert (unpack_ring_words(packed, bits, vals.shape[1]) == vals).all()


def _ref_pack_ring_words(arr, bits):
    """The bit-matrix packer the word-level one replaced, kept as the
    reference: every element to ``bits`` LSB-first bits, rows of bits
    padded to whole words and packed with ``numpy.packbits``."""
    a = np.asarray(arr, dtype=np.uint64)
    count = a.shape[-1]
    flat = a.reshape(-1, count)
    bit_rows = int_to_bits(flat, bits).reshape(flat.shape[0], count * bits)
    n_words = packed_word_count(count, bits)
    padded = np.zeros((flat.shape[0], n_words * 64), dtype=np.uint8)
    padded[:, : count * bits] = bit_rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(a.shape[:-1] + (n_words,))


class TestRingPackingReference:
    """The one word-level packer against the old bit-matrix packer, byte
    for byte, at every width: counts below, at and above the period
    ``64 / gcd(bits, 64)``, zero-size, ragged and leading-dimension
    shapes."""

    SHAPES = [(0,), (4, 0), (1,), (3,), (2, 7), (5, 31), (32,), (2, 33), (64,),
              (3, 65), (1, 130), (2, 3, 9), (4, 1, 200)]

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_byte_identical_and_round_trip(self, bits):
        local = np.random.default_rng(bits)
        mask = np.uint64((1 << bits) - 1)
        for shape in self.SHAPES:
            vals = local.integers(0, 1 << 63, size=shape, dtype=np.uint64) << np.uint64(1)
            vals = (vals | local.integers(0, 2, size=shape, dtype=np.uint64)) & mask
            packed = pack_ring_words(vals, bits)
            assert packed.shape == shape[:-1] + (packed_word_count(shape[-1], bits),)
            if vals.size:
                assert (packed == _ref_pack_ring_words(vals, bits)).all(), (bits, shape)
            assert (unpack_ring_words(packed, bits, shape[-1]) == vals).all(), (bits, shape)

    def test_a_full_period_fills_whole_words(self):
        # 22 bits: a 32-element period fills exactly 11 words.
        vals = np.arange(32, dtype=np.uint64)[None, :] * np.uint64(123457)
        assert pack_ring_words(vals, 22).shape == (1, 11)
        assert (pack_ring_words(vals, 22) == _ref_pack_ring_words(vals, 22)).all()


class TestGatherBitRows:
    @pytest.mark.parametrize("row_bits", [1, 22, 64, 100, 176])
    def test_rows_at_any_offset(self, row_bits, rng):
        bits = rng.integers(0, 2, size=1000, dtype=np.uint8)
        stream = _ref_packed(bits[None, :])[0]
        starts = rng.integers(0, 1000 - row_bits + 1, size=50)
        got = gather_bit_rows(stream, starts, row_bits)
        assert got.shape == (50, (row_bits + 63) // 64)
        rows = unpack_words_to_bits(got, row_bits)
        for start, row in zip(starts, rows):
            assert (row == bits[start : start + row_bits]).all()


def _ref_packed(bits_mat):
    """Reference word packer via numpy packbits (LSB-first)."""
    rows, n = bits_mat.shape
    words = (n + 63) // 64
    buf = np.zeros((rows, words * 64), dtype=np.uint8)
    buf[:, :n] = bits_mat
    return np.packbits(buf, axis=1, bitorder="little").view(np.uint64).reshape(rows, words)


class TestWordPacking:
    def test_pack_bits_to_words_matches_reference(self, rng):
        bits = rng.integers(0, 2, size=(5, 130), dtype=np.uint8)
        assert (pack_bits_to_words(bits) == _ref_packed(bits)).all()

    def test_unpack_words_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(3, 77), dtype=np.uint8)
        assert (unpack_words_to_bits(pack_bits_to_words(bits), 77) == bits).all()

    def test_unpack_too_few_words(self):
        with pytest.raises(ConfigError):
            unpack_words_to_bits(np.zeros((2, 1), dtype=np.uint64), 65)


class TestPackedTranspose:
    """The 64x64-block bit transpose behind vectorized OT extension."""

    @pytest.mark.parametrize("shape", [(64, 64), (128, 100), (256, 1), (192, 130)])
    def test_matches_unpacked_transpose(self, shape, rng):
        r, c = shape
        bits = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        out = transpose_packed(_ref_packed(bits))
        words = (c + 63) // 64
        assert out.shape == (words * 64, r // 64)
        assert (out[:c] == _ref_packed(np.ascontiguousarray(bits.T))).all()
        # Padding columns transpose to all-zero rows.
        assert not out[c:].any()

    def test_double_transpose_is_identity(self, rng):
        rows = rng.integers(0, 1 << 63, size=(128, 2), dtype=np.uint64)
        assert (transpose_packed(transpose_packed(rows)) == rows).all()

    def test_rejects_non_multiple_of_64_rows(self):
        # The documented contract: row counts must be word-aligned; callers
        # zero-pad (columns may be ragged, rows may not).
        with pytest.raises(ConfigError):
            transpose_packed(np.zeros((100, 2), dtype=np.uint64))

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigError):
            transpose_packed(np.zeros(64, dtype=np.uint64))

    @given(
        r_tiles=st.integers(1, 3),
        c=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_transpose_property(self, r_tiles, c, seed):
        local = np.random.default_rng(seed)
        bits = local.integers(0, 2, size=(r_tiles * 64, c), dtype=np.uint8)
        out = transpose_packed(_ref_packed(bits))
        assert (out[:c] == _ref_packed(np.ascontiguousarray(bits.T))).all()


class TestPackedRowCodec:
    """Wire blob <-> packed rows, byte-identical to pack_bits of the matrix."""

    @pytest.mark.parametrize(
        "shape", [(128, 64), (128, 300), (256, 77), (64, 63), (3, 40), (131, 20), (77, 1), (9, 32)]
    )
    def test_concat_matches_pack_bits(self, shape, rng):
        rows, n = shape
        bits = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
        assert concat_packed_rows(_ref_packed(bits), n) == pack_bits(bits)

    @pytest.mark.parametrize("shape", [(128, 64), (128, 300), (256, 77), (64, 63), (3, 40)])
    def test_split_roundtrip(self, shape, rng):
        rows, n = shape
        bits = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
        packed = _ref_packed(bits)
        assert (split_packed_rows(pack_bits(bits), rows, n) == packed).all()

    def test_concat_masks_stray_tail_bits(self):
        rows = np.full((2, 1), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        blob = concat_packed_rows(rows, 60)
        assert split_packed_rows(blob, 2, 60).max() == np.uint64((1 << 60) - 1)

    def test_split_rejects_wrong_length(self):
        with pytest.raises(ConfigError):
            split_packed_rows(b"\x00" * 10, 4, 17)

    def test_concat_rejects_wrong_width(self):
        with pytest.raises(ConfigError):
            concat_packed_rows(np.zeros((4, 2), dtype=np.uint64), 64)

    @given(
        rows=st.integers(1, 40),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_codec_property(self, rows, n, seed):
        local = np.random.default_rng(seed)
        bits = local.integers(0, 2, size=(rows, n), dtype=np.uint8)
        packed = _ref_packed(bits)
        blob = concat_packed_rows(packed, n)
        assert blob == pack_bits(bits)
        assert (split_packed_rows(blob, rows, n) == packed).all()


class TestKernelTranspose:
    """The compiled 64x64 tile transpose the OT extension calls
    (:func:`repro.crypto.fastro.transpose_packed`) returns the words of
    the numpy :func:`transpose_packed`, and is that function when the
    kernel is not loaded."""

    @pytest.mark.parametrize("shape", [(64, 1), (128, 3), (192, 2048), (256, 77), (64, 0)])
    def test_matches_numpy(self, shape, rng):
        rows = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64, endpoint=False)
        got = fastro.transpose_packed(rows)
        assert got.shape == (shape[1] * 64, shape[0] // 64)
        assert (got == transpose_packed(rows)).all()

    def test_reference_when_unloaded(self, rng, monkeypatch):
        rows = rng.integers(0, 1 << 64, size=(128, 5), dtype=np.uint64, endpoint=False)
        want = fastro.transpose_packed(rows)
        monkeypatch.setattr(fastro, "_kernel", False)
        assert (fastro.transpose_packed(rows) == want).all()

    def test_same_errors(self):
        with pytest.raises(ConfigError):
            fastro.transpose_packed(np.zeros((100, 2), dtype=np.uint64))
        with pytest.raises(ConfigError):
            fastro.transpose_packed(np.zeros(64, dtype=np.uint64))
