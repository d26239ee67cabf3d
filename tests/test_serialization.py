"""Channel message encoding: roundtrips, sizes, malformed input."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.utils import serialization as ser


class TestRoundtrip:
    def test_bytes(self):
        assert ser.decode(ser.encode(b"hello")) == b"hello"

    def test_empty_bytes(self):
        assert ser.decode(ser.encode(b"")) == b""

    def test_int(self):
        assert ser.decode(ser.encode(42)) == 42
        assert ser.decode(ser.encode(-7)) == -7

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.int32, np.int64, np.bool_]
    )
    def test_arrays(self, dtype, rng):
        arr = rng.integers(0, 100, size=(3, 4)).astype(dtype)
        out = ser.decode(ser.encode(arr))
        assert out.dtype == arr.dtype
        assert (out == arr).all()

    def test_scalar_shape_array(self):
        arr = np.array(5, dtype=np.uint64)
        out = ser.decode(ser.encode(arr))
        assert out.shape == ()
        assert out == 5

    def test_tuple_nested(self):
        obj = (b"abc", 5, np.arange(3, dtype=np.uint64), (1, 2))
        out = ser.decode(ser.encode(obj))
        assert out[0] == b"abc" and out[1] == 5
        assert (out[2] == np.arange(3)).all()
        assert out[3] == (1, 2)

    def test_noncontiguous_array(self):
        arr = np.arange(20, dtype=np.uint64).reshape(4, 5)[:, ::2]
        assert (ser.decode(ser.encode(arr)) == arr).all()


def _sample_objects(rng):
    return [
        b"",
        b"short",
        bytes(rng.integers(0, 255, size=100, dtype=np.uint8)),
        0,
        -(1 << 40),
        rng.integers(0, 1 << 30, size=(3, 4), dtype=np.uint64),
        rng.integers(0, 2, size=17, dtype=np.bool_),
        np.array(9, dtype=np.uint16),
        (b"tag", 7, rng.integers(0, 99, size=(2, 5), dtype=np.uint32)),
        ((1, (2, b"x")), np.arange(6, dtype=np.int64)),
    ]


class TestTruncationFuzz:
    """Every strict prefix of a valid encoding must be rejected loudly."""

    def test_all_prefixes_raise(self, rng):
        for obj in _sample_objects(rng):
            data = ser.encode(obj)
            for cut in range(len(data)):
                with pytest.raises(ProtocolError):
                    ser.decode(data[:cut])

    def test_short_bytes_payload(self):
        data = ser.encode(b"0123456789")
        with pytest.raises(ProtocolError, match="truncated"):
            ser.decode(data[:-3])

    def test_short_array_payload(self, rng):
        data = ser.encode(rng.integers(0, 9, size=32, dtype=np.uint64))
        with pytest.raises(ProtocolError, match="truncated"):
            ser.decode(data[:-1])

    def test_tuple_missing_items(self):
        data = ser.encode((1, 2, 3))
        # Cut inside the third item: the tuple header still promises 3.
        with pytest.raises(ProtocolError):
            ser.decode(data[:-5])


class TestMutationFuzz:
    """Random byte flips must never escape the ProtocolError taxonomy.

    A mutation may still decode (flips inside payload bytes are data the
    CRC layer, not the decoder, is responsible for) — but the decoder
    must never throw anything other than ProtocolError, and never
    allocate absurd amounts from a corrupted length field.
    """

    def test_mutations_fail_typed_or_decode(self, rng):
        objects = _sample_objects(rng)
        for obj in objects:
            data = bytearray(ser.encode(obj))
            for trial in range(200):
                bad = bytearray(data)
                for _ in range(rng.integers(1, 4)):
                    pos = rng.integers(0, len(bad))
                    bad[pos] ^= 1 << rng.integers(0, 8)
                try:
                    ser.decode(bytes(bad))
                except ProtocolError:
                    pass  # typed rejection: the contract

    def test_huge_length_field_rejected_not_allocated(self):
        # A corrupted bytes-length of 2^63 must raise, not allocate.
        data = bytearray(ser.encode(b"abcd"))
        data[1:9] = (1 << 63).to_bytes(8, "little")
        with pytest.raises(ProtocolError, match="truncated"):
            ser.decode(bytes(data))

    def test_huge_array_shape_rejected(self, rng):
        data = bytearray(ser.encode(np.zeros((2, 2), dtype=np.uint64)))
        # Overwrite the first shape dim (offset 3: tag+code+ndim) with 2^60.
        data[3:11] = (1 << 60).to_bytes(8, "little")
        with pytest.raises(ProtocolError, match="truncated"):
            ser.decode(bytes(data))

    def test_shape_overflow_does_not_wrap(self):
        # Two dims whose int64 product would wrap to something small.
        arr = np.zeros((1, 1), dtype=np.uint8)
        data = bytearray(ser.encode(arr))
        big = 1 << 32
        data[3:11] = big.to_bytes(8, "little")
        data[11:19] = big.to_bytes(8, "little")  # product = 2^64 ≡ 0 in int64
        with pytest.raises(ProtocolError, match="truncated"):
            ser.decode(bytes(data))

    def test_unknown_dtype_code_rejected(self, rng):
        data = bytearray(ser.encode(np.zeros(3, dtype=np.uint8)))
        data[1] = 250  # dtype code far outside the registry
        with pytest.raises(ProtocolError, match="dtype"):
            ser.decode(bytes(data))


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(ProtocolError):
            ser.encode({"a": 1})

    def test_unsupported_dtype(self):
        with pytest.raises(ProtocolError):
            ser.encode(np.zeros(2, dtype=np.float64))

    def test_trailing_garbage(self):
        with pytest.raises(ProtocolError):
            ser.decode(ser.encode(5) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises((ProtocolError, IndexError, KeyError)):
            ser.decode(b"\xff")


class TestPayloadSize:
    def test_bytes_size(self):
        assert ser.payload_nbytes(b"abcd") == 4

    def test_array_size(self):
        assert ser.payload_nbytes(np.zeros((2, 3), dtype=np.uint32)) == 24

    def test_int_size(self):
        assert ser.payload_nbytes(7) == 8

    def test_tuple_size(self):
        assert ser.payload_nbytes((b"ab", np.zeros(2, dtype=np.uint64))) == 2 + 16

    def test_size_error(self):
        with pytest.raises(ProtocolError):
            ser.payload_nbytes(3.14)


def _reference_encode(obj):
    """The two-copy encoder the one-copy :func:`ser.encode` replaced."""
    import struct

    if isinstance(obj, (bytes, bytearray)):
        return struct.pack("<BQ", 0, len(obj)) + bytes(obj)
    if isinstance(obj, np.ndarray):
        shape = obj.shape
        head = struct.pack("<BBB", 1, ser._DTYPE_CODES[obj.dtype], len(shape))
        head += struct.pack(f"<{len(shape)}Q", *shape)
        return head + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, (int, np.integer)):
        return struct.pack("<Bq", 2, int(obj))
    body = b"".join(_reference_encode(item) for item in obj)
    return struct.pack("<BI", 3, len(obj)) + body


class TestByteIdentity:
    """The one-copy encoder emits exactly the bytes of the two-copy one."""

    @pytest.mark.parametrize("dtype", list(ser._DTYPES.values()), ids=str)
    @pytest.mark.parametrize(
        "shape", [(), (0,), (0, 2), (2, 0, 3), (7,), (3, 5), (2, 3, 4)], ids=str
    )
    def test_every_dtype_and_shape(self, dtype, shape, rng):
        arr = rng.integers(0, 200, size=shape).astype(dtype)
        assert ser.encode(arr) == _reference_encode(arr)

    @pytest.mark.parametrize("dtype", list(ser._DTYPES.values()), ids=str)
    def test_noncontiguous_views(self, dtype, rng):
        base = rng.integers(0, 200, size=(6, 8)).astype(dtype)
        for view in (base.T, base[::2], base[:, 1::3], base[::-1, ::2], base.T[2:0:-1]):
            assert not view.flags.c_contiguous or view.size <= 1
            assert ser.encode(view) == _reference_encode(view)
            assert (ser.decode(ser.encode(view)) == view).all()

    def test_gc_row_table_frame(self):
        # The GC frame's empty (0, 2) row table inside a tuple.
        frame = (np.zeros((0, 2), dtype=np.uint64), np.arange(8, dtype=np.uint8), 3)
        assert ser.encode(frame) == _reference_encode(frame)

    def test_nested_tuples_and_bytearray(self, rng):
        obj = (
            bytearray(b"ab"),
            (),
            ((1, (b"", np.zeros((4, 0), dtype=np.uint32))), rng.integers(0, 9, size=(3, 3)).T),
            np.uint16(5),
        )
        assert ser.encode(obj) == _reference_encode(obj)
        for sample in _sample_objects(rng):
            assert ser.encode(sample) == _reference_encode(sample)
