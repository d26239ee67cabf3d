"""Compact, dependency-free message encoding for protocol traffic.

Channel messages are the unit of communication accounting, so the encoding
must be tight and predictable: a one-byte tag, then a fixed header, then
raw little-endian payload bytes.  Supported payloads are ``bytes``,
``numpy`` integer arrays, and python ints; tuples of those are encoded as
a length-prefixed sequence.

The byte counts reported in EXPERIMENTS.md use the *payload* size (what a
wire protocol would actually carry), which :func:`payload_nbytes` computes
without serializing.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.errors import ProtocolError

_TAG_BYTES = 0
_TAG_ARRAY = 1
_TAG_INT = 2
_TAG_TUPLE = 3

_DTYPES = {
    0: np.dtype(np.uint8),
    1: np.dtype(np.uint16),
    2: np.dtype(np.uint32),
    3: np.dtype(np.uint64),
    4: np.dtype(np.int64),
    5: np.dtype(np.int32),
    6: np.dtype(np.bool_),
}
_DTYPE_CODES = {dt: code for code, dt in _DTYPES.items()}


def encode(obj: Any) -> bytes:
    """Serialize a supported object to bytes.

    Headers and payload buffers are collected first and joined once, so
    an array payload is copied exactly once, into the returned frame.
    """
    parts: list = []
    _encode_parts(obj, parts)
    return b"".join(parts)


def _encode_parts(obj: Any, parts: list) -> None:
    if isinstance(obj, (bytes, bytearray)):
        parts += (struct.pack("<BQ", _TAG_BYTES, len(obj)), obj)
    elif isinstance(obj, np.ndarray):
        dt = obj.dtype
        if dt not in _DTYPE_CODES:
            raise ProtocolError(f"unsupported array dtype {dt}")
        shape = obj.shape
        parts.append(
            struct.pack(f"<BBB{len(shape)}Q", _TAG_ARRAY, _DTYPE_CODES[dt], len(shape), *shape)
        )
        # A flat uint8 view exports a plain buffer for every shape,
        # zero-size ones included (memoryview.cast rejects those).
        parts.append(np.ascontiguousarray(obj).reshape(-1).view(np.uint8))
    elif isinstance(obj, (int, np.integer)):
        parts.append(struct.pack("<Bq", _TAG_INT, int(obj)))
    elif isinstance(obj, tuple):
        parts.append(struct.pack("<BI", _TAG_TUPLE, len(obj)))
        for item in obj:
            _encode_parts(item, parts)
    else:
        raise ProtocolError(f"cannot encode object of type {type(obj).__name__}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    obj, offset = _decode_at(data, 0)
    if offset != len(data):
        raise ProtocolError(f"trailing {len(data) - offset} bytes after message")
    return obj


def _need(data: bytes, offset: int, nbytes: int, what: str) -> None:
    """Reject truncated input before slicing: ``data[a:b]`` never raises."""
    if nbytes < 0 or offset + nbytes > len(data):
        raise ProtocolError(
            f"truncated message: need {nbytes} bytes for {what} at offset "
            f"{offset}, have {len(data) - offset}"
        )


def _decode_at(data: bytes, offset: int):
    _need(data, offset, 1, "tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_BYTES:
        _need(data, offset, 8, "bytes header")
        (length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        _need(data, offset, length, "bytes payload")
        return data[offset : offset + length], offset + length
    if tag == _TAG_ARRAY:
        _need(data, offset, 2, "array header")
        code, ndim = struct.unpack_from("<BB", data, offset)
        offset += 2
        if code not in _DTYPES:
            raise ProtocolError(f"unknown array dtype code {code}")
        _need(data, offset, 8 * ndim, "array shape")
        shape = struct.unpack_from(f"<{ndim}Q", data, offset)
        offset += 8 * ndim
        dt = _DTYPES[code]
        count = 1  # python ints: huge (corrupted) dims must not wrap around
        for dim in shape:
            count *= dim
        nbytes = count * dt.itemsize
        _need(data, offset, nbytes, "array payload")
        arr = np.frombuffer(data, dtype=dt, count=count, offset=offset).reshape(shape)
        return arr.copy(), offset + nbytes
    if tag == _TAG_INT:
        _need(data, offset, 8, "int payload")
        (value,) = struct.unpack_from("<q", data, offset)
        return value, offset + 8
    if tag == _TAG_TUPLE:
        _need(data, offset, 4, "tuple header")
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return tuple(items), offset
    raise ProtocolError(f"unknown message tag {tag}")


def payload_nbytes(obj: Any) -> int:
    """Wire size of the raw payload, excluding framing/tag overhead.

    This is the figure the paper's communication columns report: element
    bytes for arrays, string length for bytes, 8 for a scalar.
    """
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, tuple):
        return sum(payload_nbytes(item) for item in obj)
    raise ProtocolError(f"cannot size object of type {type(obj).__name__}")
