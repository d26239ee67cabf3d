"""The frame contract: a peer's frame is checked where it is received.

A receive site names the frame it expects and checks its kind and size
before reading a word of it, so a malformed frame (a non-array, another
dtype or shape, bytes of another length) raises one
:class:`~repro.errors.ProtocolError` naming that frame instead of an
``AttributeError`` or a silently misread share further on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError


def checked_frame(frame, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A peer's frame of uint64 words of ``shape``: anything else (a
    non-array, another dtype or shape) raises :class:`ProtocolError`."""
    if not (isinstance(frame, np.ndarray) and frame.dtype == np.uint64 and frame.shape == shape):
        got = (
            f"{frame.dtype} {frame.shape}" if isinstance(frame, np.ndarray)
            else type(frame).__name__
        )
        raise ProtocolError(f"{what}: expected {shape} uint64 words, got {got}")
    return frame


def checked_bytes(frame, length: int | None, what: str) -> bytes:
    """A peer's frame of exactly ``length`` bytes (of any length when
    ``length`` is None): anything else raises :class:`ProtocolError`."""
    if not isinstance(frame, (bytes, bytearray)):
        raise ProtocolError(f"{what}: expected bytes, got {type(frame).__name__}")
    if length is not None and len(frame) != length:
        raise ProtocolError(f"{what}: expected {length} bytes, got {len(frame)}")
    return bytes(frame)
