"""Arithmetic over the ring Z_{2^l} backed by numpy uint64 arrays.

All secret shares in ABNN2 live in Z_{2^l} for some bit width ``l <= 64``
(the paper uses l = 32 and l = 64).  This module centralizes the masking
discipline: every value is stored as ``numpy.uint64`` and reduced modulo
``2**l`` after each operation, so protocol code never hand-rolls masks.

The class is deliberately small and stateless apart from the width; it is
safe to share one :class:`Ring` instance between both protocol parties.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError

_U64 = np.uint64

#: Word budget for the expanded (rows, n, cols) intermediate inside
#: :meth:`Ring.matmul` — the uint64 product is materialized in row chunks
#: no larger than this, bounding the transient at ~8 MiB regardless of
#: the matrix sizes.  The memory cost model prices the same constant.
MATMUL_EXPANSION_WORDS = 1 << 20


class Ring:
    """The ring of integers modulo ``2**bits`` for ``1 <= bits <= 64``.

    Elements are represented as ``numpy.uint64`` scalars or arrays whose
    values are always strictly below ``2**bits``.  Arithmetic helpers
    (:meth:`add`, :meth:`sub`, :meth:`mul`, :meth:`neg`) apply the modular
    reduction; :meth:`reduce` canonicalizes arbitrary integer input.
    """

    __slots__ = ("bits", "modulus", "_mask")

    def __init__(self, bits: int) -> None:
        if not 1 <= bits <= 64:
            raise ConfigError(f"ring width must be in [1, 64], got {bits}")
        self.bits = int(bits)
        self.modulus = 1 << self.bits
        # For bits == 64 the mask is all ones and uint64 wraps natively.
        self._mask = _U64((1 << self.bits) - 1 if self.bits < 64 else 0xFFFFFFFFFFFFFFFF)

    # ------------------------------------------------------------------ #
    # canonicalization
    # ------------------------------------------------------------------ #
    def reduce(self, x) -> np.ndarray:
        """Map arbitrary integers (python ints, signed arrays) into the ring."""
        arr = np.asarray(x)
        if arr.dtype.kind == "f":
            raise ConfigError("ring elements must be integers, got floats")
        # Signed values are mapped via two's complement, matching the
        # fixed-point encoding used throughout the paper.
        out = arr.astype(np.int64, copy=False).astype(_U64)
        return out & self._mask

    def zeros(self, shape) -> np.ndarray:
        """An all-zero ring array of the given shape."""
        return np.zeros(shape, dtype=_U64)

    # ------------------------------------------------------------------ #
    # modular arithmetic
    # ------------------------------------------------------------------ #
    def add(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=_U64) + np.asarray(b, dtype=_U64)) & self._mask

    def sub(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=_U64) - np.asarray(b, dtype=_U64)) & self._mask

    def neg(self, a) -> np.ndarray:
        return (-np.asarray(a, dtype=_U64)) & self._mask

    def mul(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=_U64) * np.asarray(b, dtype=_U64)) & self._mask

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product with wraparound semantics.

        numpy's ``@`` refuses uint64 overflow handling on some BLAS paths,
        so we go through explicit elementwise products and sums, which wrap
        correctly for unsigned dtypes.
        """
        a = np.asarray(a, dtype=_U64)
        b = np.asarray(b, dtype=_U64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ConfigError(f"incompatible matmul shapes {a.shape} x {b.shape}")
        # (m, n, 1) * (1, n, o) summed over n, chunked over rows so the
        # expanded intermediate stays within MATMUL_EXPANSION_WORDS (each
        # row chunk still amortizes the python loop over >= a million
        # multiply-adds).  The memory cost model prices this same bound
        # (repro.perf.costmodel.linear_working_set_bytes).
        m = a.shape[0]
        out = np.empty((m, b.shape[1]), dtype=_U64)
        chunk = max(1, MATMUL_EXPANSION_WORDS // max(1, b.size))
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            prod = a[lo:hi, :, None] * b[None, :, :]
            out[lo:hi] = prod.sum(axis=1, dtype=_U64)
        return out & self._mask

    def dot(self, a, b) -> np.uint64:
        """Inner product of two 1-D ring vectors."""
        a = np.asarray(a, dtype=_U64)
        b = np.asarray(b, dtype=_U64)
        if a.shape != b.shape or a.ndim != 1:
            raise ConfigError(f"incompatible dot shapes {a.shape} . {b.shape}")
        return _U64((a * b).sum(dtype=_U64)) & self._mask

    def sum(self, a, axis=None) -> np.ndarray:
        return np.asarray(a, dtype=_U64).sum(axis=axis, dtype=_U64) & self._mask

    # ------------------------------------------------------------------ #
    # signed interpretation (fixed-point decode)
    # ------------------------------------------------------------------ #
    def to_signed(self, a) -> np.ndarray:
        """Interpret ring elements as two's-complement signed integers."""
        arr = np.asarray(a, dtype=_U64)
        if self.bits == 64:
            # uint64 -> int64 reinterpretation is exactly two's complement.
            # (ascontiguousarray would promote 0-d inputs to 1-d, so keep
            # the original shape explicitly.)
            flat = np.ascontiguousarray(arr).reshape(-1)
            return flat.view(np.int64).reshape(arr.shape).copy()
        half = _U64(1) << _U64(self.bits - 1)
        signed = arr.astype(np.int64)
        return np.where(arr >= half, signed - np.int64(self.modulus), signed)

    def sample(self, rng: np.random.Generator, shape=()) -> np.ndarray:
        """Uniformly random ring elements."""
        raw = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)
        # Shift and merge in place: at most two full-size arrays live.
        raw <<= _U64(1)
        raw |= rng.integers(0, 2, size=shape, dtype=np.uint64)
        return raw & self._mask

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Bytes needed to transmit one ring element."""
        return (self.bits + 7) // 8

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("Ring", self.bits))

    def __repr__(self) -> str:
        return f"Ring(bits={self.bits})"


def reconstruct(ring: Ring, *shares: Iterable) -> np.ndarray:
    """Sum additive shares into the underlying value (mod 2^l)."""
    total = ring.zeros(np.asarray(shares[0]).shape)
    for share in shares:
        total = ring.add(total, share)
    return total
