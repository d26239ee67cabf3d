"""The random oracle shared by the OT protocols and the garbling scheme.

* :data:`default_ro` — fixed-key SipHash-2-4, the stand-in for the
  fixed-key AES hashing of production OT stacks, and the one oracle every
  OT pad and garbled row hashes through.  It runs through the compiled
  kernel of :mod:`repro.crypto.fastro`, and through the numpy reference
  :func:`repro.crypto.siphash.prf_expand` when that kernel cannot be
  built; the two produce identical bytes.
* :func:`hash_bytes` — counter-mode SHA-256 for the base OTs and the
  session seeds, where throughput is irrelevant.

``default_ro.mask(rows, out_words, domain)`` hashes each u64 row of
``rows`` into ``out_words`` uint64 output words, with ``domain`` giving
protocol-level separation (e.g. OT instance indices live in the row
itself; the domain separates sub-protocols).  ``default_ro.pads`` is
``mask`` of the OT extension's rows ``(row_i ^ offset_j) || index_i``,
hashed without building them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.crypto import fastro
from repro.errors import CryptoError


def hash_bytes(data: bytes, out_len: int, domain: int = 0) -> bytes:
    """Byte-level oracle: counter-mode SHA-256.

    Used by the base-OT layer where throughput is irrelevant and the
    full collision resistance of SHA-256 is the right default.
    """
    out = bytearray()
    counter = 0
    while len(out) < out_len:
        h = hashlib.sha256()
        h.update(domain.to_bytes(8, "little"))
        h.update(counter.to_bytes(8, "little"))
        h.update(data)
        out.extend(h.digest())
        counter += 1
    return bytes(out[:out_len])


class _SipHashOracle:
    """Fixed-key SipHash-2-4 as a hash-to-words oracle."""

    name = "siphash24"

    def mask(self, rows: np.ndarray, out_words: int, domain: int = 0) -> np.ndarray:
        """Hash each row of u64 words to ``out_words`` u64 words.

        ``rows`` has shape ``(..., words)``; the result has shape
        ``(..., out_words)``.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
        _check(out_words, domain)
        return fastro.expand(rows, out_words, domain)

    def pads(
        self, rows: np.ndarray, offsets: np.ndarray, first: int, out_words: int,
        domain: int = 0,
    ) -> np.ndarray:
        """OT-extension pads: ``(m, n_off, out_words)`` words, entry
        ``[i, j]`` being ``mask`` of the row ``(rows[i] ^ offsets[j]) ||
        first + i``, without building those rows.

        ``rows`` is ``(m, words)`` and ``offsets`` ``(n_off, words)``; the
        OT index ``first + i`` wraps mod ``2**64``.
        """
        rows = np.asarray(rows, dtype=np.uint64)
        offsets = np.asarray(offsets, dtype=np.uint64)
        _check(out_words, domain)
        if (
            rows.ndim != 2 or offsets.ndim != 2 or offsets.shape[1] != rows.shape[1]
            or offsets.shape[0] < 1
        ):
            raise CryptoError(
                f"pads need (m, words) rows and (n >= 1, words) offsets, got "
                f"{rows.shape} and {offsets.shape}"
            )
        if not 0 <= first < 1 << 64:
            raise CryptoError(f"first OT index must be in [0, 2**64), got {first}")
        return fastro.pads(rows, offsets, first, out_words, domain)


def _check(out_words: int, domain: int) -> None:
    if out_words < 1:
        raise CryptoError(f"out_words must be >= 1, got {out_words}")
    if not 0 <= domain < 1 << 32:
        raise CryptoError(f"domain must be in [0, 2**32), got {domain}")


#: The one oracle: compiled kernel, numpy reference as its fallback.
default_ro = _SipHashOracle()

# The frozen benchmarks/e2e harness resolves this name; it is its only caller.
fastro.fast_ro = default_ro
