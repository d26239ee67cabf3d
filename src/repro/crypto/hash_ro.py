"""The random oracle shared by the OT protocols and the garbling scheme.

* :data:`siphash_ro` (= :data:`default_ro`) — fixed-key SipHash-2-4, the
  stand-in for the fixed-key AES hashing of production OT stacks.  It
  runs through the compiled kernel of :mod:`repro.crypto.fastro`, and
  through the numpy reference :func:`repro.crypto.siphash.prf_expand`
  when that kernel cannot be built; the two produce identical bytes.
* :data:`sha256_ro` — per-row SHA-256; the conservative oracle of the
  base OTs (``hash_bytes``) and of the cross-checking tests, which pass
  it through the library's ``ro=`` keyword.

Both expose ``mask(rows, out_words, domain)``: hash each u64 row of
``rows`` into ``out_words`` uint64 output words, with ``domain`` giving
protocol-level separation (e.g. OT instance indices live in the row
itself; the domain separates sub-protocols).
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.crypto import fastro
from repro.errors import CryptoError

_U64 = np.uint64


class RandomOracle:
    """A deterministic hash-to-words oracle with a named backend."""

    def __init__(self, name: str, mask_fn: Callable[[np.ndarray, int, int], np.ndarray]) -> None:
        self.name = name
        self._mask_fn = mask_fn

    def mask(self, rows: np.ndarray, out_words: int, domain: int = 0) -> np.ndarray:
        """Hash each row of u64 words to ``out_words`` u64 words.

        ``rows`` has shape ``(..., words)``; the result has shape
        ``(..., out_words)``.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=_U64))
        if out_words < 1:
            raise CryptoError(f"out_words must be >= 1, got {out_words}")
        if not 0 <= domain < 1 << 32:
            raise CryptoError(f"domain must be in [0, 2**32), got {domain}")
        return self._mask_fn(rows, out_words, domain)

    def hash_bytes(self, data: bytes, out_len: int, domain: int = 0) -> bytes:
        """Byte-level oracle (counter-mode SHA-256 regardless of backend).

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

    def __repr__(self) -> str:
        return f"RandomOracle({self.name})"


def _sha256_mask(rows: np.ndarray, out_words: int, domain: int) -> np.ndarray:
    lead = rows.shape[:-1]
    flat = np.ascontiguousarray(rows.reshape(-1, rows.shape[-1]))
    dom = domain.to_bytes(8, "little")
    # One digest yields four output words; precompute the counter prefixes
    # and emit each row's counter-mode stream with one-shot sha256 calls
    # (identical bytes to the incremental-update loop this replaces).
    n_hashes = (out_words + 3) // 4
    prefixes = [dom + c.to_bytes(8, "little") for c in range(n_hashes)]
    sha256 = hashlib.sha256
    row_bytes = flat.tobytes()
    stride = flat.shape[-1] * 8
    stream = b"".join(
        sha256(prefix + row_bytes[off : off + stride]).digest()
        for off in range(0, len(row_bytes), stride)
        for prefix in prefixes
    )
    out = np.frombuffer(stream, dtype=_U64).reshape(flat.shape[0], n_hashes * 4)
    return np.ascontiguousarray(out[:, :out_words]).reshape(lead + (out_words,))


#: Conservative oracle: counter-mode SHA-256 per row.
sha256_ro = RandomOracle("sha256", _sha256_mask)

#: The SipHash oracle: compiled kernel, numpy reference as its fallback.
siphash_ro = RandomOracle("siphash24", fastro.expand)

#: The oracle protocol code uses unless handed another through ``ro=``.
default_ro = siphash_ro

# The frozen benchmarks/e2e harness resolves this name; it is its only caller.
fastro.fast_ro = siphash_ro
