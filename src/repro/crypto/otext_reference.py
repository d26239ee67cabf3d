"""Seed-faithful per-column OT-extension engines (the pre-vectorized path).

The word-packed engine of :mod:`repro.crypto.kk13` promises
byte-identical wire transcripts to the original per-column
implementation: expand each base-OT seed with ``Prg.bits``, XOR columns
one at a time, then ``packbits``-transpose the ``(c, m)`` uint8 matrix.
These subclasses keep that original ``_extend`` alive verbatim, and the
IKNP ones are the same engine at ``N = 2`` with :mod:`repro.crypto.iknp`'s
1-out-of-2 forms on top, so that the transcript cross-check tests
(``tests/test_otext_transcripts.py``) can prove the packed pipeline
changes nothing on the wire (same ciphertexts, pads, ``ChannelStats``)
on any batch size, ragged ones included.

They reuse the session's seed derivation (the channel's shared base-OT
set-up, the secret ``s``, OT index bookkeeping) and rebuild per-column
:class:`Prg` streams from the session's derived :class:`BatchPrg` seeds —
valid because ``BatchPrg`` streams are byte-identical to independently
driven ``Prg`` objects.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import codes
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.crypto.prg import Prg
from repro.errors import CryptoError
from repro.utils.bits import pack_bits, unpack_bits


def _pack_rows_u64(bit_matrix: np.ndarray) -> np.ndarray:
    """The seed row packer: (m, width) bits -> (m, width/64) uint64."""
    m, width = bit_matrix.shape
    packed = np.packbits(bit_matrix, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(m, width // 64)


class ReferenceKk13Sender(Kk13Sender):
    """KK13 sender running the original per-column loop."""

    def _extend(self, m: int) -> np.ndarray:
        self.ensure_seeds()
        if getattr(self, "_ref_prgs", None) is None:
            self._ref_prgs = [Prg(s) for s in self._prg.seeds]
        n_cols = self.code_bits
        u_cols = unpack_bits(self.chan.recv(), n_cols * m).reshape(n_cols, m)
        q_cols = np.empty((n_cols, m), dtype=np.uint8)
        for j in range(n_cols):
            stream = self._ref_prgs[j].bits(m)
            if self._s_bits[j]:
                stream = stream ^ u_cols[j]
            q_cols[j] = stream
        return _pack_rows_u64(np.ascontiguousarray(q_cols.T))


class ReferenceKk13Receiver(Kk13Receiver):
    """KK13 receiver running the original per-column loop."""

    def _extend(self, choices: np.ndarray) -> np.ndarray:
        self.ensure_seeds()
        if getattr(self, "_ref_pairs", None) is None:
            self._ref_pairs = [
                (Prg(s0), Prg(s1))
                for s0, s1 in zip(self._prg0.seeds, self._prg1.seeds)
            ]
        b = np.asarray(choices, dtype=np.int64)
        if b.ndim != 1 or (b < 0).any() or (b >= self.n_values).any():
            raise CryptoError(f"choices must lie in [0, {self.n_values})")
        # Row i of the code matrix is C(b_i); the loop wants its columns.
        code_cols = codes.codeword_bits(self.n_values)[b].T
        n_cols, m = code_cols.shape
        t_cols = np.empty((n_cols, m), dtype=np.uint8)
        u_cols = np.empty((n_cols, m), dtype=np.uint8)
        for j, (prg0, prg1) in enumerate(self._ref_pairs):
            t0 = prg0.bits(m)
            t1 = prg1.bits(m)
            t_cols[j] = t0
            u_cols[j] = t0 ^ t1 ^ code_cols[j]
        self.chan.send(pack_bits(u_cols))
        return _pack_rows_u64(np.ascontiguousarray(t_cols.T))


class ReferenceOtExtSender(ReferenceKk13Sender, OtExtSender):
    """IKNP extension sender: the reference KK13 sender at ``N = 2``."""


class ReferenceOtExtReceiver(ReferenceKk13Receiver, OtExtReceiver):
    """IKNP extension receiver: the reference KK13 receiver at ``N = 2``."""
