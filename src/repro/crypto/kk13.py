"""KK13 1-out-of-N OT extension (Kolesnikov–Kumaresan, CRYPTO'13).

The paper's matrix-multiplication protocol is built directly on this
primitive (its Figure 1 ideal functionality).  Structure mirrors IKNP
(:mod:`repro.crypto.iknp`) with two changes:

* the receiver's row ``i`` encodes its choice ``b_i in [N]`` as the
  Walsh–Hadamard codeword ``C(b_i)`` instead of a repetition code, so the
  sender's rows satisfy ``q_i = t_i xor (C(b_i) & s)`` and message ``j``
  is masked by ``H(i, q_i xor (C(j) & s))``, and
* the bit-matrix width grows to the code's ``c = code_length(N)``
  columns (:mod:`repro.crypto.codes`): 128 for ``N = 2``, 192 for
  ``N = 3, 4`` and ``2 * kappa = 256`` beyond.  The columns the code
  drops are 0 in every codeword in use; there ``q_j = t_j``, which the
  receiver knows anyway, so they would add nothing to any pad.

Both the *random-OT* form (each side learns pads; the ABNN2 triplets
take pad 0 as the client's share) and the *chosen-message* form are provided.
A session runs no base OTs of its own: it derives its ``c`` column seeds
from the channel's :class:`~repro.crypto.otsetup.OtSetup`, whose one
handshake serves every KK13 and IKNP session on that channel.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import codes
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.crypto.iknp import _checked_u_blob, _rows_with_index
from repro.crypto.otsetup import channel_setup, session_base_index
from repro.crypto.prg import BatchPrg
from repro.errors import CryptoError
from repro.net.channel import Channel
from repro.perf.trace import channel_span
from repro.utils.bits import (
    concat_packed_rows,
    pack_bits_to_words,
    split_packed_rows,
    transpose_packed,
    unpack_words_to_bits,
)
from repro.utils.rng import make_rng

_U64 = np.uint64
_ALL_ONES = _U64(0xFFFFFFFFFFFFFFFF)


class Kk13Sender:
    """The party holding ``N`` messages per OT (ABNN2's *client*)."""

    def __init__(
        self,
        chan: Channel,
        n_values: int,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
    ) -> None:
        if not 2 <= n_values <= codes.MAX_N:
            raise CryptoError(f"N must be in [2, {codes.MAX_N}], got {n_values}")
        self.chan = chan
        self.n_values = n_values
        self.ro = ro
        self._rng = make_rng(seed)
        #: Columns of the U matrix, the column seeds and the Q rows.
        self.code_bits = codes.code_length(n_values)
        self._code_words = codes.codeword_words(n_values)
        self._s_bits: np.ndarray | None = None
        self._prg: BatchPrg | None = None
        self._setup = channel_setup(chan, group)
        self._tag = self._setup.next_tag()
        self._ot_index = session_base_index(self._tag)

    def ensure_seeds(self) -> None:
        """Derive this session's ``code_bits`` column seeds from the
        channel's set-up.

        Runs the set-up handshake first if the channel lacks that many
        base OTs; the first extension batch calls this lazily.
        """
        if self._s_bits is not None:
            return
        s, seeds = self._setup.receiver_seeds(self._tag, self.code_bits, self._rng)
        self._s_bits = s
        self._prg = BatchPrg(seeds)
        self._s_words = pack_bits_to_words(s)
        self._s_colmask = (s.astype(_U64) * _ALL_ONES)[:, None]
        # (C(j) & s) pre-masked once per codeword.
        self._coded_s = self._code_words & self._s_words[None, :]

    def _extend(self, m: int) -> np.ndarray:
        """Consume the receiver's U matrix; return Q rows (m, c/64 words).

        Fully word-packed (see :meth:`OtExtReceiver._extend` in
        :mod:`repro.crypto.iknp`): batched PRG block, one masked XOR,
        packed 64x64-block transpose — no ``(c, m)`` uint8 expansion.
        """
        self.ensure_seeds()
        with channel_span(self.chan, "extension", m=m):
            u_blob = _checked_u_blob(self.chan.recv(), self.code_bits, m)
            q_cols = split_packed_rows(u_blob, self.code_bits, m)
            q_cols &= self._s_colmask
            q_cols ^= self._prg.packed_bits(m)
            return transpose_packed(q_cols)[:m]

    # ------------------------------------------------------------------ #
    def pads(self, m: int, width: int, domain: int = 3) -> np.ndarray:
        """Random-OT sender side: the full pad tensor ``(m, N, W)``.

        ``pads[i, j]`` is the mask the receiver can recover iff its choice
        for OT ``i`` was ``j``.  The caller XORs messages onto these pads
        (chosen-message mode) or uses pad 0 directly as a share (the
        ABNN2 triplet layout).
        """
        q = self._extend(m)
        out = self._pads_at(q, self._ot_index, width, domain)
        self._ot_index += m
        return out

    def pad_blocks(self, m: int, width: int, block: int, domain: int = 3):
        """:meth:`pads` in sub-blocks: extend ``m`` OTs now, then yield
        ``(lo, hi, pads[lo:hi])`` for every ``block`` OTs.

        The extension (the received U matrix and the Q rows, c/8 B per OT)
        covers all ``m`` OTs; the ``N``-wide hash inputs and pads exist
        one sub-block at a time, so the caller's working set past the
        extension does not grow with ``m``.
        """
        q = self._extend(m)
        first = self._ot_index
        self._ot_index += m

        def blocks():
            for lo in range(0, m, block):
                hi = min(m, lo + block)
                yield lo, hi, self._pads_at(q[lo:hi], first + lo, width, domain)

        return blocks()

    def _pads_at(self, q: np.ndarray, first: int, width: int, domain: int) -> np.ndarray:
        """Pads ``(len(q), N, W)`` of the Q rows of OTs ``first, first+1, ...``."""
        m = q.shape[0]
        # One preallocated (m, N, c/64 + 1) hash-input tensor: q_i xor
        # (C(j) & s) written straight into the first c/64 words, OT index
        # in the last — no concatenate of broadcast temporaries.
        words = self.code_bits // 64
        rows = np.empty((m, self.n_values, words + 1), dtype=_U64)
        np.bitwise_xor(q[:, None, :], self._coded_s[None, :, :], out=rows[:, :, :words])
        rows[:, :, words] = (np.arange(m, dtype=_U64) + _U64(first))[:, None]
        return self.ro.mask(rows, width, domain)

    def send_chosen(self, messages: np.ndarray, domain: int = 3) -> None:
        """Chosen-message mode: transmit all N masked messages per OT."""
        msgs = np.asarray(messages, dtype=_U64)
        if msgs.ndim != 3 or msgs.shape[1] != self.n_values:
            raise CryptoError(f"expected (m, {self.n_values}, W) messages, got {msgs.shape}")
        pads = self.pads(msgs.shape[0], msgs.shape[2], domain)
        np.bitwise_xor(msgs, pads, out=pads)
        with channel_span(
            self.chan, "ot-transfer", m=int(msgs.shape[0]), width=int(msgs.shape[2])
        ):
            self.chan.send(pads)


class Kk13Receiver:
    """The party holding one choice ``b_i in [N]`` per OT (ABNN2's *server*)."""

    def __init__(
        self,
        chan: Channel,
        n_values: int,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
    ) -> None:
        if not 2 <= n_values <= codes.MAX_N:
            raise CryptoError(f"N must be in [2, {codes.MAX_N}], got {n_values}")
        self.chan = chan
        self.n_values = n_values
        self.ro = ro
        self._rng = make_rng(seed)
        self.code_bits = codes.code_length(n_values)
        self._code_words = codes.codeword_words(n_values)
        # Column j of the choice-codeword matrix is the XOR of the
        # indicator masks of the values whose codeword has bit j set;
        # precompute, per value, which columns it feeds.
        code_bits = unpack_words_to_bits(self._code_words, self.code_bits)
        self._code_col_idx = [np.nonzero(code_bits[v])[0] for v in range(n_values)]
        self._prg0: BatchPrg | None = None
        self._prg1: BatchPrg | None = None
        self._setup = channel_setup(chan, group)
        self._tag = self._setup.next_tag()
        self._ot_index = session_base_index(self._tag)

    def ensure_seeds(self) -> None:
        """Derive both column-seed sets (see :meth:`Kk13Sender.ensure_seeds`)."""
        if self._prg0 is not None:
            return
        seeds0, seeds1 = self._setup.sender_seeds(self._tag, self.code_bits, self._rng)
        self._prg0 = BatchPrg(seeds0)
        self._prg1 = BatchPrg(seeds1)

    def _extend(self, choices: np.ndarray) -> np.ndarray:
        """Send the U matrix; return T rows (m, c/64 words).

        Word-packed throughout.  The codeword column matrix never
        materializes row-wise: column ``j`` of ``C(b_i)`` stacked over
        ``i`` equals the XOR of the packed indicator masks
        ``[b == v]`` over the values ``v`` whose codeword has bit ``j``
        set, so ``N`` packed masks replace an ``(m, 4)``-word transpose.
        """
        self.ensure_seeds()
        b = np.asarray(choices)  # any integer dtype: the triplets pass uint8
        if b.dtype.kind not in "iu":
            b = b.astype(np.int64)
        if b.ndim != 1 or (b < 0).any() or (b >= self.n_values).any():
            raise CryptoError(f"choices must lie in [0, {self.n_values})")
        m = b.shape[0]
        with channel_span(self.chan, "extension", m=m):
            t0 = self._prg0.packed_bits(m)
            u = self._prg1.packed_bits(m)
            u ^= t0
            for v, col_idx in enumerate(self._code_col_idx):
                u[col_idx] ^= pack_bits_to_words((b == v).view(np.uint8))[None, :]
            self.chan.send(concat_packed_rows(u, m))
            del u
            return transpose_packed(t0)[:m]

    # ------------------------------------------------------------------ #
    def pads(self, choices, width: int, domain: int = 3) -> np.ndarray:
        """Random-OT receiver side: the pad at the chosen slot, ``(m, W)``."""
        t = self._extend(np.asarray(choices))
        out = self.ro.mask(_rows_with_index(t, self._ot_index), width, domain)
        self._ot_index += np.asarray(choices).shape[0]
        return out

    def pad_blocks(self, choices, width: int, block: int, domain: int = 3):
        """:meth:`pads` in sub-blocks, mirroring
        :meth:`Kk13Sender.pad_blocks`: extend all ``m`` choices now (the
        U frame goes out), then yield ``(lo, hi, pads[lo:hi])`` for every
        ``block`` OTs, each sub-block's hash inputs and pads made only
        when it is reached.
        """
        t = self._extend(np.asarray(choices))
        m = t.shape[0]
        first = self._ot_index
        self._ot_index += m

        def blocks():
            for lo in range(0, m, block):
                hi = min(m, lo + block)
                rows = _rows_with_index(t[lo:hi], first + lo)
                yield lo, hi, self.ro.mask(rows, width, domain)

        return blocks()

    def recv_chosen(self, choices, width: int, domain: int = 3) -> np.ndarray:
        """Chosen-message mode: recover message ``b_i`` per OT, ``(m, W)``."""
        b = np.asarray(choices, dtype=np.int64)
        pad = self.pads(b, width, domain)
        cipher = self._recv_cipher(b.shape[0], width)
        return cipher[np.arange(b.shape[0]), b] ^ pad

    def _recv_cipher(self, m: int, width: int) -> np.ndarray:
        with channel_span(self.chan, "ot-transfer", m=m, width=width):
            cipher = self.chan.recv()
        if cipher.shape != (m, self.n_values, width):
            raise CryptoError(f"unexpected ciphertext shape {cipher.shape}")
        return cipher
