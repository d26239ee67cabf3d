"""KK13 1-out-of-N OT extension (Kolesnikov–Kumaresan, CRYPTO'13).

The repo's one OT-extension engine.  The paper's matrix-multiplication
protocol is built directly on it (its Figure 1 ideal functionality), and
at ``N = 2`` it is IKNP, on which :mod:`repro.crypto.iknp` builds the
1-out-of-2 forms.  Roles:

* The **sender** (who holds ``N`` messages per OT; ABNN2's client) is
  base-OT *receiver*: it holds a secret ``s in {0,1}^c``, the set-up's
  first ``c`` choice bits.
* The **receiver** (who holds one choice ``b_i in [N]`` per OT; ABNN2's
  server) is base-OT *sender*: it expands both derived column seeds into
  ``m``-bit streams ``t^0_j, t^1_j``, keeps ``T = [t^0]``, and transmits
  ``u_j = t^0_j xor t^1_j xor C(b)_j``, where row ``i`` of ``C(b)`` is
  the Walsh–Hadamard codeword ``C(b_i)``.
* The sender's rows are then ``q_i = t_i xor (C(b_i) & s)``; pad ``j`` of
  OT ``i`` is ``H(i, q_i xor (C(j) & s))``, and the receiver's
  ``H(i, t_i)`` is pad ``b_i``.

The bit matrices are the code's ``c = code_length(N)`` columns wide
(:mod:`repro.crypto.codes`): 128 for ``N = 2``, where ``C(1)`` is all
ones (IKNP's repetition code), 192 for ``N = 3, 4`` and
``2 * kappa = 256`` beyond.  The columns the code drops are 0 in every
codeword in use; there ``q_j = t_j``, which the receiver knows anyway,
so they would add nothing to any pad.

Both the *random-OT* form (each side learns pads; the ABNN2 triplets
take pad 0 as the client's share) and the *chosen-message* form are
provided.  A session runs no base OTs of its own: it derives its ``c``
column seeds from the channel's :class:`~repro.crypto.otsetup.OtSetup`,
whose one handshake serves every session on that channel.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import codes, fastro
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import default_ro
from repro.crypto.otsetup import channel_setup, session_base_index
from repro.crypto.prg import BatchPrg
from repro.errors import CryptoError
from repro.net.channel import Channel
from repro.net.frames import checked_bytes, checked_frame
from repro.perf.trace import channel_span
from repro.utils.bits import (
    concat_packed_rows,
    pack_bits_to_words,
    split_packed_rows,
    unpack_words_to_bits,
)
from repro.utils.rng import make_rng

_U64 = np.uint64
_ALL_ONES = _U64(0xFFFFFFFFFFFFFFFF)


class _Kk13Session:
    """What both ends of a session share: the code, the channel set-up's
    session tag, the OT-index counter and the pad interface."""

    def __init__(self, chan: Channel, n_values: int, group: ModpGroup, seed) -> None:
        if not 2 <= n_values <= codes.MAX_N:
            raise CryptoError(f"N must be in [2, {codes.MAX_N}], got {n_values}")
        self.chan = chan
        self.n_values = n_values
        self._rng = make_rng(seed)
        #: Columns of the U matrix, the column seeds and the Q/T rows.
        self.code_bits = codes.code_length(n_values)
        self._code_words = codes.codeword_words(n_values)
        self._setup = channel_setup(chan, group)
        self._tag = self._setup.next_tag()
        self._ot_index = session_base_index(self._tag)

    def _take(self, m: int) -> int:
        """Claim the next ``m`` OT indices; returns the first."""
        first = self._ot_index
        self._ot_index += m
        return first

    def pads(self, batch, width: int, domain: int = 3) -> np.ndarray:
        """Random OT on one extension batch.

        The sender passes ``m`` and gets the full pad tensor
        ``(m, N, W)``: ``pads[i, j]`` is the mask the receiver recovers
        iff its choice for OT ``i`` was ``j``.  The caller XORs messages
        onto these pads (chosen-message mode) or uses pad 0 directly as a
        share.  The receiver passes its ``m`` choices and gets the pad at
        each chosen slot, ``(m, W)``.
        """
        first, rows = self.extend(batch)
        return self.pads_at(rows, first, width, domain)

    def extend(self, batch) -> tuple[int, np.ndarray]:
        """:meth:`pads` in two steps, the first: extend the batch (the
        U frame moves) and claim its OT indices.

        Returns the batch's first OT index and its Q (sender) or T
        (receiver) rows, ``c/8`` B per OT, which :meth:`pads_at` hashes
        whenever the caller is ready; the ABNN2 triplets extend every
        batch of a round before hashing any.
        """
        rows = self._extend(batch)
        return self._take(rows.shape[0]), rows


class Kk13Sender(_Kk13Session):
    """The party holding ``N`` messages per OT (ABNN2's *client*)."""

    def __init__(
        self,
        chan: Channel,
        n_values: int,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
    ) -> None:
        super().__init__(chan, n_values, group, seed)
        self._s_bits: np.ndarray | None = None
        self._prg: BatchPrg | None = None

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
        # Per-column select mask: all-ones where s_j = 1, zero otherwise.
        self._s_colmask = (s.astype(_U64) * _ALL_ONES)[:, None]
        # (C(j) & s) pre-masked once per codeword.
        self._coded_s = self._code_words & self._s_words[None, :]

    def _extend(self, m: int) -> np.ndarray:
        """Consume the receiver's U matrix; return Q rows (m, c/64 words).

        The whole batch stays word-packed: the PRG block arrives as
        ``(c, ceil(m/64))`` uint64 columns, the per-column XOR with U is
        one masked whole-matrix XOR, and the row layout comes out of the
        packed 64x64-block transpose — no ``(c, m)`` uint8 expansion.
        """
        self.ensure_seeds()
        with channel_span(self.chan, "extension", m=m):
            u_blob = checked_bytes(
                self.chan.recv(), (self.code_bits * m + 7) // 8,
                f"OT-extension U frame ({self.code_bits}x{m} bits)",
            )
            q_cols = split_packed_rows(u_blob, self.code_bits, m)
            q_cols &= self._s_colmask
            q_cols ^= self._prg.packed_bits(m)
            return fastro.transpose_packed(q_cols)[:m]

    def pads_at(self, q: np.ndarray, first: int, width: int, domain: int) -> np.ndarray:
        """Pads ``(len(q), N, W)`` of the Q rows of OTs ``first, first+1, ...``:
        pad ``j`` of OT ``i`` hashes ``(q_i xor (C(j) & s)) || first + i``."""
        return default_ro.pads(q, self._coded_s, first, width, domain)

    def send_chosen(self, messages: np.ndarray, domain: int = 3) -> None:
        """Chosen-message mode: ``messages`` is ``(m, N, W)`` uint64, and
        the receiver learns row ``messages[i, b_i]`` of each OT."""
        msgs = np.asarray(messages, dtype=_U64)
        if msgs.ndim != 3 or msgs.shape[1] != self.n_values:
            raise CryptoError(f"expected (m, {self.n_values}, W) messages, got {msgs.shape}")
        pads = self.pads(msgs.shape[0], msgs.shape[2], domain)
        np.bitwise_xor(msgs, pads, out=pads)
        with channel_span(
            self.chan, "ot-transfer", m=int(msgs.shape[0]), width=int(msgs.shape[2])
        ):
            self.chan.send(pads)


class Kk13Receiver(_Kk13Session):
    """The party holding one choice ``b_i in [N]`` per OT (ABNN2's *server*)."""

    def __init__(
        self,
        chan: Channel,
        n_values: int,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
    ) -> None:
        super().__init__(chan, n_values, group, seed)
        # Column j of the choice-codeword matrix is the XOR of the
        # indicator masks of the values whose codeword has bit j set;
        # precompute, per value, which columns it feeds.
        code_bits = unpack_words_to_bits(self._code_words, self.code_bits)
        self._code_col_idx = [np.nonzero(code_bits[v])[0] for v in range(n_values)]
        self._zero_offset = np.zeros((1, self._code_words.shape[1]), dtype=_U64)
        self._prg0: BatchPrg | None = None
        self._prg1: BatchPrg | None = None

    def ensure_seeds(self) -> None:
        """Derive both column-seed sets (see :meth:`Kk13Sender.ensure_seeds`)."""
        if self._prg0 is not None:
            return
        seeds0, seeds1 = self._setup.sender_seeds(self._tag, self.code_bits, self._rng)
        self._prg0 = BatchPrg(seeds0)
        self._prg1 = BatchPrg(seeds1)

    def _extend(self, choices) -> np.ndarray:
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
            return fastro.transpose_packed(t0)[:m]

    def pads_at(self, t: np.ndarray, first: int, width: int, domain: int) -> np.ndarray:
        """Pads ``(len(t), W)`` of the T rows of OTs ``first, first+1, ...``:
        ``H(t_i || first + i)``, the sender's pad at a zero offset."""
        return default_ro.pads(t, self._zero_offset, first, width, domain)[:, 0]

    def recv_chosen(self, choices, width: int, domain: int = 3) -> np.ndarray:
        """Chosen-message mode: recover message ``b_i`` per OT, ``(m, W)``."""
        b = np.asarray(choices, dtype=np.int64)
        pad = self.pads(b, width, domain)
        cipher = self._recv_cipher(b.shape[0], width)
        return cipher[np.arange(b.shape[0]), b] ^ pad

    def _recv_cipher(self, m: int, width: int) -> np.ndarray:
        with channel_span(self.chan, "ot-transfer", m=m, width=width):
            cipher = self.chan.recv()
        return checked_frame(
            cipher, (m, self.n_values, width), "chosen-message OT ciphertext"
        )
