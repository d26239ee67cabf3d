"""IKNP 1-out-of-2 OT extension, with chosen-message and correlated variants.

One public-key *setup* of ``kappa`` base OTs bootstraps an unbounded
stream of symmetric-key OTs (Ishai–Kilian–Nissim–Petrank).  The base OTs
belong to the channel, not to the session: every session derives its
column seeds from the channel's :class:`~repro.crypto.otsetup.OtSetup`,
which handshakes once per channel and direction, and keeps its PRG
streams open across extension batches.

Roles follow the classic description:

* The **extension sender** (who inputs message pairs) holds a secret
  ``s in {0,1}^kappa``, its base-OT *receiver* choices (the set-up's
  first ``kappa`` choice bits, shared by every session on the channel).
* The **extension receiver** (who inputs choice bits) is base-OT
  *sender*, expands both derived column seeds into ``m``-bit streams
  ``t^0_j, t^1_j``, keeps ``T = [t^0]``, and transmits
  ``u_j = t^0_j xor t^1_j xor c``.
* The sender reconstructs ``Q`` with rows ``q_i = t_i xor c_i * s`` and
  masks its messages with ``H(i, q_i)`` and ``H(i, q_i xor s)``.

The correlated variant (`Gilboa-style`_) transfers one ring element per
OT: the sender learns a random ``x_i`` and the receiver ``x_i + c_i *
delta_i (mod 2^l)`` — the primitive under SecureML's offline
multiplication triplets and QUOTIENT's ternary products.

The XOR-correlated variant (ALSZ13's C-OT, as ABY and EMP move
free-XOR labels) transfers ``W`` words per OT: the receiver's ``U``
goes first, the sender takes ``x0_i = H(i, q_i)`` as its message for
choice 0 and answers, whenever it has picked its offset ``delta``,
with one ``W``-word correction ``H(i, q_i) ^ H(i, q_i ^ s) ^ delta``
per OT, so the receiver gets ``x0_i ^ c_i * delta``.  The correction
travels in the caller's next frame (:class:`XorOtSend`,
:class:`XorOtRecv`).

.. _Gilboa-style: used for the baselines in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.crypto.otsetup import channel_setup, session_base_index
from repro.crypto.prg import BatchPrg
from repro.errors import CryptoError, ProtocolError
from repro.net.channel import Channel
from repro.perf.trace import channel_span
from repro.utils.bits import (
    concat_packed_rows,
    pack_bits_to_words,
    pack_ring_words,
    packed_word_count,
    split_packed_rows,
    transpose_packed,
    unpack_ring_words,
)
from repro.utils.ring import Ring
from repro.utils.rng import make_rng

_U64 = np.uint64
_ALL_ONES = _U64(0xFFFFFFFFFFFFFFFF)

KAPPA = 128


def _rows_with_index(packed_rows: np.ndarray, start_index: int) -> np.ndarray:
    """Append the global OT index as an extra hash-input word per row."""
    m, width = packed_rows.shape
    out = np.empty((m, width + 1), dtype=_U64)
    out[:, :width] = packed_rows
    out[:, width] = np.arange(m, dtype=_U64) + _U64(start_index)
    return out


def _checked_u_blob(blob, n_cols: int, m: int) -> bytes:
    """Validate the received U-matrix blob before word-level parsing."""
    expected = (n_cols * m + 7) // 8
    if not isinstance(blob, (bytes, bytearray)):
        raise ProtocolError(
            f"OT-extension U matrix must arrive as bytes, got {type(blob).__name__}"
        )
    if len(blob) != expected:
        raise ProtocolError(
            f"OT-extension U matrix for {n_cols}x{m} bits must be "
            f"{expected} bytes, got {len(blob)}"
        )
    return bytes(blob)


@dataclass(frozen=True)
class XorOtSend:
    """The sender's half of ``m`` XOR-correlated OTs, awaiting its offset.

    ``x0`` (``(m, W)`` words) is what a receiver with choice 0 gets; with
    choice 1 it gets ``x0 ^ delta`` once it holds :meth:`correction`.
    """

    x0: np.ndarray
    x1: np.ndarray  # H(i, q_i ^ s): the receiver's pad at choice 1

    def correction(self, delta: np.ndarray) -> np.ndarray:
        """The ``(m, W)`` correction frame for offset ``delta`` (``(W,)``)."""
        return self.x0 ^ self.x1 ^ np.asarray(delta, dtype=_U64)[None, :]


@dataclass(frozen=True)
class XorOtRecv:
    """The receiver's half of ``m`` XOR-correlated OTs: its choices and
    pads ``H(i, t_i)``, opened by the sender's correction frame."""

    choices: np.ndarray
    pads: np.ndarray

    def open(self, correction) -> np.ndarray:
        """``x0 ^ c * delta`` per OT; a malformed frame raises
        :class:`ProtocolError`."""
        if not (
            isinstance(correction, np.ndarray)
            and correction.dtype == _U64
            and correction.shape == self.pads.shape
        ):
            raise ProtocolError(
                f"XOR-correlated OT correction: expected {self.pads.shape} uint64 words"
            )
        return self.pads ^ (correction & (self.choices.astype(_U64) * _ALL_ONES)[:, None])


class OtExtSender:
    """Extension-sender session (the party that inputs messages)."""

    def __init__(
        self,
        chan: Channel,
        kappa: int = KAPPA,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
    ) -> None:
        if kappa % 64 != 0:
            raise CryptoError("kappa must be a multiple of 64")
        self.chan = chan
        self.kappa = kappa
        self.ro = ro
        self._rng = make_rng(seed)
        self._s_bits: np.ndarray | None = None
        self._prg: BatchPrg | None = None
        self._setup = channel_setup(chan, group)
        self._tag = self._setup.next_tag()
        self._ot_index = session_base_index(self._tag)

    # ------------------------------------------------------------------ #
    def ensure_seeds(self) -> None:
        """Derive this session's column seeds from the channel's set-up.

        Runs the set-up handshake first if the channel lacks ``kappa``
        base OTs; the first extension batch calls this lazily.
        """
        if self._s_bits is not None:
            return
        s, seeds = self._setup.receiver_seeds(self._tag, self.kappa, self._rng)
        self._s_bits = s
        self._prg = BatchPrg(seeds)
        self._s_words = pack_bits_to_words(s)
        # Per-column select mask: all-ones where s_j = 1, zero otherwise.
        self._s_colmask = (s.astype(_U64) * _ALL_ONES)[:, None]

    def _extend(self, m: int) -> np.ndarray:
        """Run one extension batch; returns Q packed as (m, kappa/64) words.

        The whole batch stays word-packed: the PRG block arrives as
        ``(kappa, ceil(m/64))`` uint64 columns, the per-column XOR with U
        is a single masked whole-matrix XOR, and the row layout comes out
        of the packed 64x64-block transpose — the ``(kappa, m)`` uint8
        expansion of the per-column loop never exists.
        """
        self.ensure_seeds()
        with channel_span(self.chan, "extension", m=m):
            u_blob = _checked_u_blob(self.chan.recv(), self.kappa, m)
            u_cols = split_packed_rows(u_blob, self.kappa, m)
            q_cols = self._prg.packed_bits(m) ^ (u_cols & self._s_colmask)
            return transpose_packed(q_cols)[:m]

    # ------------------------------------------------------------------ #
    def send_chosen(self, messages: np.ndarray, domain: int = 1) -> None:
        """Send chosen-message pairs.

        ``messages`` has shape ``(m, 2, W)`` uint64: for OT ``i`` the
        receiver learns row ``messages[i, c_i]`` of ``W`` words.
        """
        msgs = np.asarray(messages, dtype=_U64)
        if msgs.ndim != 3 or msgs.shape[1] != 2:
            raise CryptoError(f"expected (m, 2, W) messages, got {msgs.shape}")
        m, _, width = msgs.shape
        q = self._extend(m)
        with channel_span(self.chan, "ot-transfer", m=m, width=width):
            rows0 = _rows_with_index(q, self._ot_index)
            rows1 = _rows_with_index(q ^ self._s_words[None, :], self._ot_index)
            pad0 = self.ro.mask(rows0, width, domain)
            pad1 = self.ro.mask(rows1, width, domain)
            cipher = np.stack([msgs[:, 0] ^ pad0, msgs[:, 1] ^ pad1], axis=1)
            self.chan.send(cipher)
        self._ot_index += m

    def send_xor_correlated(self, m: int, width: int, domain: int = 3) -> XorOtSend:
        """XOR-correlated OT: receive ``U`` for ``m`` OTs of ``width``
        words each and return the sender's half; the caller sends
        :meth:`XorOtSend.correction` in its next frame."""
        q = self._extend(m)
        with channel_span(self.chan, "ot-transfer", m=m, width=width):
            x0 = self.ro.mask(_rows_with_index(q, self._ot_index), width, domain)
            x1 = self.ro.mask(
                _rows_with_index(q ^ self._s_words[None, :], self._ot_index), width, domain
            )
        self._ot_index += m
        return XorOtSend(x0, x1)

    def send_correlated(self, deltas: np.ndarray, ring: Ring, domain: int = 2) -> np.ndarray:
        """Correlated OT over Z_{2^l}.

        For each OT ``i`` (and lane ``k``) the sender learns random
        ``x[i, k]`` and the receiver ``x[i, k] + c_i * deltas[i, k]``.
        Returns ``x`` with ``deltas``'s shape.
        """
        d = np.asarray(deltas, dtype=_U64)
        squeeze = d.ndim == 1
        if squeeze:
            d = d[:, None]
        if d.ndim != 2:
            raise CryptoError(f"expected (m,) or (m, k) deltas, got shape {d.shape}")
        m, lanes = d.shape
        q = self._extend(m)
        with channel_span(self.chan, "ot-transfer", m=m, lanes=lanes):
            rows0 = _rows_with_index(q, self._ot_index)
            rows1 = _rows_with_index(q ^ self._s_words[None, :], self._ot_index)
            x = ring.reduce(self.ro.mask(rows0, lanes, domain))
            x_s = ring.reduce(self.ro.mask(rows1, lanes, domain))
            correction = ring.add(ring.sub(ring.reduce(d), x_s), x)
            # Bit-pack to l bits per element: SecureML's truncated-message
            # optimization depends on sub-64-bit corrections costing less.
            self.chan.send(pack_ring_words(correction.reshape(1, -1), ring.bits)[0])
        self._ot_index += m
        return x[:, 0] if squeeze else x


class OtExtReceiver:
    """Extension-receiver session (the party that inputs choice bits)."""

    def __init__(
        self,
        chan: Channel,
        kappa: int = KAPPA,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
    ) -> None:
        if kappa % 64 != 0:
            raise CryptoError("kappa must be a multiple of 64")
        self.chan = chan
        self.kappa = kappa
        self.ro = ro
        self._rng = make_rng(seed)
        self._prg0: BatchPrg | None = None
        self._prg1: BatchPrg | None = None
        self._setup = channel_setup(chan, group)
        self._tag = self._setup.next_tag()
        self._ot_index = session_base_index(self._tag)

    def ensure_seeds(self) -> None:
        """Derive both column-seed sets (see :meth:`OtExtSender.ensure_seeds`)."""
        if self._prg0 is not None:
            return
        seeds0, seeds1 = self._setup.sender_seeds(self._tag, self.kappa, self._rng)
        self._prg0 = BatchPrg(seeds0)
        self._prg1 = BatchPrg(seeds1)

    def _extend(self, choices: np.ndarray) -> np.ndarray:
        """Run one extension batch; returns T packed as (m, kappa/64).

        Word-packed throughout: both PRG blocks come out of the batched
        Philox expansion, the choice vector is packed once and broadcast
        into every column with one whole-matrix XOR, and the U matrix is
        serialized straight from packed rows (byte-identical to packing
        the uint8 column matrix).
        """
        self.ensure_seeds()
        c = np.asarray(choices, dtype=np.uint8)
        if c.ndim != 1 or not np.isin(c, (0, 1)).all():
            raise CryptoError("choices must be a 1-D bit vector")
        m = c.shape[0]
        with channel_span(self.chan, "extension", m=m):
            c_words = pack_bits_to_words(c)
            t0 = self._prg0.packed_bits(m)
            t1 = self._prg1.packed_bits(m)
            self.chan.send(concat_packed_rows(t0 ^ t1 ^ c_words[None, :], m))
            return transpose_packed(t0)[:m]

    # ------------------------------------------------------------------ #
    def recv_chosen(self, choices, width: int, domain: int = 1) -> np.ndarray:
        """Receive the chosen message per OT; returns ``(m, W)`` words."""
        c = np.asarray(choices, dtype=np.uint8)
        t = self._extend(c)
        with channel_span(self.chan, "ot-transfer", m=int(c.shape[0]), width=width):
            cipher = self.chan.recv()
            if cipher.shape != (c.shape[0], 2, width):
                raise CryptoError(f"unexpected ciphertext shape {cipher.shape}")
            pad = self.ro.mask(_rows_with_index(t, self._ot_index), width, domain)
            picked = cipher[np.arange(c.shape[0]), c.astype(np.int64)]
        self._ot_index += c.shape[0]
        return picked ^ pad

    def recv_xor_correlated(self, choices, width: int, domain: int = 3) -> XorOtRecv:
        """Send ``U`` for one XOR-correlated OT per choice bit; the
        returned half opens the sender's correction frame
        (:meth:`XorOtRecv.open`)."""
        c = np.asarray(choices, dtype=np.uint8)
        t = self._extend(c)
        with channel_span(self.chan, "ot-transfer", m=int(c.shape[0]), width=width):
            pads = self.ro.mask(_rows_with_index(t, self._ot_index), width, domain)
        self._ot_index += c.shape[0]
        return XorOtRecv(c, pads)

    def recv_correlated(
        self, choices, lanes: int | None, ring: Ring, domain: int = 2
    ) -> np.ndarray:
        """Receive ``x + c * delta`` per OT/lane.

        ``lanes=None`` mirrors a sender that passed 1-D deltas and returns
        a flat ``(m,)`` array; otherwise the result is ``(m, lanes)``.
        See :meth:`OtExtSender.send_correlated`.
        """
        c = np.asarray(choices, dtype=np.uint8)
        squeeze = lanes is None
        lanes = 1 if squeeze else lanes
        t = self._extend(c)
        with channel_span(self.chan, "ot-transfer", m=int(c.shape[0]), lanes=lanes):
            h_t = ring.reduce(self.ro.mask(_rows_with_index(t, self._ot_index), lanes, domain))
            n_elems = c.shape[0] * lanes
            packed = self.chan.recv()
        expected_words = packed_word_count(n_elems, ring.bits)
        if packed.shape != (expected_words,):
            raise CryptoError(f"unexpected correction shape {packed.shape}")
        correction = unpack_ring_words(packed[None, :], ring.bits, n_elems).reshape(
            c.shape[0], lanes
        )
        gated = ring.mul(correction, c.astype(_U64)[:, None])
        out = ring.add(h_t, gated)
        self._ot_index += c.shape[0]
        return out[:, 0] if squeeze else out
