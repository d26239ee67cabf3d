"""IKNP's 1-out-of-2 OT forms, on the KK13 engine at ``N = 2``.

IKNP (Ishai–Kilian–Nissim–Petrank) is KK13 with the repetition code, and
at ``N = 2`` the code of :mod:`repro.crypto.codes` is exactly that: 128
columns, ``C(0)`` all zeros and ``C(1)`` all ones.  So
:class:`OtExtSender` and :class:`OtExtReceiver` are
:class:`~repro.crypto.kk13.Kk13Sender` and
:class:`~repro.crypto.kk13.Kk13Receiver` fixed at ``N = 2``: they inherit
the engine's extension, pads and chosen-message OT, and add two
correlated forms written on its pads.  For OT ``i`` the sender's pad 0
is ``x0_i = H(i, q_i)``, its pad 1 is ``x1_i = H(i, q_i ^ s)``, and the
receiver's pad ``H(i, t_i)`` is ``x_{c_i}``.

The correlated form (`Gilboa-style`_) transfers one ring element per
OT: the sender keeps ``x0_i`` and sends ``delta_i - x1_i + x0_i
(mod 2^l)``, so the receiver gets ``x0_i + c_i * delta_i`` — the
primitive under SecureML's offline multiplication triplets and
QUOTIENT's ternary products.

The XOR-correlated form (ALSZ13's C-OT, as ABY and EMP move free-XOR
labels) transfers ``W`` words per OT: the receiver's ``U`` goes first,
the sender takes ``x0_i`` as its message for choice 0 and answers,
whenever it has picked its offset ``delta``, with one ``W``-word
correction ``x0_i ^ x1_i ^ delta`` per OT, so the receiver gets
``x0_i ^ c_i * delta``.  The correction travels in the caller's next
frame (:class:`XorOtSend`, :class:`XorOtRecv`).

.. _Gilboa-style: used for the baselines in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.errors import CryptoError
from repro.net.channel import Channel
from repro.net.frames import checked_frame
from repro.perf.trace import channel_span
from repro.utils.bits import pack_ring_words, packed_word_count, unpack_ring_words
from repro.utils.ring import Ring

_U64 = np.uint64
_ALL_ONES = _U64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class XorOtSend:
    """The sender's half of ``m`` XOR-correlated OTs, awaiting its offset.

    ``x0`` (``(m, W)`` words) is what a receiver with choice 0 gets; with
    choice 1 it gets ``x0 ^ delta`` once it holds :meth:`correction`.
    """

    x0: np.ndarray
    x1: np.ndarray  # pad 1: the receiver's pad at choice 1

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
        :class:`~repro.errors.ProtocolError`."""
        checked_frame(correction, self.pads.shape, "XOR-correlated OT correction")
        return self.pads ^ (correction & (self.choices.astype(_U64) * _ALL_ONES)[:, None])


class OtExtSender(Kk13Sender):
    """Extension sender at ``N = 2`` (the party that inputs message pairs)."""

    def __init__(
        self,
        chan: Channel,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
    ) -> None:
        super().__init__(chan, 2, group=group, seed=seed)

    def send_xor_correlated(self, m: int, width: int, domain: int = 3) -> XorOtSend:
        """XOR-correlated OT: receive ``U`` for ``m`` OTs of ``width``
        words each and return the sender's half; the caller sends
        :meth:`XorOtSend.correction` in its next frame."""
        q = self._extend(m)
        with channel_span(self.chan, "ot-transfer", m=m, width=width):
            pads = self.pads_at(q, self._take(m), width, domain)
        return XorOtSend(pads[:, 0], pads[:, 1])

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
            pads = ring.reduce(self.pads_at(q, self._take(m), lanes, domain))
            x, x1 = pads[:, 0], pads[:, 1]
            correction = ring.add(ring.sub(ring.reduce(d), x1), x)
            # Bit-pack to l bits per element: SecureML's truncated-message
            # optimization depends on sub-64-bit corrections costing less.
            self.chan.send(pack_ring_words(correction.reshape(1, -1), ring.bits)[0])
        return x[:, 0] if squeeze else x


class OtExtReceiver(Kk13Receiver):
    """Extension receiver at ``N = 2`` (the party that inputs choice bits)."""

    def __init__(
        self,
        chan: Channel,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
    ) -> None:
        super().__init__(chan, 2, group=group, seed=seed)

    def recv_xor_correlated(self, choices, width: int, domain: int = 3) -> XorOtRecv:
        """Send ``U`` for one XOR-correlated OT per choice bit; the
        returned half opens the sender's correction frame
        (:meth:`XorOtRecv.open`)."""
        c = np.asarray(choices, dtype=np.uint8)
        t = self._extend(c)
        with channel_span(self.chan, "ot-transfer", m=t.shape[0], width=width):
            pads = self.pads_at(t, self._take(t.shape[0]), width, domain)
        return XorOtRecv(c, pads)

    def recv_correlated(
        self, choices, lanes: int | None, ring: Ring, domain: int = 2
    ) -> np.ndarray:
        """Receive ``x + c * delta`` per OT/lane.

        ``lanes=None`` mirrors a sender that passed 1-D deltas and returns
        a flat ``(m,)`` array; otherwise the result is ``(m, lanes)``.
        See :meth:`OtExtSender.send_correlated`; a malformed correction
        frame raises :class:`~repro.errors.ProtocolError`.
        """
        c = np.asarray(choices, dtype=np.uint8)
        squeeze = lanes is None
        lanes = 1 if squeeze else lanes
        t = self._extend(c)
        m = t.shape[0]
        with channel_span(self.chan, "ot-transfer", m=m, lanes=lanes):
            h_t = ring.reduce(self.pads_at(t, self._take(m), lanes, domain))
            packed = checked_frame(
                self.chan.recv(),
                (packed_word_count(m * lanes, ring.bits),),
                "correlated OT correction",
            )
        correction = unpack_ring_words(packed[None, :], ring.bits, m * lanes).reshape(m, lanes)
        out = ring.add(h_t, ring.mul(correction, c.astype(_U64)[:, None]))
        return out[:, 0] if squeeze else out
