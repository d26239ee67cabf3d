"""Base 1-out-of-2 oblivious transfers (Chou–Orlandi style).

OT extension bootstraps from ``kappa`` public-key OTs.  We implement the
"simplest OT" pattern over a MODP group:

* the sender publishes ``A = g^a``;
* for OT ``i`` the receiver with choice bit ``c_i`` sends
  ``B_i = g^{b_i} * A^{c_i}``;
* both sides derive symmetric keys —
  sender: ``k_{i,j} = H(i, (B_i * A^{-j})^a)``,
  receiver: ``k_{i,c_i} = H(i, A^{b_i})``.

These are random OTs: the sender learns both keys, the receiver only the
key of its choice, and no chosen message is ever sent.

Cost per OT.  Every power goes through one of the group's two batched
methods, so a handshake is four batches, each one call into the compiled
kernel of :mod:`repro.crypto.fastro` when it is loaded
(:mod:`repro.crypto.group` says when it is not, and what runs then):

* receiver: ``g^{b_i}`` and, after ``B`` is sent, ``A^{b_i}`` —
  :meth:`~repro.crypto.group.ModpGroup.fixed_base_powers`, a comb
  over the one base per batch;
* sender: ``A = g^a``, and one
  :meth:`~repro.crypto.group.ModpGroup.fixed_exponent_powers` batch of
  ``C = (A^{-1})^a`` and every ``B_i^a``.  The sender pays one
  variable-base power per OT, not two:
  ``(B_i * A^{-1})^a = B_i^a * C``.

Each party checks a peer frame's kind and length before it decodes
anything (:func:`repro.net.frames.checked_bytes`: a ``ProtocolError``
naming the frame), and the sender decodes the whole response before its
batch of powers, so a malformed one costs it no exponentiation.
Neither path is constant-time, as :func:`pow` is not.

:func:`random_send` and :func:`random_receive` return the derived keys
themselves: the channel's base keys, from which
:mod:`repro.crypto.otsetup` derives every extension session's PRG seeds.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import hash_bytes
from repro.errors import CryptoError
from repro.net.channel import Channel
from repro.net.frames import checked_bytes

KEY_BYTES = 16
_DOMAIN_BASEOT = 0x42415345  # "BASE"


def _derive_key(group: ModpGroup, index: int, shared: int) -> bytes:
    data = index.to_bytes(8, "little") + group.encode(shared)
    return hash_bytes(data, KEY_BYTES, domain=_DOMAIN_BASEOT)


def random_send(
    chan: Channel,
    count: int,
    group: ModpGroup = DEFAULT_GROUP,
    randbelow=None,
) -> list[tuple[bytes, bytes]]:
    """Sender side of ``count`` random OTs; returns ``(k0, k1)`` per OT."""
    if count < 1:
        raise CryptoError("need at least one base OT")
    a = group.sample_exponent(randbelow)
    (big_a,) = group.fixed_base_powers(group.g, [a])
    chan.send(group.encode(big_a))

    size = group.element_bytes
    blob = checked_bytes(chan.recv(), count * size, f"base-OT response ({count} elements)")
    b_elems = [group.decode(blob[i * size : (i + 1) * size]) for i in range(count)]
    # (B * A^-1)^a = B^a * C with C = (A^-1)^a: one exponentiation per OT.
    c, *shared = group.fixed_exponent_powers([group.invert(big_a)] + b_elems, a)
    return [
        (_derive_key(group, i, s0), _derive_key(group, i, group.mul(s0, c)))
        for i, s0 in enumerate(shared)
    ]


def random_receive(
    chan: Channel,
    choices: Sequence[int],
    group: ModpGroup = DEFAULT_GROUP,
    randbelow=None,
) -> list[bytes]:
    """Receiver side of random OTs; returns ``k_{c_i}`` per OT."""
    choices = [int(c) for c in choices]
    if any(c not in (0, 1) for c in choices):
        raise CryptoError("base-OT choices must be bits")
    frame = checked_bytes(chan.recv(), group.element_bytes, "base-OT sender element A")
    big_a = group.decode(frame)

    exponents = [group.sample_exponent(randbelow) for _ in choices]
    parts = [
        group.encode(group.mul(elem, big_a) if c else elem)
        for elem, c in zip(group.fixed_base_powers(group.g, exponents), choices)
    ]
    chan.send(b"".join(parts))
    return [
        _derive_key(group, i, shared)
        for i, shared in enumerate(group.fixed_base_powers(big_a, exponents))
    ]
