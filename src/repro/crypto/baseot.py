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

Cost per OT.  Both receiver exponentiations have a fixed base, so both
come from a :class:`~repro.crypto.group.FixedBaseTable` (≤ 43 modular
multiplications each): ``g^{b_i}`` from the group's per-process ``g``
table, ``A^{b_i}`` from one table per handshake over the sender's ``A``.
The sender pays one variable-base ``pow`` per OT, not two:
``(B_i * A^{-1})^a = B_i^a * (A^{-1})^a``, and ``C = (A^{-1})^a`` is
computed once per batch (``A = g^a`` itself comes from the ``g`` table).

:func:`random_send` and :func:`random_receive` return the derived keys
themselves: the channel's base keys, from which
:mod:`repro.crypto.otsetup` derives every extension session's PRG seeds.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.group import DEFAULT_GROUP, FixedBaseTable, ModpGroup
from repro.crypto.hash_ro import sha256_ro
from repro.errors import CryptoError
from repro.net.channel import Channel

KEY_BYTES = 16
_DOMAIN_BASEOT = 0x42415345  # "BASE"


def _derive_key(group: ModpGroup, index: int, shared: int) -> bytes:
    data = index.to_bytes(8, "little") + group.encode(shared)
    return sha256_ro.hash_bytes(data, KEY_BYTES, domain=_DOMAIN_BASEOT)


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
    big_a = group.gpow(a)
    chan.send(group.encode(big_a))
    # (B * A^-1)^a = B^a * C with C = (A^-1)^a: one exponentiation per OT.
    c = group.power(group.invert(big_a), a)

    blob = chan.recv()
    if len(blob) != count * group.element_bytes:
        raise CryptoError("unexpected base-OT response size")
    keys = []
    size = group.element_bytes
    for i in range(count):
        b_elem = group.decode(blob[i * size : (i + 1) * size])
        shared0 = group.power(b_elem, a)
        shared1 = group.mul(shared0, c)
        keys.append((_derive_key(group, i, shared0), _derive_key(group, i, shared1)))
    return keys


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
    big_a = group.decode(chan.recv())

    exponents = []
    parts = []
    for c in choices:
        b = group.sample_exponent(randbelow)
        exponents.append(b)
        elem = group.gpow(b)
        if c == 1:
            elem = group.mul(elem, big_a)
        parts.append(group.encode(elem))
    chan.send(b"".join(parts))

    # Every A^{b_i} shares the base A: one table for this handshake only.
    a_table = FixedBaseTable(big_a, group.p)
    return [_derive_key(group, i, a_table.power(b)) for i, b in enumerate(exponents)]

