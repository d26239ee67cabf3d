"""One base-OT set-up per channel endpoint, shared by every OT extension.

A party runs the public-key base OTs (:mod:`repro.crypto.baseot`) once
per channel and direction.  Every OT-extension session on that channel
(KK13 at any ``N``, IKNP being ``N = 2``) then derives fresh column seeds
from that one batch instead of running its own handshake:

* as **base-OT receiver** (the extension *sender*) the set-up keeps the
  choice bits ``s`` and the chosen keys ``k_{s_j}``.  In ABNN2 that is
  the client, which is both the KK13 sender and the GC garbler, so every
  ABNN2 session sits in this one direction;
* as **base-OT sender** (the extension *receiver*) it keeps the key pairs
  ``(k0_j, k1_j)``.

The batch grows on demand.  A session asks for ``n`` columns (its code
length ``c(N)``: 128, 192 or 256, see :mod:`repro.crypto.codes`), and one
handshake runs for the missing columns only.
A party that knows the widest session it will open calls
:meth:`OtSetup.reserve` first, so the handshake covers it at once.  The
offline walk reserves the widest ``c(N)`` of the whole round, so a
one-shot prediction runs exactly one handshake of ``c_max`` columns
(192 for models whose fragments all have ``N <= 4``): the first KK13
layer triggers it and the GC label OT reuses columns 0-127.  A bank-mode
served session never runs KK13 and runs one 128-column handshake.

Each session takes the next **tag** from the set-up's counter when it is
constructed and seeds its column PRGs with ``H(k_j || tag)``.  The tag is
also the session's OT-index tweak base (``tag << 48``), so the
random-oracle inputs of different sessions never collide.  ``s`` is
shared across sessions and the seeds are not: this is the standard
OT-extension session split (libOTe's ``split()`` works the same way).
Deriving a tag twice would repeat seeds and tweaks, so it raises, as does
running past the 16-bit tag space.

Both parties must construct their sessions on a channel in the same
order, which the mirrored protocol code does by construction.  The set-up
is found on the channel as ``chan.ot_setup``, the way a tracer is found
as ``chan.tracer``.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import baseot
from repro.crypto.group import ModpGroup
from repro.crypto.hash_ro import hash_bytes
from repro.crypto.prg import SEED_BYTES
from repro.errors import CryptoError
from repro.perf.trace import channel_span
from repro.utils.rng import randbelow_from_rng

#: Session tags own the top 16 bits of the 64-bit OT-index tweak; 48
#: bits of per-session OT counter is far beyond any batch this stack runs.
MAX_SESSION_TAG = (1 << 16) - 1
_SESSION_TAG_SHIFT = 48
_DOMAIN_SESSION_SEED = 0x53454544  # "SEED"


def session_base_index(tag: int) -> int:
    """Starting OT index (random-oracle tweak) of session ``tag``."""
    tag = int(tag)
    if not 0 <= tag <= MAX_SESSION_TAG:
        raise CryptoError(f"session tag must be in [0, {MAX_SESSION_TAG}], got {tag}")
    return tag << _SESSION_TAG_SHIFT


def _session_seed(key: bytes, tag: int) -> bytes:
    """``H(k || tag)``: one column seed of session ``tag``."""
    return hash_bytes(
        key + tag.to_bytes(8, "little"), SEED_BYTES, domain=_DOMAIN_SESSION_SEED
    )


class OtSetup:
    """The base-OT batch of one channel endpoint, in both directions."""

    def __init__(self, chan, group: ModpGroup) -> None:
        self.chan = chan
        self.group = group
        self._choices = np.zeros(0, dtype=np.uint8)  # s, as base-OT receiver
        self._chosen: list[bytes] = []  # k_{s_j}
        self._pairs: list[tuple[bytes, bytes]] = []  # (k0_j, k1_j), as sender
        self._next_tag = 0
        self._derived: set[int] = set()
        self._reserved = 0

    def reserve(self, columns: int) -> None:
        """Size the next handshake for at least ``columns`` base OTs.

        No traffic.  Sessions that grow in width (KK13 at ``N = 4``,
        then at ``N = 8``) would each top the batch up with a handshake
        of their own; reserving the widest first makes the first one
        cover them all.  Both parties must reserve alike, which the
        mirrored protocol code does from the public model.
        """
        self._reserved = max(self._reserved, int(columns))

    def _missing(self, have: int, columns: int) -> int:
        """Base OTs the next handshake runs, 0 when ``columns`` exist."""
        if columns <= have:
            return 0
        return max(columns, self._reserved) - have

    def next_tag(self) -> int:
        """Hand out the next session tag."""
        tag = self._next_tag
        if tag > MAX_SESSION_TAG:
            raise CryptoError(
                f"OT session tags exhausted on this channel: all "
                f"{MAX_SESSION_TAG + 1} are used; open a new connection"
            )
        self._next_tag += 1
        return tag

    def _claim(self, tag: int) -> None:
        if tag in self._derived:
            raise CryptoError(
                f"OT session tag {tag} was already derived on this channel; "
                "deriving it again would reuse its seeds"
            )
        self._derived.add(tag)

    def _handshake_span(self, columns: int, role: str):
        return channel_span(
            self.chan, "base-ot", columns=columns, role=role,
            element_bytes=self.group.element_bytes,
        )

    def receiver_seeds(
        self, tag: int, columns: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, list[bytes]]:
        """``(s[:columns], [H(k_{s_j} || tag)])`` for an extension sender.

        ``rng`` draws the choice bits and exponents of the handshake that
        runs when fewer than ``columns`` base OTs exist yet; it covers
        the reserved width too.
        """
        missing = self._missing(len(self._chosen), columns)
        if missing:
            s = rng.integers(0, 2, size=missing, dtype=np.uint8)
            with self._handshake_span(missing, "receiver"):
                keys = baseot.random_receive(
                    self.chan, s.tolist(), self.group,
                    randbelow=lambda bound: randbelow_from_rng(rng, bound),
                )
            self._choices = np.concatenate([self._choices, s])
            self._chosen.extend(keys)
        self._claim(tag)
        seeds = [_session_seed(key, tag) for key in self._chosen[:columns]]
        return self._choices[:columns].copy(), seeds

    def sender_seeds(
        self, tag: int, columns: int, rng: np.random.Generator
    ) -> tuple[list[bytes], list[bytes]]:
        """``([H(k0_j || tag)], [H(k1_j || tag)])`` for an extension receiver."""
        missing = self._missing(len(self._pairs), columns)
        if missing:
            with self._handshake_span(missing, "sender"):
                pairs = baseot.random_send(
                    self.chan, missing, self.group,
                    randbelow=lambda bound: randbelow_from_rng(rng, bound),
                )
            self._pairs.extend(pairs)
        self._claim(tag)
        pairs = self._pairs[:columns]
        return (
            [_session_seed(k0, tag) for k0, _ in pairs],
            [_session_seed(k1, tag) for _, k1 in pairs],
        )


def channel_setup(chan, group: ModpGroup) -> OtSetup:
    """``chan``'s OT set-up, created (empty, no traffic) on first use."""
    setup = getattr(chan, "ot_setup", None)
    if setup is None:
        setup = OtSetup(chan, group)
        chan.ot_setup = setup
    elif setup.group != group:
        raise CryptoError(
            f"this channel's OT set-up runs over {setup.group.name}, "
            f"not {group.name}"
        )
    return setup
