"""Prime-order-ish multiplicative groups for the base OT.

The base OT (:mod:`repro.crypto.baseot`) runs Chou–Orlandi style key
agreement in a classic MODP group.  We ship the RFC 3526 1536-bit and
2048-bit groups (safe primes, generator 2) plus a small 256-bit safe prime
for fast unit tests — the small group is clearly labelled *insecure* and
never selected by default.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.errors import CryptoError

# RFC 3526, group 5 (1536-bit MODP).
_P_1536 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)

# RFC 3526, group 14 (2048-bit MODP).
_P_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# A 256-bit safe prime (p = 2q + 1, p = 7 mod 8, so 2 generates the
# order-q subgroup) for *tests only*.
_P_256_TEST = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF72EF


@dataclass(frozen=True)
class ModpGroup:
    """A multiplicative group Z_p^* with a fixed generator.

    For safe primes with generator ``g = 2`` the subgroup has large prime
    order ``q = (p - 1) / 2``; exponents are sampled below ``q``.
    """

    name: str
    p: int
    g: int
    secure: bool

    @property
    def order(self) -> int:
        return (self.p - 1) // 2

    @property
    def element_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def sample_exponent(self, randbelow=None) -> int:
        """A random nonzero exponent.

        Uses the standard short-exponent optimization for large groups:
        in a safe-prime group, 2*kappa-bit exponents are believed as hard
        to recover as full-width ones (short-exponent DLOG), and they cut
        the base-OT exponentiation cost by ~6x at 1536 bits.
        """
        draw = randbelow or secrets.randbelow
        bound = min(self.order, 1 << 256)
        value = 0
        while value == 0:
            value = draw(bound)
        return value

    def power(self, base: int, exponent: int) -> int:
        return pow(base, exponent, self.p)

    def gpow(self, exponent: int) -> int:
        return pow(self.g, exponent, self.p)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def invert(self, a: int) -> int:
        if a % self.p == 0:
            raise CryptoError("cannot invert zero in Z_p^*")
        return pow(a, -1, self.p)

    def encode(self, element: int) -> bytes:
        return element.to_bytes(self.element_bytes, "little")

    def decode(self, data: bytes) -> int:
        element = int.from_bytes(data, "little")
        if not 1 <= element < self.p:
            raise CryptoError("group element out of range")
        return element


MODP_1536 = ModpGroup("modp-1536", _P_1536, 2, secure=True)
MODP_2048 = ModpGroup("modp-2048", _P_2048, 2, secure=True)
#: 256-bit group: fast, but offers no real security — tests only.
MODP_TEST = ModpGroup("modp-256-test", _P_256_TEST, 2, secure=False)

DEFAULT_GROUP = MODP_1536
