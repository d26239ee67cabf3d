"""Prime-order-ish multiplicative groups for the base OT.

The base OT (:mod:`repro.crypto.baseot`) runs Chou–Orlandi style key
agreement in a classic MODP group.  We ship the RFC 3526 1536-bit and
2048-bit groups (safe primes, generator 2) plus a small 256-bit safe prime
for fast unit tests — the small group is clearly labelled *insecure* and
never selected by default.

The base OT's powers come in batches, through two methods:
:meth:`ModpGroup.fixed_exponent_powers` (many bases, one exponent) and
:meth:`ModpGroup.fixed_base_powers` (one base, many exponents).  Each is
one call into the compiled kernel of :mod:`repro.crypto.fastro` when it
is loaded and ``p`` is odd and at most 32 limbs; otherwise the first is
:func:`pow` per base and the second a :class:`FixedBaseTable` (the
group's cached one for ``g``).  Both paths give the same integers, and
neither is constant-time, as :func:`pow` is not.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass
from typing import Sequence

from repro.crypto import fastro
from repro.errors import CryptoError

#: Width of the exponents :meth:`ModpGroup.sample_exponent` draws (2·kappa)
#: and the exponent width a :class:`FixedBaseTable` covers.
EXPONENT_BITS = 256
#: Comb radix ``2^w`` of a :class:`FixedBaseTable`: ceil(256 / 6) = 43 rows
#: of 63 elements (≈0.6 MiB at 1536 bits), ≤ 43 multiplications per power.
_WINDOW_BITS = 6


class FixedBaseTable:
    """``base^e mod p`` for ``0 <= e < 2^(43·6)`` from precomputed powers.

    A radix-``2^w`` comb: row ``i`` holds ``base^(d·2^(w·i))`` for every
    digit ``d < 2^w``, so a power is one modular multiplication per
    nonzero base-``2^w`` digit of ``e`` (≤ 43 for a 256-bit exponent)
    instead of ~300 squarings and multiplications.  Any other exponent
    falls back to :func:`pow`.  Like ``pow``, neither path is
    constant-time.
    """

    def __init__(self, base: int, p: int) -> None:
        self.base = base
        self.p = p
        rows = []
        step = base % p
        for _ in range(-(-EXPONENT_BITS // _WINDOW_BITS)):
            row = [1]
            for _ in range((1 << _WINDOW_BITS) - 1):
                row.append(row[-1] * step % p)
            rows.append(row)
            step = row[-1] * step % p  # base^(2^(w·(i+1)))
        self._rows = rows
        self._limit = 1 << (len(rows) * _WINDOW_BITS)

    def power(self, exponent: int) -> int:
        if not 0 <= exponent < self._limit:
            return pow(self.base, exponent, self.p)
        p, mask, rows = self.p, (1 << _WINDOW_BITS) - 1, self._rows
        result, i = 1, 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * rows[i][digit] % p
            exponent >>= _WINDOW_BITS
            i += 1
        return result

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
        """A random nonzero exponent below ``2^256`` (and below ``q``).

        Short exponents: the best known attack on a 2·kappa-bit exponent
        in a safe-prime group is Pollard's kangaroo, ≈2^128 group
        operations (docs/PROTOCOLS.md §1).  The width sets the cost of
        every base-OT power: a 256-bit ``pow`` at 1536 bits is ≈6x cheaper
        than a full-width one, and a radix-2^6 comb (the kernel's, or a
        :class:`FixedBaseTable`) covers it in 43 rows.
        """
        draw = randbelow or secrets.randbelow
        bound = min(self.order, 1 << EXPONENT_BITS)
        value = 0
        while value == 0:
            value = draw(bound)
        return value

    def fixed_exponent_powers(self, bases: Sequence[int], exponent: int) -> list[int]:
        """``[b^exponent mod p for b in bases]``: one kernel call for an
        exponent in ``[0, 2^256)``, else :func:`pow` per base."""
        p = self.p
        if _kernel_exponent(exponent) and fastro.modexp_ready(p):
            return fastro.powers_fixed_exponent([b % p for b in bases], exponent, p)
        return [pow(b, exponent, p) for b in bases]

    def fixed_base_powers(self, base: int, exponents: Sequence[int]) -> list[int]:
        """``[base^e mod p for e in exponents]``: one kernel call, where an
        exponent outside ``[0, 2^256)`` takes :func:`pow` (as in
        :meth:`FixedBaseTable.power`); without the kernel, a
        :class:`FixedBaseTable`, the group's cached one for ``g``."""
        p = self.p
        if not fastro.modexp_ready(p):
            table = _generator_table(self) if base == self.g else FixedBaseTable(base, p)
            return [table.power(e) for e in exponents]
        narrow = [e if _kernel_exponent(e) else 0 for e in exponents]
        powers = fastro.powers_fixed_base(base % p, narrow, p)
        return [x if _kernel_exponent(e) else pow(base, e, p) for x, e in zip(powers, exponents)]

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def invert(self, a: int) -> int:
        if a % self.p == 0:
            raise CryptoError("cannot invert zero in Z_p^*")
        return pow(a, -1, self.p)

    def encode(self, element: int) -> bytes:
        return element.to_bytes(self.element_bytes, "little")

    def decode(self, data: bytes) -> int:
        """A peer's element: exactly ``element_bytes`` long, in ``(1, p - 1)``.

        ``1`` and ``p - 1`` have order ≤ 2; a sender's ``A = 1`` would make
        both base-OT keys equal.
        """
        if not isinstance(data, (bytes, bytearray)) or len(data) != self.element_bytes:
            raise CryptoError(
                f"group element must be {self.element_bytes} bytes"
            )
        element = int.from_bytes(data, "little")
        if not 1 < element < self.p - 1:
            raise CryptoError("group element out of range or of order <= 2")
        return element


def _kernel_exponent(exponent: int) -> bool:
    return 0 <= exponent < 1 << (64 * fastro.EXPONENT_WORDS)


_GENERATOR_TABLES: dict[ModpGroup, FixedBaseTable] = {}
_GENERATOR_TABLES_LOCK = threading.Lock()


def _generator_table(group: ModpGroup) -> FixedBaseTable:
    """The group's ``g`` table, built on first use once per process."""
    table = _GENERATOR_TABLES.get(group)
    if table is None:
        with _GENERATOR_TABLES_LOCK:
            table = _GENERATOR_TABLES.get(group)
            if table is None:
                table = _GENERATOR_TABLES[group] = FixedBaseTable(group.g, group.p)
    return table


MODP_1536 = ModpGroup("modp-1536", _P_1536, 2, secure=True)
MODP_2048 = ModpGroup("modp-2048", _P_2048, 2, secure=True)
#: 256-bit group: fast, but offers no real security — tests only.
MODP_TEST = ModpGroup("modp-256-test", _P_256_TEST, 2, secure=False)

DEFAULT_GROUP = MODP_1536
