"""Fragment schemes: the N-base decomposition at the core of ABNN2.

The paper decomposes an eta-bit quantized weight ``w`` into gamma
fragments (Eq. 2): ``w * r = sum_i N^i w[i] * r``, one 1-out-of-N OT per
fragment.  Table 2 writes schemes as tuples of per-fragment bit widths,
LSB first — ``(2,2,2,2)`` for eta = 8, ``(2,1)`` for eta = 3, etc. — so
fragments may have *different* radices (mixed-radix decomposition); this
module models exactly that, plus the special ``binary`` ({0,1}) and
``ternary`` ({-1,0,1}) schemes the evaluation compares against.

Signed weights need no extra OTs: the OT sender enumerates message
contents for every choice index anyway, so the **top fragment's value
table** simply interprets its digit in two's complement.  The digit (OT
choice index) is still the raw bit pattern; only the *value* the client
multiplies into its messages changes.  :meth:`FragmentScheme.values`
exposes those per-digit contributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError


@dataclass(frozen=True)
class FragmentSpec:
    """One fragment: an N-valued OT whose digit ``j`` contributes ``values[j]``."""

    n_values: int
    values: tuple[int, ...]  # signed contribution of each digit

    def __post_init__(self) -> None:
        if self.n_values < 2:
            raise QuantizationError("a fragment needs at least 2 values")
        if len(self.values) != self.n_values:
            raise QuantizationError("value table size must equal n_values")


class FragmentScheme:
    """A full decomposition of eta-bit weights into OT fragments."""

    def __init__(self, name: str, eta: int, fragments: list[FragmentSpec], signed: bool) -> None:
        self.name = name
        self.eta = eta
        self.fragments = list(fragments)
        self.signed = signed

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_bits(cls, bit_widths: tuple[int, ...], signed: bool = True) -> "FragmentScheme":
        """Build a scheme from Table 2 notation, LSB-first bit widths.

        ``(2,2,2,2)`` means four fragments of 2 bits each (N = 4);
        ``(3,3,2)`` means 3-bit, 3-bit, then 2-bit fragments.  With
        ``signed=True`` the top fragment's digits are read in two's
        complement so the scheme covers ``[-2^(eta-1), 2^(eta-1))``.
        """
        if not bit_widths or any(b < 1 for b in bit_widths):
            raise QuantizationError(f"invalid bit widths {bit_widths}")
        eta = sum(bit_widths)
        fragments = []
        offset = 0
        for idx, width in enumerate(bit_widths):
            n = 1 << width
            top = idx == len(bit_widths) - 1
            values = []
            for digit in range(n):
                magnitude = digit
                if signed and top and digit >= n // 2:
                    magnitude = digit - n
                values.append(magnitude << offset)
            fragments.append(FragmentSpec(n, tuple(values)))
            offset += width
        label = ",".join(str(b) for b in bit_widths)
        return cls(f"{eta}({label})", eta, fragments, signed)

    @classmethod
    def binary(cls) -> "FragmentScheme":
        """The paper's binary scheme: weights in {0, 1}, one (2 1)-OT."""
        return cls("binary", 1, [FragmentSpec(2, (0, 1))], signed=False)

    @classmethod
    def ternary(cls) -> "FragmentScheme":
        """The paper's ternary scheme: weights in {-1, 0, 1}, one (3 1)-OT."""
        return cls("ternary", 2, [FragmentSpec(3, (0, 1, -1))], signed=True)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def gamma(self) -> int:
        """Number of fragments (OTs per weight element)."""
        return len(self.fragments)

    @property
    def max_n(self) -> int:
        return max(f.n_values for f in self.fragments)

    @property
    def weight_range(self) -> tuple[int, int]:
        """Inclusive (lo, hi) of representable weights."""
        lo = sum(min(f.values) for f in self.fragments)
        hi = sum(max(f.values) for f in self.fragments)
        return lo, hi

    def values(self, fragment_idx: int) -> np.ndarray:
        """Per-digit signed contributions of one fragment, as int64."""
        return np.asarray(self.fragments[fragment_idx].values, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # digit encoding
    # ------------------------------------------------------------------ #
    def digits(self, weights) -> np.ndarray:
        """OT choice indices for (signed) integer weights.

        Returns a uint8 array with one trailing axis of length gamma (a
        fragment has at most 256 values, the KK13 radix limit).  Raises
        if any weight is outside :attr:`weight_range`.
        """
        w = np.asarray(weights, dtype=np.int64)
        lo, hi = self.weight_range
        if (w < lo).any() or (w > hi).any():
            raise QuantizationError(
                f"weights outside [{lo}, {hi}] for scheme {self.name}"
            )
        if self.max_n > 256:
            raise QuantizationError(f"{self.name}: a fragment has more than 256 digits")
        out = np.empty(w.shape + (self.gamma,), dtype=np.uint8)
        if self.name == "ternary":
            # {-1, 0, 1} -> digits {2, 0, 1}
            out[..., 0] = np.where(w < 0, 2, w)
            return out
        # Mixed-radix bit slicing of the two's-complement pattern.
        pattern = w & ((1 << self.eta) - 1) if self.signed else w
        offset = 0
        for idx, frag in enumerate(self.fragments):
            width = (frag.n_values - 1).bit_length()
            out[..., idx] = (pattern >> offset) & (frag.n_values - 1)
            offset += width
        return out

    def compose(self, digits: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`digits` — mostly for tests/invariants."""
        d = np.asarray(digits, dtype=np.int64)
        total = np.zeros(d.shape[:-1], dtype=np.int64)
        for idx in range(self.gamma):
            total = total + self.values(idx)[d[..., idx]]
        return total

    def __repr__(self) -> str:
        return f"FragmentScheme({self.name}, gamma={self.gamma})"


#: The schemes Table 2 evaluates, keyed by (eta, tuple-notation).
TABLE2_SCHEMES: dict[str, FragmentScheme] = {
    "8(1,...,1)": FragmentScheme.from_bits((1,) * 8),
    "8(2,2,2,2)": FragmentScheme.from_bits((2, 2, 2, 2)),
    "8(3,3,2)": FragmentScheme.from_bits((3, 3, 2)),
    "8(4,4)": FragmentScheme.from_bits((4, 4)),
    "6(1,...,1)": FragmentScheme.from_bits((1,) * 6),
    "6(2,2,2)": FragmentScheme.from_bits((2, 2, 2)),
    "6(3,3)": FragmentScheme.from_bits((3, 3)),
    "4(1,...,1)": FragmentScheme.from_bits((1,) * 4),
    "4(2,2)": FragmentScheme.from_bits((2, 2)),
    "4(4)": FragmentScheme.from_bits((4,)),
    "3(1,...,1)": FragmentScheme.from_bits((1,) * 3),
    "3(2,1)": FragmentScheme.from_bits((2, 1)),
    "3(3)": FragmentScheme.from_bits((3,)),
    "ternary": FragmentScheme.ternary(),
    "binary": FragmentScheme.binary(),
}
