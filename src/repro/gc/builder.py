"""Word-level circuit builders: adders, subtractors, ReLU templates.

All word encodings are LSB-first lists of wire ids over Z_{2^l}.  Because
operands live in the ring, the ripple-carry adder simply drops its final
carry — this is the paper's observation that "there will be no extra cost
required to complete the non-XOR gates corresponding to the modulo
operation".

AND-gate budgets (l-bit words):

* :func:`add_words` / :func:`sub_words` — ``l - 1`` ANDs (no carry out).
* :func:`relu_template` — reconstruct + sign + mask + reshare:
  ``3l - 2`` ANDs.
* :func:`sign_template` — reconstruct + sign only: ``l - 1`` ANDs (stage 1
  of the paper's optimized ReLU).
* :func:`reconstruct_sub_template` — reconstruct and subtract the fresh
  share: ``2l - 2`` ANDs (stage 2, run only on positive neurons).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.gc.circuit import Circuit


def _check_same_width(x: list[int], y: list[int]) -> None:
    if len(x) != len(y):
        raise ConfigError(f"word width mismatch: {len(x)} vs {len(y)}")


def add_words(circ: Circuit, x: list[int], y: list[int]) -> list[int]:
    """Ripple-carry addition mod 2^l (carry out discarded).

    Full adder per bit using the standard free-XOR-friendly form:
    ``s = a ^ b ^ cin``, ``cout = cin ^ ((a ^ cin) & (b ^ cin))`` —
    one AND per bit, and none at the top bit.
    """
    _check_same_width(x, y)
    out = []
    carry = None
    for i, (a, b) in enumerate(zip(x, y)):
        if carry is None:
            out.append(circ.xor(a, b))
            if len(x) > 1:
                carry = circ.and_(a, b)
        else:
            axc = circ.xor(a, carry)
            bxc = circ.xor(b, carry)
            out.append(circ.xor(axc, b))
            if i < len(x) - 1:
                carry = circ.xor(circ.and_(axc, bxc), carry)
    return out


def sub_words(circ: Circuit, x: list[int], y: list[int]) -> list[int]:
    """x - y mod 2^l as ``x + ~y + 1`` — a borrow-style ripple (l-1 ANDs)."""
    _check_same_width(x, y)
    out = []
    carry = None  # None encodes carry-in fixed to 1 at bit 0
    for i, (a, b_raw) in enumerate(zip(x, y)):
        b = circ.inv(b_raw)
        if carry is None:
            # Bit 0 computes a + b + 1: sum = ~(a ^ b).
            out.append(circ.inv(circ.xor(a, b)))
            # carry-out of (a + b + 1) is majority(a, b, 1) = a | b.
            if len(x) > 1:
                carry = circ.or_(a, b)
        else:
            axc = circ.xor(a, carry)
            bxc = circ.xor(b, carry)
            out.append(circ.xor(axc, b))
            if i < len(x) - 1:
                carry = circ.xor(circ.and_(axc, bxc), carry)
    return out


def and_broadcast(circ: Circuit, bit: int, x: list[int]) -> list[int]:
    """AND one control bit onto every bit of a word (l ANDs)."""
    return [circ.and_(bit, w) for w in x]


# --------------------------------------------------------------------- #
# ABNN2 activation templates (Algorithm 2 instantiations)
# --------------------------------------------------------------------- #
def relu_template(bits: int) -> Circuit:
    """The fully-oblivious ReLU of Algorithm 2.

    Inputs: evaluator (server) holds ``y0``; garbler (client) holds ``y1``
    and its fresh output share ``z1``.  The circuit computes
    ``z0 = max(0, y0 + y1) - z1`` and reveals it to the evaluator only.

    AND count: ``(l-1)`` add + ``l`` mask + ``(l-1)`` subtract = ``3l - 2``.
    """
    circ = Circuit()
    y0 = circ.evaluator_input(bits)
    y1 = circ.garbler_input(bits)
    z1 = circ.garbler_input(bits)
    y = add_words(circ, y0, y1)
    non_negative = circ.inv(y[-1])  # MSB clear <=> y >= 0 (two's complement)
    relu = and_broadcast(circ, non_negative, y)
    z0 = sub_words(circ, relu, z1)
    circ.mark_outputs(z0)
    circ.validate()
    return circ


def sign_template(bits: int) -> Circuit:
    """Stage 1 of the optimized ReLU: just the comparison ``y0 > -y1``.

    Outputs a single bit (1 iff ``y0 + y1 >= 0``); costs ``l - 1`` ANDs.
    """
    circ = Circuit()
    y0 = circ.evaluator_input(bits)
    y1 = circ.garbler_input(bits)
    y = add_words(circ, y0, y1)
    circ.mark_outputs([circ.inv(y[-1])])
    circ.validate()
    return circ


def reconstruct_sub_template(bits: int) -> Circuit:
    """Stage 2 of the optimized ReLU, run only on the positive neurons.

    Computes ``z0 = (y0 + y1) - z1`` — reconstruct-and-reshare without the
    sign mask (``2l - 2`` ANDs).
    """
    circ = Circuit()
    y0 = circ.evaluator_input(bits)
    y1 = circ.garbler_input(bits)
    z1 = circ.garbler_input(bits)
    y = add_words(circ, y0, y1)
    z0 = sub_words(circ, y, z1)
    circ.mark_outputs(z0)
    circ.validate()
    return circ


def zero_wire(circ: Circuit, any_wire: int) -> int:
    """A constant-0 wire: ``x ^ x`` is free under free-XOR."""
    return circ.xor(any_wire, any_wire)


def add_words_grow(circ: Circuit, x: list[int], y: list[int], zero: int) -> list[int]:
    """Unsigned addition that *keeps* the carry: width ``max(|x|,|y|) + 1``.

    Shorter operands are padded with the constant-zero wire.  Used by the
    popcount tree, where widths grow by one per level.
    """
    width = max(len(x), len(y))
    a = list(x) + [zero] * (width - len(x))
    b = list(y) + [zero] * (width - len(y))
    out = []
    carry = None
    for i in range(width):
        if carry is None:
            out.append(circ.xor(a[i], b[i]))
            carry = circ.and_(a[i], b[i])
        else:
            axc = circ.xor(a[i], carry)
            bxc = circ.xor(b[i], carry)
            out.append(circ.xor(axc, b[i]))
            carry = circ.xor(circ.and_(axc, bxc), carry)
    out.append(carry)
    return out


def popcount_tree(circ: Circuit, bits: list[int]) -> list[int]:
    """Population count of a bit list as an LSB-first word.

    Balanced pairwise adder tree; ``n - popcount-ish`` AND gates total.
    This is the workhorse of XONN-style binarized linear layers, where
    XNOR products are free and the count is everything.
    """
    if not bits:
        raise ConfigError("popcount of zero bits")
    zero = zero_wire(circ, bits[0])
    counts: list[list[int]] = [[b] for b in bits]
    while len(counts) > 1:
        merged = []
        for i in range(0, len(counts) - 1, 2):
            merged.append(add_words_grow(circ, counts[i], counts[i + 1], zero))
        if len(counts) % 2:
            merged.append(counts[-1])
        counts = merged
    return counts[0]


def geq_words(circ: Circuit, x: list[int], y: list[int]) -> int:
    """Unsigned ``x >= y`` as a single bit (the subtraction's no-borrow).

    Operands are zero-padded to a common width; cost ``width`` ANDs.
    """
    if not x or not y:
        raise ConfigError("empty comparison operands")
    zero = zero_wire(circ, x[0])
    width = max(len(x), len(y))
    a = list(x) + [zero] * (width - len(x))
    b = list(y) + [zero] * (width - len(y))
    # Compute a + ~b + 1; the final carry-out is 1 iff a >= b.
    carry = None
    for i in range(width):
        nb = circ.inv(b[i])
        if carry is None:
            # carry-out of (a + ~b + 1) at bit 0 is a | ~b
            carry = circ.or_(a[i], nb)
        else:
            axc = circ.xor(a[i], carry)
            bxc = circ.xor(nb, carry)
            carry = circ.xor(circ.and_(axc, bxc), carry)
    return carry
