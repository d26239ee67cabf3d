"""Word-level circuit builders: adders, subtractors, the ReLU gadget.

All word encodings are LSB-first lists of wire ids.  Because operands
live in a ring, the ripple-carry adder simply drops its final carry —
this is the paper's observation that "there will be no extra cost
required to complete the non-XOR gates corresponding to the modulo
operation".

The ReLU gadget is sized to the activation, not the ring.  With a public
bound ``|y| < 2^(m-1)`` each party feeds only the low ``m`` bits of its
share of ``y`` (reduction mod ``2^m`` commutes with addition, so their
sum is ``y``'s exact ``m``-bit form); the circuit drops the low ``f``
bits (an exact arithmetic shift, free), and works on the remaining
``k = m - f`` bits.  The output lives in a ring of ``l'`` bits, the next
layer's (``l' = l`` by default).  When ``k < l'`` the output's high
``l' - k`` bits are ``-z1_high - borrow``: the subtraction's borrow-out
wire becomes the circuit's :attr:`~repro.gc.circuit.Circuit.row_wire`,
whose 2-row table (:func:`repro.gc.garble.row_table`) delivers them
without AND gates.  When ``k > l'`` only the low ``l'`` bits are kept,
masked and subtracted: the rest never reach the output ring.

AND-gate budgets (``m``-bit inputs, ``k = m - f`` output bits, at
``k <= l'``; above it ``k`` counts as ``l'``):

* :func:`add_words` / :func:`sub_words` — ``w - 1`` ANDs on ``w``-bit
  words (no carry out), ``w`` with the borrow out.
* :func:`relu_template` — add + mask + subtract: ``(m - 1) + 2k - 1``
  ANDs, which is ``3l - 2`` at full width (``m = k = l``).  Narrowed, the
  masked sign bit is the free constant 0 and the saved AND pays for the
  borrow out; at full width every bit is masked and no borrow is needed.
* :func:`sign_template` — add and sign only: ``m - 1`` ANDs (stage 1 of
  the paper's optimized ReLU).
* :func:`reconstruct_sub_template` — add and subtract, no mask:
  ``(m - 1) + k`` ANDs, ``2l - 2`` at full width (stage 2, run only on
  positive neurons).

The garbler's inputs ``y1`` and ``z1`` are garbler-known wires: the
adder's first AND and the subtraction's first each take one of them as
an operand and garble as one-ciphertext half gates
(:mod:`repro.gc.garble`), one for the sign circuit, two otherwise.
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


def sub_words(
    circ: Circuit, x: list[int], y: list[int], borrow_out: bool = False
):
    """x - y mod 2^w as ``x + ~y + 1`` — a borrow-style ripple (w-1 ANDs).

    With ``borrow_out`` the top carry is kept too (one more AND) and the
    result is ``(difference, borrow)``, ``borrow`` being 1 iff ``x < y``
    as unsigned words.
    """
    _check_same_width(x, y)
    out = []
    carry = None  # None encodes carry-in fixed to 1 at bit 0
    last = len(x) - 1
    for i, (a, b_raw) in enumerate(zip(x, y)):
        b = circ.inv(b_raw)
        if carry is None:
            # Bit 0 computes a + b + 1: sum = ~(a ^ b).
            out.append(circ.inv(circ.xor(a, b)))
            # carry-out of (a + b + 1) is majority(a, b, 1) = a | b.
            if i < last or borrow_out:
                carry = circ.or_(a, b)
        else:
            axc = circ.xor(a, carry)
            bxc = circ.xor(b, carry)
            out.append(circ.xor(axc, b))
            if i < last or borrow_out:
                carry = circ.xor(circ.and_(axc, bxc), carry)
    if borrow_out:
        return out, circ.inv(carry)
    return out


def and_broadcast(circ: Circuit, bit: int, x: list[int]) -> list[int]:
    """AND one control bit onto every bit of a word (l ANDs)."""
    return [circ.and_(bit, w) for w in x]


# --------------------------------------------------------------------- #
# The ReLU gadget (Algorithm 2, sized to the activation)
# --------------------------------------------------------------------- #
def _relu_gadget(
    width: int, shift: int, out_bits: int | None, kind: str
) -> Circuit:
    """The one ReLU circuit both ``relu_variant``s garble.

    ``kind`` is ``"relu"`` (reconstruct, shift, mask, reshare),
    ``"sign"`` (reconstruct and output the sign only) or
    ``"reconstruct"`` (reconstruct, shift, reshare: the caller already
    knows the value is non-negative).  Inputs, in wire order: the
    evaluator's ``width`` low bits of ``y0``, the garbler's ``width`` low
    bits of ``y1`` and (unless ``"sign"``) the low ``min(k, out_bits)``
    bits of its fresh output share ``z1``, ``k = width - shift``.  The
    outputs are those low bits of ``z0 = ReLU(y >> shift) - z1`` in the
    ``out_bits``-bit output ring; when ``k < out_bits`` the borrow of
    that subtraction is the circuit's ``row_wire``.
    """
    out_bits = width if out_bits is None else out_bits
    k = width - shift
    if not (shift >= 0 and 1 <= k and out_bits >= 1):
        raise ConfigError(
            f"ReLU gadget needs 0 <= shift < width and an output ring, got "
            f"width={width} shift={shift} out_bits={out_bits}"
        )
    circ = Circuit()
    y0 = circ.evaluator_input(width)
    y1 = circ.garbler_input(width)
    z1 = circ.garbler_input(min(k, out_bits)) if kind != "sign" else []
    y = add_words(circ, y0, y1)
    non_negative = circ.inv(y[-1])  # MSB clear <=> y >= 0 (two's complement)
    if kind == "sign":
        circ.mark_outputs([non_negative])
    else:
        # Dropping the low bits of the exact m-bit sum is y >> shift; bits
        # above the output ring never reach it.
        kept = y[shift:][:out_bits]
        if kind == "relu" and k < out_bits:
            # The masked sign bit is always 0: a free constant wire, whose
            # saved AND pays for the borrow out below.
            kept = and_broadcast(circ, non_negative, kept[:-1]) + [zero_wire(circ, y[0])]
        elif kind == "relu":
            # k >= out_bits: every kept bit is masked with an AND and no
            # borrow is needed; at full width this is the paper's
            # 3l-2-AND circuit, gate for gate.
            kept = and_broadcast(circ, non_negative, kept)
        if k < out_bits:
            z0, circ.row_wire = sub_words(circ, kept, z1, borrow_out=True)
            circ.row_bits = out_bits - k
        else:
            z0 = sub_words(circ, kept, z1)
        circ.mark_outputs(z0)
    circ.validate()
    return circ


def relu_template(bits: int, shift: int = 0, out_bits: int | None = None) -> Circuit:
    """The fully-oblivious ReLU of Algorithm 2 on ``bits``-bit inputs.

    Inputs: evaluator (server) holds ``y0``; garbler (client) holds ``y1``
    and its fresh output share ``z1``.  The circuit computes
    ``z0 = max(0, (y0 + y1) >> shift) - z1`` and reveals it to the
    evaluator only, in the ``out_bits``-bit output ring (default ``bits``).

    AND count: ``(m-1) + 2k - 1`` with ``m = bits``, ``k = bits - shift``
    (``3l - 2`` at full width).
    """
    return _relu_gadget(bits, shift, out_bits, "relu")


def sign_template(bits: int) -> Circuit:
    """Stage 1 of the optimized ReLU: just the comparison ``y0 > -y1``.

    Outputs a single bit (1 iff ``y0 + y1 >= 0``); costs ``bits - 1`` ANDs.
    """
    return _relu_gadget(bits, 0, None, "sign")


def reconstruct_sub_template(
    bits: int, shift: int = 0, out_bits: int | None = None
) -> Circuit:
    """Stage 2 of the optimized ReLU, run only on the positive neurons.

    Computes ``z0 = ((y0 + y1) >> shift) - z1`` — reconstruct-and-reshare
    without the sign mask (``2l - 2`` ANDs at full width).
    """
    return _relu_gadget(bits, shift, out_bits, "reconstruct")


def zero_wire(circ: Circuit, any_wire: int) -> int:
    """A constant-0 wire: ``x ^ x`` is free under free-XOR."""
    return circ.xor(any_wire, any_wire)

