"""Secure non-linear layer: Algorithm 2 ReLU and the optimized variant.

Shares enter as ``(y0, y1)`` with ``y0 + y1 = y (mod 2^l)`` and leave as
``(z0, z1)`` with ``z0 + z1 = ReLU(y >> f)``.  Roles: the **client
garbles** (it also picks the fresh output share ``z1``), the **server
evaluates** and obtains ``z0`` from the circuit's decoded output —
exactly Algorithm 2's interface.

The circuit is sized to the activation, not the ring
(:mod:`repro.gc.builder`): given a public width ``m`` with
``|y| < 2^(m-1)``, each party feeds only the low ``m`` bits of its
*untruncated* share, the circuit shifts by ``f`` exactly (the layer's
rescaling, folded into the GC), and a 2-row table delivers the output's
high bits.  So the secure result equals the plaintext reference
:meth:`repro.nn.quantize.QuantizedModel.forward_int` exactly.  The
output shares live in ``out_ring``, the next layer's ring (default the
input ring): a narrower one keeps only its low bits, a wider one gets
its high bits from the table.  The defaults (``width = l``,
``shift = 0``, ``out_ring = ring``) give the paper's ``l``-bit circuit.

Two variants:

* ``variant="oblivious"`` (default) — one circuit per element computing
  ``max(0, y >> f) - z1`` (:func:`repro.gc.builder.relu_template`,
  ``(m - 1) + 2k - 1`` AND gates with ``k = m - f``; ``3l - 2`` at full
  width).  Leaks nothing.
* ``variant="optimized"`` — the paper's Section 4.2 two-stage protocol:
  stage 1 garbles only the comparison ``y0 > -y1`` (``m - 1`` ANDs) and
  *reveals the sign bits to both parties*; stage 2 runs the
  reconstruct-and-reshare circuit (``(m - 1) + k`` ANDs) only on
  positive neurons, while negative neurons cost nothing (``z0 = -z1``
  locally).  For mostly-negative layers this saves most of the GC work —
  the paper's claim — at the price of revealing the ReLU activation
  *pattern* (not the values).  The trade-off is noted in the paper's own
  description and flagged here because it is a real leakage difference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.gc.builder import (
    reconstruct_sub_template,
    relu_template,
    sign_template,
)
from repro.gc.protocol import GcSessions, run_evaluator, run_garbler
from repro.net.channel import Channel
from repro.net.frames import checked_bytes, checked_frame
from repro.perf.trace import annotate_span
from repro.utils.bits import (
    bits_to_int,
    int_to_bits,
    pack_bits,
    pack_ring_words,
    packed_word_count,
    unpack_bits,
    unpack_ring_words,
)
from repro.utils.ring import Ring

_TEMPLATE_CACHE: dict[tuple, object] = {}

VARIANTS = ("oblivious", "optimized")


def _template(kind: str, width: int, shift: int = 0, out_bits: int | None = None):
    key = (kind, width, shift, out_bits)
    if key not in _TEMPLATE_CACHE:
        if kind == "sign":
            _TEMPLATE_CACHE[key] = sign_template(width)
        else:
            builder = relu_template if kind == "relu" else reconstruct_sub_template
            _TEMPLATE_CACHE[key] = builder(width, shift, out_bits)
    return _TEMPLATE_CACHE[key]


def _check_layer(ring: Ring, variant: str, width: int | None, shift: int) -> tuple[int, int]:
    """``(m, k)`` of one ReLU layer: input width and output bits."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown ReLU variant {variant!r}")
    width = ring.bits if width is None else width
    if not 0 <= shift < width <= ring.bits:
        raise ConfigError(
            f"ReLU width {width} and shift {shift} need 0 <= shift < width <= {ring.bits}"
        )
    return width, width - shift


def _to_bit_rows(values: np.ndarray, width: int) -> np.ndarray:
    """(inst,) ring values -> (width, inst) bit matrix of their low bits."""
    return np.ascontiguousarray(int_to_bits(values, width).T)


def _z0(out_ring: Ring, result, k: int) -> np.ndarray:
    """The evaluator's share in the output ring from the circuit's low
    output bits and, when ``k`` is below the ring's width, the high word
    its row table delivered."""
    if k >= out_ring.bits:
        return out_ring.reduce(bits_to_int(np.ascontiguousarray(result.T)))
    bits, high = result
    low = bits_to_int(np.ascontiguousarray(bits.T))
    return out_ring.reduce(low | (np.asarray(high, dtype=np.uint64) << np.uint64(k)))


def _row_values(out_ring: Ring, z1: np.ndarray, k: int) -> np.ndarray | None:
    """The high output words ``-z1_high - borrow`` for borrow 0 and 1."""
    if k >= out_ring.bits:
        return None
    high_ring = Ring(out_ring.bits - k)
    neg_high = high_ring.neg(z1 >> np.uint64(k))
    return np.stack([neg_high, high_ring.sub(neg_high, np.uint64(1))], axis=1)


# --------------------------------------------------------------------- #
# server (evaluator): holds y0, learns z0
# --------------------------------------------------------------------- #
def relu_layer_server(
    chan: Channel,
    y0: np.ndarray,
    sessions: GcSessions,
    ring: Ring,
    variant: str = "oblivious",
    width: int | None = None,
    shift: int = 0,
    out_ring: Ring | None = None,
) -> np.ndarray:
    """Server side of the ReLU layer; returns ``z0`` with ``y0``'s shape.

    ``y0`` lives in ``ring``.  ``width`` is the public bound ``m``
    (``|y| < 2^(m-1)``, default the ring width), ``shift`` the exact
    right shift ``f`` applied before the ReLU and ``out_ring`` the ring
    of the output shares (default ``ring``).
    """
    width, k = _check_layer(ring, variant, width, shift)
    out_ring = ring if out_ring is None else out_ring
    shape = np.shape(y0)
    flat = ring.reduce(y0).reshape(-1)
    n_inst = flat.shape[0]
    y0_bits = _to_bit_rows(flat, width)

    if variant == "oblivious":
        result = run_evaluator(
            chan, _template("relu", width, shift, out_ring.bits), y0_bits, n_inst, sessions
        )
        return _z0(out_ring, result, k).reshape(shape)

    # Optimized: stage 1 comparison, sign revealed to both parties.
    sign_bits = run_evaluator(chan, _template("sign", width), y0_bits, n_inst, sessions)
    positive = sign_bits[0].astype(bool)
    chan.send(pack_bits(sign_bits[0]))
    n_pos = int(positive.sum())
    annotate_span(chan, n_positive=n_pos)

    z0 = out_ring.zeros(n_inst)
    if n_pos:
        pos_bits = np.ascontiguousarray(y0_bits[:, positive])
        result = run_evaluator(
            chan, _template("reconstruct", width, shift, out_ring.bits), pos_bits, n_pos,
            sessions,
        )
        z0[positive] = _z0(out_ring, result, k)
    n_neg = n_inst - n_pos
    neg_share = checked_frame(  # -z1 for the negative neurons, packed
        chan.recv(), (packed_word_count(n_neg, out_ring.bits),),
        f"negative-share frame ({n_neg} shares at {out_ring.bits} bits)",
    )
    z0[~positive] = unpack_ring_words(neg_share[None, :], out_ring.bits, n_neg)[0]
    return z0.reshape(shape)


# --------------------------------------------------------------------- #
# client (garbler): holds y1, picks/reuses z1
# --------------------------------------------------------------------- #
def relu_layer_client(
    chan: Channel,
    y1: np.ndarray,
    z1: np.ndarray,
    sessions: GcSessions,
    ring: Ring,
    rng: np.random.Generator,
    variant: str = "oblivious",
    width: int | None = None,
    shift: int = 0,
    out_ring: Ring | None = None,
) -> np.ndarray:
    """Client side of the ReLU layer; returns ``z1`` (the client's share).

    ``z1`` is passed in because ABNN2 fixes it during the *offline* phase
    (it doubles as the next linear layer's triplet operand R).
    ``width``/``shift``/``out_ring`` as in :func:`relu_layer_server`;
    ``z1`` lives in ``out_ring``.
    """
    width, k = _check_layer(ring, variant, width, shift)
    out_ring = ring if out_ring is None else out_ring
    shape = np.shape(y1)
    flat_y1 = ring.reduce(y1).reshape(-1)
    flat_z1 = out_ring.reduce(z1).reshape(-1)
    if flat_z1.shape != flat_y1.shape:
        raise ConfigError("z1 must match y1's shape")
    n_inst = flat_y1.shape[0]
    y1_bits = _to_bit_rows(flat_y1, width)

    z1_bits = min(k, out_ring.bits)
    if variant == "oblivious":
        garbler_bits = np.concatenate([y1_bits, _to_bit_rows(flat_z1, z1_bits)], axis=0)
        run_garbler(
            chan, _template("relu", width, shift, out_ring.bits), garbler_bits, n_inst,
            sessions, rng, _row_values(out_ring, flat_z1, k),
        )
        return flat_z1.reshape(shape)

    run_garbler(chan, _template("sign", width), y1_bits, n_inst, sessions, rng)
    frame = checked_bytes(chan.recv(), (n_inst + 7) // 8, "sign frame")
    positive = unpack_bits(frame, n_inst).astype(bool)
    n_pos = int(positive.sum())
    annotate_span(chan, n_positive=n_pos)

    if n_pos:
        pos_z1 = flat_z1[positive]
        garbler_bits = np.concatenate(
            [y1_bits[:, positive], _to_bit_rows(pos_z1, z1_bits)], axis=0
        )
        run_garbler(
            chan, _template("reconstruct", width, shift, out_ring.bits), garbler_bits, n_pos,
            sessions, rng, _row_values(out_ring, pos_z1, k),
        )
    # Negative neurons: ReLU(y) = 0, so z0 must equal -z1.
    chan.send(pack_ring_words(out_ring.neg(flat_z1[~positive])[None, :], out_ring.bits)[0])
    return flat_z1.reshape(shape)
