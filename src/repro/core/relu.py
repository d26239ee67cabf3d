"""Secure non-linear layer: Algorithm 2 ReLU and the optimized variant.

Shares enter as ``(y0, y1)`` with ``y0 + y1 = y (mod 2^l)`` and leave as
``(z0, z1)`` with ``z0 + z1 = ReLU(y)``.  Roles: the **client garbles**
(it also picks the fresh output share ``z1``), the **server evaluates**
and obtains ``z0`` from the circuit's decoded output — exactly
Algorithm 2's interface.

Two variants:

* ``variant="oblivious"`` (default) — one circuit per element computing
  ``max(0, y0 + y1) - z1`` (:func:`repro.gc.builder.relu_template`,
  ``3l - 2`` AND gates).  Leaks nothing.
* ``variant="optimized"`` — the paper's Section 4.2 two-stage protocol:
  stage 1 garbles only the comparison ``y0 > -y1`` (``l - 1`` ANDs) and
  *reveals the sign bits to both parties*; stage 2 runs the
  reconstruct-and-reshare circuit (``2l - 2`` ANDs) only on positive
  neurons, while negative neurons cost nothing (``z0 = -z1`` locally).
  For mostly-negative layers this saves most of the GC work — the paper's
  claim — at the price of revealing the ReLU activation *pattern* (not
  the values).  The trade-off is noted in the paper's own description and
  flagged here because it is a real leakage difference.

:func:`truncate_share` is the SecureML-style local rescaling used between
a linear layer and its activation (see :mod:`repro.nn.quantize`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ProtocolError
from repro.gc.builder import (
    reconstruct_sub_template,
    relu_template,
    sign_template,
)
from repro.gc.protocol import GcSessions, run_evaluator, run_garbler
from repro.net.channel import Channel
from repro.utils.bits import bits_to_int, int_to_bits, pack_bits, unpack_bits
from repro.utils.ring import Ring

_TEMPLATE_CACHE: dict[tuple[str, int], object] = {}

VARIANTS = ("oblivious", "optimized")


def _template(kind: str, bits: int):
    key = (kind, bits)
    if key not in _TEMPLATE_CACHE:
        builders = {
            "relu": relu_template,
            "sign": sign_template,
            "reconstruct_sub": reconstruct_sub_template,
        }
        _TEMPLATE_CACHE[key] = builders[kind](bits)
    return _TEMPLATE_CACHE[key]


def truncate_share(ring: Ring, share: np.ndarray, bits: int, party: int) -> np.ndarray:
    """SecureML local truncation: divide a shared value by 2^bits.

    Party 0 shifts its share down; party 1 negates, shifts, negates.  The
    reconstructed result equals the arithmetic shift of the true value up
    to one unit in the last place, with failure probability ~|y| / 2^(l-1)
    (negligible for the activation magnitudes the pipeline maintains).
    """
    if bits == 0:
        return ring.reduce(share)
    if party == 0:
        return ring.reduce(np.asarray(share, dtype=np.uint64) >> np.uint64(bits))
    flipped = ring.neg(share)
    return ring.neg(np.asarray(flipped, dtype=np.uint64) >> np.uint64(bits))


def _to_bit_rows(ring: Ring, values: np.ndarray) -> np.ndarray:
    """(inst,) ring values -> (l, inst) bit matrix (wire-major layout)."""
    return np.ascontiguousarray(int_to_bits(values, ring.bits).T)


def _from_bit_rows(ring: Ring, bit_rows: np.ndarray) -> np.ndarray:
    return ring.reduce(bits_to_int(np.ascontiguousarray(bit_rows.T)))


# --------------------------------------------------------------------- #
# server (evaluator): holds y0, learns z0
# --------------------------------------------------------------------- #
def relu_layer_server(
    chan: Channel,
    y0: np.ndarray,
    sessions: GcSessions,
    ring: Ring,
    variant: str = "oblivious",
) -> np.ndarray:
    """Server side of the ReLU layer; returns ``z0`` with ``y0``'s shape."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown ReLU variant {variant!r}")
    shape = np.shape(y0)
    flat = ring.reduce(y0).reshape(-1)
    n_inst = flat.shape[0]
    y0_bits = _to_bit_rows(ring, flat)

    if variant == "oblivious":
        out_bits = run_evaluator(chan, _template("relu", ring.bits), y0_bits, n_inst, sessions)
        return _from_bit_rows(ring, out_bits).reshape(shape)

    # Optimized: stage 1 comparison, sign revealed to both parties.
    sign_bits = run_evaluator(chan, _template("sign", ring.bits), y0_bits, n_inst, sessions)
    positive = sign_bits[0].astype(bool)
    chan.send(pack_bits(sign_bits[0]))

    z0 = ring.zeros(n_inst)
    n_pos = int(positive.sum())
    if n_pos:
        pos_bits = np.ascontiguousarray(y0_bits[:, positive])
        out_bits = run_evaluator(
            chan, _template("reconstruct_sub", ring.bits), pos_bits, n_pos, sessions
        )
        z0[positive] = _from_bit_rows(ring, out_bits)
    neg_share = chan.recv()  # -z1 for the negative neurons
    if neg_share.shape != (n_inst - n_pos,):
        raise ProtocolError("unexpected negative-share payload")
    z0[~positive] = ring.reduce(neg_share)
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
) -> np.ndarray:
    """Client side of the ReLU layer; returns ``z1`` (the client's share).

    ``z1`` is passed in because ABNN2 fixes it during the *offline* phase
    (it doubles as the next linear layer's triplet operand R).
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown ReLU variant {variant!r}")
    shape = np.shape(y1)
    flat_y1 = ring.reduce(y1).reshape(-1)
    flat_z1 = ring.reduce(z1).reshape(-1)
    if flat_z1.shape != flat_y1.shape:
        raise ConfigError("z1 must match y1's shape")
    n_inst = flat_y1.shape[0]
    y1_bits = _to_bit_rows(ring, flat_y1)

    if variant == "oblivious":
        garbler_bits = np.concatenate([y1_bits, _to_bit_rows(ring, flat_z1)], axis=0)
        run_garbler(chan, _template("relu", ring.bits), garbler_bits, n_inst, sessions, rng)
        return flat_z1.reshape(shape)

    run_garbler(chan, _template("sign", ring.bits), y1_bits, n_inst, sessions, rng)
    positive = unpack_bits(chan.recv(), n_inst).astype(bool)

    n_pos = int(positive.sum())
    if n_pos:
        pos_y1 = np.ascontiguousarray(y1_bits[:, positive])
        pos_z1 = _to_bit_rows(ring, flat_z1[positive])
        garbler_bits = np.concatenate([pos_y1, pos_z1], axis=0)
        run_garbler(
            chan,
            _template("reconstruct_sub", ring.bits),
            garbler_bits,
            n_pos,
            sessions,
            rng,
        )
    # Negative neurons: ReLU(y) = 0, so z0 must equal -z1.
    chan.send(ring.neg(flat_z1[~positive]))
    return flat_z1.reshape(shape)
