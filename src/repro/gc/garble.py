"""Half-gates garbling (Zahur–Rosulek–Evans), batched over instances.

Free-XOR fixes a global offset ``R`` (with ``lsb(R) = 1`` for
point-and-permute); each wire ``w`` carries labels ``(W^0, W^1 = W^0 ^ R)``
whose least-significant bit is the select bit.  XOR and INV gates are
label arithmetic; each AND gate emits two 128-bit ciphertexts
(``T_G``, ``T_E``).

The garbler's own bits are folded into the garbling instead of being
sent as labels.  A garbler-known wire
(:meth:`~repro.gc.circuit.Circuit.garbler_known`) has no label, only
its per-instance value ``g``:

* XOR of a labelled wire with ``g`` is a hidden negation,
  ``W^0_out = W^0_a ^ g·R`` (the evaluator copies its label);
* AND of a labelled wire with ``g`` is ZRE15's *garbler half gate*, one
  ciphertext ``T_G = H(A^0) ^ H(A^1) ^ g·R``;
* a gate over garbler-known wires only is computed in the clear.

All label tensors have shape ``(n_wires, n_inst, 2)`` uint64 — the same
template circuit garbled for ``n_inst`` independent instances in one
vectorized pass, which is how ABNN2 garbles a whole ReLU layer.  The
ciphertexts are ``(table_rows, n_inst, 2)``, in gate order: two rows
per AND of two labelled wires, one per half gate.

A circuit with a :attr:`~repro.gc.circuit.Circuit.row_wire` also gets a
2-row output table (:func:`row_table`): per instance, two words the
evaluator can open only with the label it holds for that wire.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.crypto.hash_ro import default_ro
from repro.errors import CryptoError
from repro.gc.circuit import Circuit, GateOp
from repro.utils.bits import pack_ring_words
from repro.utils.ring import Ring

_U64 = np.uint64
LABEL_WORDS = 2
_DOMAIN_GC = 7

#: Debug poison for the np.empty label buffers below: with
#: ``ABNN2_GC_DEBUG=1`` buffers are pre-filled with this word and the
#: output wires are checked against it after garbling/evaluation, so a
#: wire the gate loop failed to write is caught instead of silently
#: garbling garbage.  (A genuine label colliding with the poison on both
#: words has probability 2^-128 per wire.)
_POISON_WORD = _U64(0xDEAD_BEEF_DEAD_BEEF)


def _debug_poison_enabled() -> bool:
    return os.environ.get("ABNN2_GC_DEBUG", "") == "1"


def _label_buffer(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized label tensor; poisoned when GC debug mode is on.

    Every slot is written before it is read (inputs by the rng block,
    everything else by its gate), so zeroing megabytes per layer was
    pure overhead.
    """
    buf = np.empty(shape, dtype=_U64)
    if _debug_poison_enabled():
        buf[...] = _POISON_WORD
    return buf


def _check_poison(labels: np.ndarray, what: str) -> None:
    """Raise if any label row is still the debug poison pattern."""
    if not _debug_poison_enabled():
        return
    if bool((labels == _POISON_WORD).all(axis=-1).any()):
        raise CryptoError(f"unwritten {what} label: wire never assigned by a gate")


class _LabelHasher:
    """H(label, tweak) with the per-call scratch hoisted out of the loop.

    The label hash runs four times per AND gate while garbling and twice
    while evaluating; reallocating the ``(n_inst, 4)`` hash input block
    and re-materializing the ``arange`` tweak column each call dominated
    small-circuit garbling.  One instance owns both for a whole execution
    (``default_ro.mask`` never retains or mutates its input).
    """

    __slots__ = ("_rows",)

    def __init__(self, n_inst: int) -> None:
        self._rows = np.empty((n_inst, LABEL_WORDS + 2), dtype=_U64)
        self._rows[:, LABEL_WORDS + 1] = np.arange(n_inst, dtype=_U64)

    def __call__(self, labels: np.ndarray, gate_half: int) -> np.ndarray:
        rows = self._rows
        rows[:, :LABEL_WORDS] = labels
        rows[:, LABEL_WORDS] = _U64(gate_half)
        return default_ro.mask(rows, LABEL_WORDS, domain=_DOMAIN_GC)


@dataclass
class GarbledCircuit:
    """Garbler-side material for one batched garbling."""

    circuit: Circuit
    n_inst: int
    tables: np.ndarray  # (table_rows, n_inst, 2) u64, in gate order
    label0: np.ndarray  # (n_wires, n_inst, 2) u64: labels encoding FALSE
    offset: np.ndarray  # (2,) u64: the free-XOR offset R

    def encode(self, wires: list[int], bits: np.ndarray) -> np.ndarray:
        """Active labels for given input wires/values: (n_wires_sel, n_inst, 2)."""
        values = np.asarray(bits, dtype=np.uint8)
        if values.shape != (len(wires), self.n_inst):
            raise CryptoError(
                f"expected bits of shape {(len(wires), self.n_inst)}, got {values.shape}"
            )
        base = self.label0[wires]
        return base ^ (values[..., None].astype(_U64) * self.offset)

    def output_decode_bits(self) -> np.ndarray:
        """Permute bits of the output wires: (n_outputs, n_inst) uint8."""
        outs = self.label0[self.circuit.outputs]
        return (outs[..., 0] & _U64(1)).astype(np.uint8)


def _random_labels(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    raw = rng.integers(0, 1 << 63, size=shape, dtype=_U64)
    return (raw << _U64(1)) | rng.integers(0, 2, size=shape, dtype=_U64)


def _sample_offset(rng: np.random.Generator) -> np.ndarray:
    """A fresh free-XOR offset ``R`` with ``lsb(R) = 1``.

    The RNG call sequence is part of the transcript-determinism contract:
    a fixed seed yields the same offset, hence the same tables.
    """
    offset = _random_labels(rng, (LABEL_WORDS,))
    offset[0] |= _U64(1)  # lsb(R) = 1: point-and-permute select bits work
    return offset


def _times(bits: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """``bits · R`` per instance: ``(n_inst,)`` bits -> ``(n_inst, 2)``."""
    return bits[:, None].astype(_U64) * offset[None, :]


def _garble_half(
    a0: np.ndarray, g: np.ndarray, offset: np.ndarray, g_idx: int, hasher: _LabelHasher
) -> tuple[np.ndarray, np.ndarray]:
    """Garbler half gate ``a AND g`` for a bit ``g`` the garbler knows:
    returns ``(W^0_out, T_G)``, one ciphertext."""
    h_a0 = hasher(a0, 2 * g_idx)
    t_g = h_a0 ^ hasher(a0 ^ offset, 2 * g_idx) ^ _times(g, offset)
    return h_a0 ^ np.where((a0[:, :1] & _U64(1)).astype(bool), t_g, _U64(0)), t_g


def _garble_and(
    label0: np.ndarray,
    offset: np.ndarray,
    gate,
    g_idx: int,
    hasher: _LabelHasher,
) -> tuple[np.ndarray, np.ndarray]:
    """Garble one AND gate: writes ``label0[gate.out]``, returns (T_G, T_E)."""
    a0 = label0[gate.a]
    b0 = label0[gate.b]
    p_b = b0[:, 0] & _U64(1)
    # Garbler half gate, on the permute bit of b.
    w_g0, t_g = _garble_half(a0, p_b, offset, g_idx, hasher)
    # Evaluator half gate.
    h_b0 = hasher(b0, 2 * g_idx + 1)
    t_e = h_b0 ^ hasher(b0 ^ offset, 2 * g_idx + 1) ^ a0
    w_e0 = h_b0 ^ np.where(p_b.astype(bool)[:, None], t_e ^ a0, _U64(0))

    label0[gate.out] = w_g0 ^ w_e0
    return t_g, t_e


def garble(
    circuit: Circuit,
    n_inst: int,
    rng: np.random.Generator,
    garbler_bits: np.ndarray | None = None,
    input_label0: np.ndarray | None = None,
) -> GarbledCircuit:
    """Garble ``circuit`` for ``n_inst`` parallel instances.

    ``garbler_bits`` (``(n_garbler_inputs, n_inst)``, default all zero)
    are folded into the garbling.  ``input_label0`` are the FALSE labels
    of the evaluator's inputs, ``(n_evaluator_inputs, n_inst, 2)``: in a
    two-party run they come out of the label OT; by default they are
    drawn from ``rng``.
    """
    if n_inst < 1:
        raise CryptoError("need at least one instance")
    known = circuit.garbler_known()
    offset = _sample_offset(rng)
    shape = (len(circuit.evaluator_inputs), n_inst, LABEL_WORDS)
    if input_label0 is None:
        input_label0 = _random_labels(rng, shape)
    elif input_label0.shape != shape:
        raise CryptoError(f"expected input labels of shape {shape}, got {input_label0.shape}")
    values = np.zeros((circuit.n_wires, n_inst), dtype=np.uint8)
    if garbler_bits is not None:
        bits = np.asarray(garbler_bits, dtype=np.uint8)
        if bits.shape != (len(circuit.garbler_inputs), n_inst):
            raise CryptoError(
                f"expected garbler bits of shape {(len(circuit.garbler_inputs), n_inst)}, "
                f"got {bits.shape}"
            )
        values[circuit.garbler_inputs] = bits

    label0 = _label_buffer((circuit.n_wires, n_inst, LABEL_WORDS))
    label0[circuit.evaluator_inputs] = input_label0
    tables = _label_buffer((circuit.table_rows, n_inst, LABEL_WORDS))
    hasher = _LabelHasher(n_inst)
    row = 0
    for g_idx, gate in enumerate(circuit.gates):
        a, b, out = gate.a, gate.b, gate.out
        if known[out]:
            if gate.op == GateOp.XOR:
                values[out] = values[a] ^ values[b]
            elif gate.op == GateOp.AND:
                values[out] = values[a] & values[b]
            else:
                values[out] = values[a] ^ 1
        elif gate.op == GateOp.INV:
            label0[out] = label0[a] ^ offset
        elif known[a] or known[b]:
            real, g = (b, a) if known[a] else (a, b)
            if gate.op == GateOp.XOR:
                label0[out] = label0[real] ^ _times(values[g], offset)
            else:
                label0[out], tables[row] = _garble_half(
                    label0[real], values[g], offset, g_idx, hasher
                )
                row += 1
        elif gate.op == GateOp.XOR:
            label0[out] = label0[a] ^ label0[b]
        else:
            tables[row], tables[row + 1] = _garble_and(label0, offset, gate, g_idx, hasher)
            row += 2

    _check_poison(label0[circuit.outputs], "output")
    return GarbledCircuit(circuit=circuit, n_inst=n_inst, tables=tables, label0=label0, offset=offset)


def row_tweak(circuit: Circuit) -> int:
    """The hash tweak of the row table: one no AND gate uses (gate ``g``
    hashes with ``2g`` and ``2g + 1``)."""
    return 2 * len(circuit.gates)


def row_table(gc: GarbledCircuit, values: np.ndarray) -> np.ndarray:
    """The packed 2-row output table on ``gc.circuit.row_wire``.

    ``values[:, b]`` (``(n_inst, 2)``) is the word the evaluator opens
    when the wire carries ``b``.  Point-and-permute: the row at the
    label's permute bit holds ``H(W^b) ^ values[:, b]``, so the
    evaluator, holding one label, opens exactly one row and cannot tell
    which value it got.  Each row is cut to the circuit's ``row_bits``
    and the ``2 n_inst`` rows are packed back to back
    (:func:`~repro.utils.bits.pack_ring_words`).
    """
    circuit = gc.circuit
    if circuit.row_wire is None:
        raise CryptoError("circuit has no row wire")
    values = np.asarray(values, dtype=_U64)
    if values.shape != (gc.n_inst, 2):
        raise CryptoError(f"expected row values of shape {(gc.n_inst, 2)}, got {values.shape}")
    hasher = _LabelHasher(gc.n_inst)
    tweak = row_tweak(circuit)
    w0 = gc.label0[circuit.row_wire]
    sealed0 = hasher(w0, tweak)[:, 0] ^ values[:, 0]
    sealed1 = hasher(w0 ^ gc.offset, tweak)[:, 0] ^ values[:, 1]
    flip = (w0[:, 0] & _U64(1)).astype(bool)
    rows = np.empty((gc.n_inst, 2), dtype=_U64)
    rows[:, 0] = np.where(flip, sealed1, sealed0)
    rows[:, 1] = np.where(flip, sealed0, sealed1)
    bits = circuit.row_bits
    return pack_ring_words(Ring(bits).reduce(rows).reshape(1, -1), bits)[0]
