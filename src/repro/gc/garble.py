"""Half-gates garbling (Zahur–Rosulek–Evans), batched over instances.

Free-XOR fixes a global offset ``R`` (with ``lsb(R) = 1`` for
point-and-permute); each wire ``w`` carries labels ``(W^0, W^1 = W^0 ^ R)``
whose least-significant bit is the select bit.  XOR and INV gates are
label arithmetic; each AND gate emits two 128-bit ciphertexts
(``T_G``, ``T_E``).

All label tensors have shape ``(n_wires, n_inst, 2)`` uint64 — the same
template circuit garbled for ``n_inst`` independent instances in one
vectorized pass, which is how ABNN2 garbles a whole ReLU layer.

A circuit with a :attr:`~repro.gc.circuit.Circuit.row_wire` also gets a
2-row output table (:func:`row_table`): per instance, two words the
evaluator can open only with the label it holds for that wire.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import CryptoError
from repro.gc.circuit import Circuit, GateOp

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

    ``_hash_labels`` is called four times per AND gate while garbling
    and twice while evaluating; reallocating the ``(n_inst, 4)`` hash
    input block and re-materializing the ``arange`` tweak column each
    call dominated small-circuit garbling.  One instance owns both for a
    whole execution (``ro.mask`` never retains or mutates its input).
    """

    __slots__ = ("ro", "_rows")

    def __init__(self, n_inst: int, ro: RandomOracle) -> None:
        self.ro = ro
        self._rows = np.empty((n_inst, LABEL_WORDS + 2), dtype=_U64)
        self._rows[:, LABEL_WORDS + 1] = np.arange(n_inst, dtype=_U64)

    def __call__(self, labels: np.ndarray, gate_half: int) -> np.ndarray:
        rows = self._rows
        rows[:, :LABEL_WORDS] = labels
        rows[:, LABEL_WORDS] = _U64(gate_half)
        return self.ro.mask(rows, LABEL_WORDS, domain=_DOMAIN_GC)


def _hash_labels(
    labels: np.ndarray, gate_half: int, ro: RandomOracle
) -> np.ndarray:
    """H(label, tweak) for a (n_inst, 2) label block -> (n_inst, 2).

    One-shot form of :class:`_LabelHasher`, kept for callers that hash a
    single block (tests, exploratory code); the gate loops below use the
    hoisted hasher.
    """
    return _LabelHasher(labels.shape[0], ro)(labels, gate_half)


@dataclass
class GarbledCircuit:
    """Garbler-side material for one batched garbling."""

    circuit: Circuit
    n_inst: int
    tables: np.ndarray  # (n_and, n_inst, 2, 2) u64: [gate, inst, {T_G,T_E}, word]
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


def _sample_input_labels(
    circuit: Circuit, n_inst: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh ``(label0, offset)`` with every input wire's label sampled.

    The RNG call sequence is part of the transcript-determinism contract:
    a fixed seed yields the same labels, hence the same tables.
    """
    if n_inst < 1:
        raise CryptoError("need at least one instance")
    label0 = _label_buffer((circuit.n_wires, n_inst, LABEL_WORDS))
    offset = rng.integers(0, 1 << 63, size=LABEL_WORDS, dtype=_U64)
    offset = (offset << _U64(1)) | rng.integers(0, 2, size=LABEL_WORDS, dtype=_U64)
    offset[0] |= _U64(1)  # lsb(R) = 1: point-and-permute select bits work

    input_wires = circuit.garbler_inputs + circuit.evaluator_inputs
    raw = rng.integers(0, 1 << 63, size=(len(input_wires), n_inst, LABEL_WORDS), dtype=_U64)
    raw = (raw << _U64(1)) | rng.integers(
        0, 2, size=(len(input_wires), n_inst, LABEL_WORDS), dtype=_U64
    )
    label0[input_wires] = raw
    return label0, offset


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
    a1 = a0 ^ offset
    b1 = b0 ^ offset
    p_a = (a0[:, 0] & _U64(1)).astype(bool)
    p_b = (b0[:, 0] & _U64(1)).astype(bool)

    h_a0 = hasher(a0, 2 * g_idx)
    h_a1 = hasher(a1, 2 * g_idx)
    h_b0 = hasher(b0, 2 * g_idx + 1)
    h_b1 = hasher(b1, 2 * g_idx + 1)

    # Garbler half gate.
    t_g = h_a0 ^ h_a1 ^ np.where(p_b[:, None], offset[None, :], _U64(0))
    w_g0 = h_a0 ^ np.where(p_a[:, None], t_g, _U64(0))
    # Evaluator half gate.
    t_e = h_b0 ^ h_b1 ^ a0
    w_e0 = h_b0 ^ np.where(p_b[:, None], t_e ^ a0, _U64(0))

    label0[gate.out] = w_g0 ^ w_e0
    return t_g, t_e


def garble(
    circuit: Circuit,
    n_inst: int,
    rng: np.random.Generator,
    ro: RandomOracle = default_ro,
) -> GarbledCircuit:
    """Garble ``circuit`` for ``n_inst`` parallel instances."""
    label0, offset = _sample_input_labels(circuit, n_inst, rng)

    n_and = circuit.and_count
    tables = _label_buffer((n_and, n_inst, 2, LABEL_WORDS))
    hasher = _LabelHasher(n_inst, ro)
    and_idx = 0
    for g_idx, gate in enumerate(circuit.gates):
        if gate.op == GateOp.XOR:
            label0[gate.out] = label0[gate.a] ^ label0[gate.b]
        elif gate.op == GateOp.INV:
            label0[gate.out] = label0[gate.a] ^ offset
        else:
            t_g, t_e = _garble_and(label0, offset, gate, g_idx, hasher)
            tables[and_idx, :, 0] = t_g
            tables[and_idx, :, 1] = t_e
            and_idx += 1

    _check_poison(label0[circuit.outputs], "output")
    return GarbledCircuit(circuit=circuit, n_inst=n_inst, tables=tables, label0=label0, offset=offset)


def row_tweak(circuit: Circuit) -> int:
    """The hash tweak of the row table: one no AND gate uses (gate ``g``
    hashes with ``2g`` and ``2g + 1``)."""
    return 2 * len(circuit.gates)


def row_table(gc: GarbledCircuit, values: np.ndarray, ro: RandomOracle) -> np.ndarray:
    """The 2-row output table on ``gc.circuit.row_wire``: ``(n_inst, 2)`` u64.

    ``values[:, b]`` is the word the evaluator opens when the wire
    carries ``b``.  Point-and-permute: the row at the label's permute bit
    holds ``H(W^b) ^ values[:, b]``, so the evaluator, holding one label,
    opens exactly one row and cannot tell which value it got.
    """
    circuit = gc.circuit
    if circuit.row_wire is None:
        raise CryptoError("circuit has no row wire")
    values = np.asarray(values, dtype=_U64)
    if values.shape != (gc.n_inst, 2):
        raise CryptoError(f"expected row values of shape {(gc.n_inst, 2)}, got {values.shape}")
    hasher = _LabelHasher(gc.n_inst, ro)
    tweak = row_tweak(circuit)
    w0 = gc.label0[circuit.row_wire]
    sealed0 = hasher(w0, tweak)[:, 0] ^ values[:, 0]
    sealed1 = hasher(w0 ^ gc.offset, tweak)[:, 0] ^ values[:, 1]
    flip = (w0[:, 0] & _U64(1)).astype(bool)
    rows = np.empty((gc.n_inst, 2), dtype=_U64)
    rows[:, 0] = np.where(flip, sealed1, sealed0)
    rows[:, 1] = np.where(flip, sealed0, sealed1)
    return rows
