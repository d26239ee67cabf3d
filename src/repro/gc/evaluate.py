"""Half-gates evaluation, batched over instances.

The evaluator holds exactly one active label per wire per instance and
never learns truth values except for wires whose decode bits the garbler
disclosed.  Mirrors :mod:`repro.gc.garble` gate for gate.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import CryptoError, ProtocolError
from repro.gc.circuit import Circuit, GateOp
from repro.gc.garble import (
    LABEL_WORDS,
    _check_poison,
    _label_buffer,
    _LabelHasher,
    row_tweak,
)

_U64 = np.uint64


def _evaluate_and(
    active: np.ndarray,
    gate,
    g_idx: int,
    hasher: _LabelHasher,
    t_g: np.ndarray,
    t_e: np.ndarray,
) -> None:
    """Evaluate one AND gate in place (mirror of ``garble._garble_and``)."""
    w_a = active[gate.a]
    w_b = active[gate.b]
    s_a = (w_a[:, 0] & _U64(1)).astype(bool)
    s_b = (w_b[:, 0] & _U64(1)).astype(bool)
    w_g = hasher(w_a, 2 * g_idx) ^ np.where(s_a[:, None], t_g, _U64(0))
    w_e = hasher(w_b, 2 * g_idx + 1) ^ np.where(s_b[:, None], t_e ^ w_a, _U64(0))
    active[gate.out] = w_g ^ w_e


def evaluate(
    circuit: Circuit,
    tables: np.ndarray,
    garbler_labels: np.ndarray,
    evaluator_labels: np.ndarray,
    ro: RandomOracle = default_ro,
    wires: list[int] | None = None,
) -> np.ndarray:
    """Evaluate the garbled circuit; returns active labels of ``wires``.

    ``garbler_labels`` / ``evaluator_labels`` are the active labels for the
    respective input wire lists, shaped ``(n_inputs, n_inst, 2)``.
    ``wires`` defaults to the circuit's outputs; the result is
    ``(len(wires), n_inst, 2)``.
    """
    n_inst = garbler_labels.shape[1] if garbler_labels.size else evaluator_labels.shape[1]
    if garbler_labels.shape[0] != len(circuit.garbler_inputs):
        raise CryptoError("wrong number of garbler input labels")
    if evaluator_labels.shape[0] != len(circuit.evaluator_inputs):
        raise CryptoError("wrong number of evaluator input labels")
    if tables.shape[:1] != (circuit.and_count,):
        raise ProtocolError(
            f"expected {circuit.and_count} garbled tables, got {tables.shape[0]}"
        )

    active = _label_buffer((circuit.n_wires, n_inst, LABEL_WORDS))
    active[circuit.garbler_inputs] = garbler_labels
    active[circuit.evaluator_inputs] = evaluator_labels

    hasher = _LabelHasher(n_inst, ro)
    and_idx = 0
    for g_idx, gate in enumerate(circuit.gates):
        if gate.op == GateOp.XOR:
            active[gate.out] = active[gate.a] ^ active[gate.b]
        elif gate.op == GateOp.INV:
            active[gate.out] = active[gate.a]  # garbler flipped the decode side
        else:
            _evaluate_and(
                active, gate, g_idx, hasher, tables[and_idx, :, 0], tables[and_idx, :, 1]
            )
            and_idx += 1

    out = active[circuit.outputs if wires is None else wires].copy()
    _check_poison(out, "output")
    return out


def decode_outputs(output_labels: np.ndarray, decode_bits: np.ndarray) -> np.ndarray:
    """Turn active output labels into cleartext bits.

    ``decode_bits`` are the garbler's permute bits for the output wires
    (:meth:`repro.gc.garble.GarbledCircuit.output_decode_bits`).  Returns
    an ``(n_outputs, n_inst)`` uint8 array.
    """
    select = (output_labels[..., 0] & _U64(1)).astype(np.uint8)
    if select.shape != decode_bits.shape:
        raise ProtocolError(
            f"decode shape mismatch: {select.shape} vs {decode_bits.shape}"
        )
    return select ^ decode_bits


def read_row_table(
    circuit: Circuit, label: np.ndarray, rows: np.ndarray, ro: RandomOracle
) -> np.ndarray:
    """Open the row of :func:`repro.gc.garble.row_table` that the active
    ``(n_inst, 2)`` label of ``circuit.row_wire`` selects: ``(n_inst,)``."""
    select = (label[:, 0] & _U64(1)).astype(np.intp)
    mask = _LabelHasher(label.shape[0], ro)(label, row_tweak(circuit))[:, 0]
    return rows[np.arange(label.shape[0]), select] ^ mask
