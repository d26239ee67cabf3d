"""Half-gates evaluation, batched over instances.

The evaluator holds exactly one active label per labelled wire per
instance and never learns truth values except for wires whose decode
bits the garbler disclosed.  Garbler-known wires carry no label at all:
the evaluator copies the label through a hidden negation, opens a
garbler half gate with its one ciphertext and skips a gate the garbler
computed in the clear.  Mirrors :mod:`repro.gc.garble` gate for gate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CryptoError, ProtocolError
from repro.gc.circuit import Circuit, GateOp
from repro.gc.garble import (
    LABEL_WORDS,
    _label_buffer,
    _LabelHasher,
    row_tweak,
)
from repro.utils.bits import unpack_ring_words
from repro.utils.ring import Ring

_U64 = np.uint64


def _open_half(w: np.ndarray, table: np.ndarray, tweak: int, hasher: _LabelHasher) -> np.ndarray:
    """``H(W, tweak) ^ s·table``, ``s`` the label's select bit: the
    evaluator's side of a half gate."""
    return hasher(w, tweak) ^ np.where((w[:, :1] & _U64(1)).astype(bool), table, _U64(0))


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
    w_g = _open_half(w_a, t_g, 2 * g_idx, hasher)
    w_e = _open_half(active[gate.b], t_e ^ w_a, 2 * g_idx + 1, hasher)
    active[gate.out] = w_g ^ w_e


def evaluate(
    circuit: Circuit,
    tables: np.ndarray,
    evaluator_labels: np.ndarray,
    wires: list[int] | None = None,
) -> np.ndarray:
    """Evaluate the garbled circuit; returns active labels of ``wires``.

    ``evaluator_labels`` are the active labels of the evaluator's input
    wires, shaped ``(n_inputs, n_inst, 2)``; ``tables`` the
    ``(table_rows, n_inst, 2)`` ciphertexts.  ``wires`` defaults to the
    circuit's outputs; the result is ``(len(wires), n_inst, 2)``.
    """
    known = circuit.garbler_known()
    if evaluator_labels.ndim != 3 or evaluator_labels.shape[0] != len(circuit.evaluator_inputs):
        raise CryptoError("wrong number of evaluator input labels")
    n_inst = evaluator_labels.shape[1]
    n_rows = circuit.table_rows
    if tables.shape[:1] != (n_rows,):
        raise ProtocolError(f"expected {n_rows} garbled-table rows, got {tables.shape[0]}")

    active = _label_buffer((circuit.n_wires, n_inst, LABEL_WORDS))
    active[circuit.evaluator_inputs] = evaluator_labels

    hasher = _LabelHasher(n_inst)
    row = 0
    for g_idx, gate in enumerate(circuit.gates):
        a, b, out = gate.a, gate.b, gate.out
        if known[out]:
            continue  # the garbler computed it in the clear
        if gate.op == GateOp.INV:
            active[out] = active[a]  # garbler flipped the decode side
        elif known[a] or known[b]:
            real = b if known[a] else a
            if gate.op == GateOp.XOR:
                active[out] = active[real]  # hidden negation
            else:
                active[out] = _open_half(active[real], tables[row], 2 * g_idx, hasher)
                row += 1
        elif gate.op == GateOp.XOR:
            active[out] = active[a] ^ active[b]
        else:
            _evaluate_and(active, gate, g_idx, hasher, tables[row], tables[row + 1])
            row += 2

    return active[circuit.outputs if wires is None else wires].copy()


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


def read_row_table(circuit: Circuit, label: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Open the row of :func:`repro.gc.garble.row_table` that the active
    ``(n_inst, 2)`` label of ``circuit.row_wire`` selects: ``(n_inst,)``.
    ``rows`` is the packed table."""
    n_inst, bits = label.shape[0], circuit.row_bits
    table = unpack_ring_words(rows[None, :], bits, 2 * n_inst).reshape(n_inst, 2)
    select = (label[:, 0] & _U64(1)).astype(np.intp)
    mask = _LabelHasher(n_inst)(label, row_tweak(circuit))[:, 0]
    return Ring(bits).reduce(table[np.arange(n_inst), select] ^ mask)
