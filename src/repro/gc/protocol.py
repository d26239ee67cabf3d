"""Two-party garbled-circuit execution over a channel.

Roles follow ABNN2's non-linear layer: the **client garbles** and the
**server evaluates** (the server's share ``z0`` is the circuit's output,
so the evaluator is the output party).

Message flow per execution, two messages:

1. evaluator -> garbler: the ``U`` matrix for its input bits, one
   XOR-correlated OT per bit on the OT engine at ``N = 2``
   (:meth:`~repro.crypto.iknp.OtExtReceiver.recv_xor_correlated`);
2. garbler -> evaluator: one frame ``(tables, decode_bits, rows,
   corrections)``.  The garbler takes ``label0 = H(i, q_i)`` as the
   FALSE label of evaluator input ``i``, garbles with its own bits
   folded in (a garbler-known wire has no label, see
   :mod:`repro.gc.garble`), and sends the garbled tables, the output
   decode bits packed one bit each, the packed 2-row table of the
   circuit's row wire (empty when it has none) and one 128-bit
   correction ``H(i, q_i) ^ H(i, q_i ^ s) ^ R`` (pad 0 ^ pad 1 ^ R) per
   evaluator bit.

The evaluator then opens its labels ``H(i, t_i) ^ c_i * correction_i``,
evaluates locally and decodes its outputs.  No garbler label and no
second label-OT ciphertext is ever sent.

:class:`GcSessions` holds that OT session.  It runs no base OTs of its
own: its seeds derive from the channel's
:class:`~repro.crypto.otsetup.OtSetup`, so after a KK13 offline phase on
the same channel the label OT costs no public-key work at all.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.errors import ConfigError, ProtocolError
from repro.gc.circuit import Circuit
from repro.gc.evaluate import decode_outputs, evaluate, read_row_table
from repro.gc.garble import LABEL_WORDS, garble, row_table
from repro.net.channel import Channel
from repro.net.frames import checked_bytes, checked_frame
from repro.perf.trace import channel_span
from repro.utils.bits import pack_bits, packed_word_count, unpack_bits

_U64 = np.uint64
_OT_DOMAIN_GC_INPUTS = 11


class GcSessions:
    """Per-channel lazy OT session reused across GC executions."""

    def __init__(
        self,
        chan: Channel,
        role: str,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
    ) -> None:
        if role not in ("garbler", "evaluator"):
            raise ProtocolError(f"unknown GC role {role!r}")
        self.chan = chan
        self.role = role
        self.group = group
        self._seed = seed
        self._ot = None

    @property
    def ot(self):
        """The label-OT session, created (taking its tag) on first use."""
        if self._ot is None:
            cls = OtExtSender if self.role == "garbler" else OtExtReceiver
            self._ot = cls(self.chan, group=self.group, seed=self._seed)
        return self._ot


def run_garbler(
    chan: Channel,
    circuit: Circuit,
    garbler_bits: np.ndarray,
    n_inst: int,
    sessions: GcSessions,
    rng: np.random.Generator,
    row_values: np.ndarray | None = None,
) -> None:
    """Garble ``circuit`` and drive the garbler side of one execution.

    ``garbler_bits`` has shape ``(n_garbler_inputs, n_inst)``.  A circuit
    with a row wire needs
    ``row_values``, the ``(n_inst, 2)`` words its table delivers.
    """
    if (circuit.row_wire is None) != (row_values is None):
        raise ConfigError("row_values must be given exactly when the circuit has a row wire")
    circuit.garbler_known()  # refuse a circuit with nothing to garble before any byte
    n_eval_bits = len(circuit.evaluator_inputs)
    with channel_span(chan, "gc-transfer", n_inst=n_inst):
        inputs = sessions.ot.send_xor_correlated(
            n_eval_bits * n_inst, LABEL_WORDS, domain=_OT_DOMAIN_GC_INPUTS
        )
    with channel_span(chan, "garble", n_inst=n_inst, and_gates=circuit.and_count):
        gc = garble(
            circuit, n_inst, rng, garbler_bits,
            inputs.x0.reshape(n_eval_bits, n_inst, LABEL_WORDS),
        )
        if row_values is None:
            rows = np.zeros(0, dtype=_U64)
        else:
            rows = row_table(gc, row_values)
        frame = (
            gc.tables, pack_bits(gc.output_decode_bits()), rows, inputs.correction(gc.offset)
        )
    with channel_span(chan, "gc-transfer", n_inst=n_inst):
        chan.send(frame)


def _check_garbler_frame(frame, circuit: Circuit, n_inst: int):
    """Validate the garbler's ``(tables, decode_bits, rows, corrections)``
    frame and unpack its decode bits.

    The frame comes from the peer, so its structure is checked before
    the evaluator touches it; the label-OT corrections are checked where
    they are opened (:meth:`~repro.crypto.iknp.XorOtRecv.open`).
    """
    if not (isinstance(frame, tuple) and len(frame) == 4):
        raise ProtocolError(
            "malformed garbled-circuit frame: expected (tables, decode bits, rows, corrections)"
        )
    tables, decode_bits, rows, corrections = frame
    tables = checked_frame(
        tables, (circuit.table_rows, n_inst, LABEL_WORDS), "garbled-circuit tables"
    )
    n_out = len(circuit.outputs)
    decode_bits = checked_bytes(
        decode_bits, (n_out * n_inst + 7) // 8, "garbled-circuit decode bits"
    )
    words = 0 if circuit.row_wire is None else packed_word_count(2 * n_inst, circuit.row_bits)
    rows = checked_frame(
        rows, (words,),
        f"garbled-circuit row table ({n_inst} instances at {circuit.row_bits} bits)",
    )
    return tables, unpack_bits(decode_bits, n_out * n_inst).reshape(n_out, n_inst), rows, corrections


def run_evaluator(
    chan: Channel,
    circuit: Circuit,
    evaluator_bits: np.ndarray,
    n_inst: int,
    sessions: GcSessions,
):
    """Evaluate one garbled execution; returns ``(n_outputs, n_inst)`` bits.

    ``evaluator_bits`` has shape ``(n_evaluator_inputs, n_inst)``.  For a
    circuit with a row wire the result is ``(bits, words)``, ``words`` being the ``(n_inst,)`` row of
    each instance's 2-row table that the wire's value selected.
    """
    bits = np.asarray(evaluator_bits, dtype=np.uint8)
    n_eval_bits = len(circuit.evaluator_inputs)
    if bits.shape != (n_eval_bits, n_inst):
        raise ProtocolError(
            f"expected evaluator bits of shape {(n_eval_bits, n_inst)}, got {bits.shape}"
        )
    circuit.garbler_known()  # refuse a circuit with nothing to garble before any byte
    with channel_span(chan, "gc-transfer", n_inst=n_inst):
        inputs = sessions.ot.recv_xor_correlated(
            bits.reshape(-1), LABEL_WORDS, domain=_OT_DOMAIN_GC_INPUTS
        )
        tables, decode_bits, rows, corrections = _check_garbler_frame(
            chan.recv(), circuit, n_inst
        )
        my_labels = inputs.open(corrections).reshape(n_eval_bits, n_inst, LABEL_WORDS)

    with channel_span(chan, "evaluate", n_inst=n_inst):
        wires = list(circuit.outputs)
        if circuit.row_wire is not None:
            wires.append(circuit.row_wire)
        labels = evaluate(circuit, tables, my_labels, wires=wires)
        bits = decode_outputs(labels[: len(circuit.outputs)], decode_bits)
        if circuit.row_wire is None:
            return bits
        return bits, read_row_table(circuit, labels[-1], rows)
