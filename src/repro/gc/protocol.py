"""Two-party garbled-circuit execution over a channel.

Roles follow ABNN2's non-linear layer: the **client garbles** and the
**server evaluates** (the server's share ``z0`` is the circuit's output,
so the evaluator is the output party).  The server's input bits enter via
1-out-of-2 OT on wire labels (one IKNP session, reused across layers).

Message flow per execution:

1. garbler -> evaluator: garbled tables, active labels for the garbler's
   own inputs, the output decode bits and the 2-row table of the
   circuit's row wire (empty when it has none);
2. IKNP chosen-message OT: evaluator obtains active labels for its input
   bits (label pairs are the OT messages);
3. evaluator computes locally and decodes its outputs.

:class:`GcSessions` bundles that OT session and the random oracle the
garbled tables hash with.  It runs no base OTs of its own: its seeds
derive from the channel's :class:`~repro.crypto.otsetup.OtSetup`, so
after a KK13 offline phase on the same channel the label OT costs no
public-key work at all.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.errors import ConfigError, ProtocolError
from repro.gc.circuit import Circuit
from repro.gc.evaluate import decode_outputs, evaluate, read_row_table
from repro.gc.garble import LABEL_WORDS, garble, row_table
from repro.net.channel import Channel
from repro.perf.trace import channel_span

_U64 = np.uint64
_OT_DOMAIN_GC_INPUTS = 11


class GcSessions:
    """Per-channel lazy OT session and oracle reused across GC executions."""

    def __init__(
        self,
        chan: Channel,
        role: str,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
    ) -> None:
        if role not in ("garbler", "evaluator"):
            raise ProtocolError(f"unknown GC role {role!r}")
        self.chan = chan
        self.role = role
        self.group = group
        self.ro = ro
        self._seed = seed
        self._ot = None

    @property
    def ot(self):
        """The label-OT session, created (taking its tag) on first use."""
        if self._ot is None:
            cls = OtExtSender if self.role == "garbler" else OtExtReceiver
            self._ot = cls(self.chan, group=self.group, ro=self.ro, seed=self._seed)
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

    ``garbler_bits`` has shape ``(n_garbler_inputs, n_inst)``; the tables
    hash with ``sessions.ro``.  A circuit with a row wire needs
    ``row_values``, the ``(n_inst, 2)`` words its table delivers.
    """
    if (circuit.row_wire is None) != (row_values is None):
        raise ConfigError("row_values must be given exactly when the circuit has a row wire")
    with channel_span(chan, "garble", n_inst=n_inst, and_gates=circuit.and_count):
        gc = garble(circuit, n_inst, rng, sessions.ro)
        own_labels = gc.encode(circuit.garbler_inputs, garbler_bits)
        if row_values is None:
            rows = np.zeros((0, 2), dtype=_U64)
        else:
            rows = row_table(gc, row_values, sessions.ro)
    with channel_span(chan, "gc-transfer", n_inst=n_inst):
        chan.send((gc.tables, own_labels, gc.output_decode_bits(), rows))

        n_eval_bits = len(circuit.evaluator_inputs)
        if n_eval_bits:
            # Label pairs for the evaluator's inputs, wire-major then instance.
            base = gc.label0[circuit.evaluator_inputs].reshape(-1, LABEL_WORDS)
            pairs = np.empty((base.shape[0], 2, LABEL_WORDS), dtype=_U64)
            pairs[:, 0] = base
            pairs[:, 1] = base ^ gc.offset
            sessions.ot.send_chosen(pairs, domain=_OT_DOMAIN_GC_INPUTS)


def _check_garbler_frame(
    frame, circuit: Circuit, n_inst: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate the garbler's ``(tables, labels, decode_bits, rows)`` message.

    The frame comes from the peer, so its structure is checked before the
    evaluator answers with a single label-OT byte.
    """
    if not (
        isinstance(frame, tuple)
        and len(frame) == 4
        and all(isinstance(part, np.ndarray) for part in frame)
    ):
        raise ProtocolError("malformed garbled-circuit frame: expected 4 arrays")
    tables, garbler_labels, decode_bits, rows = frame
    n_rows = 0 if circuit.row_wire is None else n_inst
    for what, arr, shape in (
        ("tables", tables, (circuit.and_count, n_inst, 2, LABEL_WORDS)),
        ("garbler labels", garbler_labels, (len(circuit.garbler_inputs), n_inst, LABEL_WORDS)),
        ("decode bits", decode_bits, (len(circuit.outputs), n_inst)),
        ("row table", rows, (n_rows, 2)),
    ):
        if arr.shape != shape:
            raise ProtocolError(
                f"garbled-circuit {what}: expected shape {shape}, got {arr.shape}"
            )
    if any(arr.dtype != _U64 for arr in (tables, garbler_labels, rows)):
        raise ProtocolError("garbled-circuit tables, labels and rows must be uint64")
    return tables, garbler_labels, decode_bits, rows


def run_evaluator(
    chan: Channel,
    circuit: Circuit,
    evaluator_bits: np.ndarray,
    n_inst: int,
    sessions: GcSessions,
):
    """Evaluate one garbled execution; returns ``(n_outputs, n_inst)`` bits.

    ``evaluator_bits`` has shape ``(n_evaluator_inputs, n_inst)``; the
    tables hash with ``sessions.ro``.  For a circuit with a row wire the
    result is ``(bits, words)``, ``words`` being the ``(n_inst,)`` row of
    each instance's 2-row table that the wire's value selected.
    """
    bits = np.asarray(evaluator_bits, dtype=np.uint8)
    n_eval_bits = len(circuit.evaluator_inputs)
    if bits.shape != (n_eval_bits, n_inst):
        raise ProtocolError(
            f"expected evaluator bits of shape {(n_eval_bits, n_inst)}, got {bits.shape}"
        )
    with channel_span(chan, "gc-transfer", n_inst=n_inst):
        tables, garbler_labels, decode_bits, rows = _check_garbler_frame(
            chan.recv(), circuit, n_inst
        )
        if n_eval_bits:
            my_labels = sessions.ot.recv_chosen(
                bits.reshape(-1), LABEL_WORDS, domain=_OT_DOMAIN_GC_INPUTS
            ).reshape(n_eval_bits, n_inst, LABEL_WORDS)
        else:
            my_labels = np.zeros((0, n_inst, LABEL_WORDS), dtype=_U64)

    with channel_span(chan, "evaluate", n_inst=n_inst):
        wires = list(circuit.outputs)
        if circuit.row_wire is not None:
            wires.append(circuit.row_wire)
        labels = evaluate(
            circuit, tables, garbler_labels, my_labels, sessions.ro, wires=wires
        )
        bits = decode_outputs(labels[: len(circuit.outputs)], decode_bits)
        if circuit.row_wire is None:
            return bits
        return bits, read_row_table(circuit, labels[-1], rows, sessions.ro)
