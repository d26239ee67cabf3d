"""Boolean circuit templates for garbling.

A :class:`Circuit` is a DAG of XOR / AND / INV gates over single-bit
wires, with inputs split by owner (garbler vs evaluator) and an ordered
list of output wires.  XOR and INV are free under free-XOR garbling; AND
gates cost two ciphertexts each (half-gates), so :meth:`Circuit.and_count`
is the time-relevant size measure — the paper's "non-XOR gates".

A wire is *garbler-known* (:meth:`Circuit.garbler_known`) when the
garbler knows its value in the clear: a garbler input, or a gate output
whose operands are all garbler-known.  Such a wire carries no label at
all; an AND with one garbler-known operand costs one ciphertext
(:attr:`Circuit.table_rows` counts the ciphertexts).

Circuits are built through the fluent helpers (:meth:`xor`, :meth:`and_`,
:meth:`inv`, ...) and are immutable once garbled (garbling only reads).
:meth:`eval_plain` provides the semantics against which the garbled
execution is tested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


class GateOp(enum.IntEnum):
    XOR = 0
    AND = 1
    INV = 2


@dataclass(frozen=True)
class Gate:
    op: GateOp
    a: int
    b: int  # unused (-1) for INV
    out: int


@dataclass
class Circuit:
    """A boolean circuit template with owner-tagged inputs."""

    n_wires: int = 0
    gates: list[Gate] = field(default_factory=list)
    garbler_inputs: list[int] = field(default_factory=list)
    evaluator_inputs: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    #: A wire whose two labels key a 2-row output table: the evaluator
    #: learns one of two garbler-chosen words, selected by the wire's
    #: value (:func:`repro.gc.garble.row_table`), and nothing else.
    row_wire: int | None = None
    #: Width in bits of the two words the row table delivers.
    row_bits: int = 64

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def new_wire(self) -> int:
        wire = self.n_wires
        self.n_wires += 1
        return wire

    def garbler_input(self, count: int = 1) -> list[int]:
        wires = [self.new_wire() for _ in range(count)]
        self.garbler_inputs.extend(wires)
        return wires

    def evaluator_input(self, count: int = 1) -> list[int]:
        wires = [self.new_wire() for _ in range(count)]
        self.evaluator_inputs.extend(wires)
        return wires

    def xor(self, a: int, b: int) -> int:
        out = self.new_wire()
        self.gates.append(Gate(GateOp.XOR, a, b, out))
        return out

    def and_(self, a: int, b: int) -> int:
        out = self.new_wire()
        self.gates.append(Gate(GateOp.AND, a, b, out))
        return out

    def inv(self, a: int) -> int:
        out = self.new_wire()
        self.gates.append(Gate(GateOp.INV, a, -1, out))
        return out

    def or_(self, a: int, b: int) -> int:
        """a OR b = NOT(NOT a AND NOT b) — one AND gate."""
        return self.inv(self.and_(self.inv(a), self.inv(b)))

    def mark_outputs(self, wires: list[int]) -> None:
        self.outputs.extend(wires)

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def and_count(self) -> int:
        """Number of non-free gates (the paper's cost measure for GC)."""
        return sum(1 for g in self.gates if g.op == GateOp.AND)

    def garbler_known(self) -> np.ndarray:
        """``(n_wires,)`` bool: the wires whose value the garbler knows.

        Garbler inputs, and every gate output whose operands are all
        garbler-known.  The evaluator must learn its outputs and its row
        wire through labels, so none of them may be garbler-known.
        """
        known = np.zeros(self.n_wires, dtype=bool)
        known[self.garbler_inputs] = True
        for gate in self.gates:
            known[gate.out] = known[gate.a] and (gate.op == GateOp.INV or known[gate.b])
        exposed = [w for w in self.outputs if known[w]]
        if self.row_wire is not None and known[self.row_wire]:
            exposed.append(self.row_wire)
        if exposed:
            raise ConfigError(
                f"wires {exposed} are outputs the garbler computes alone: "
                "nothing to garble"
            )
        return known

    @property
    def table_rows(self) -> int:
        """Ciphertexts per instance: two per AND of two label-carrying
        wires, one per AND with a garbler-known operand (a garbler half
        gate), none for an AND the garbler computes in the clear."""
        known = self.garbler_known()
        return sum(
            2 - int(known[g.a]) - int(known[g.b])
            for g in self.gates
            if g.op == GateOp.AND and not (known[g.a] and known[g.b])
        )

    def validate(self) -> None:
        """Check the wiring is a well-formed single-assignment DAG."""
        defined = set(self.garbler_inputs) | set(self.evaluator_inputs)
        for gate in self.gates:
            if gate.a not in defined or (gate.op != GateOp.INV and gate.b not in defined):
                raise ConfigError(f"gate {gate} reads an undefined wire")
            if gate.out in defined:
                raise ConfigError(f"gate {gate} overwrites wire {gate.out}")
            defined.add(gate.out)
        missing = [w for w in self.outputs if w not in defined]
        if self.row_wire is not None and self.row_wire not in defined:
            missing.append(self.row_wire)
        if missing:
            raise ConfigError(f"output wires {missing} are never driven")

    # ------------------------------------------------------------------ #
    # plaintext semantics
    # ------------------------------------------------------------------ #
    def eval_plain(self, garbler_bits, evaluator_bits) -> np.ndarray:
        """Evaluate in the clear; inputs/outputs are (n_inst, n_bits) arrays.

        Scalars/1-D inputs are promoted to one instance.  Returns an
        ``(n_inst, n_outputs)`` uint8 array.
        """
        g = np.atleast_2d(np.asarray(garbler_bits, dtype=np.uint8))
        e = np.atleast_2d(np.asarray(evaluator_bits, dtype=np.uint8))
        if g.shape[1] != len(self.garbler_inputs):
            raise ConfigError(
                f"expected {len(self.garbler_inputs)} garbler bits, got {g.shape[1]}"
            )
        if e.shape[1] != len(self.evaluator_inputs):
            raise ConfigError(
                f"expected {len(self.evaluator_inputs)} evaluator bits, got {e.shape[1]}"
            )
        n_inst = max(g.shape[0], e.shape[0])
        values = np.zeros((self.n_wires, n_inst), dtype=np.uint8)
        values[self.garbler_inputs, :] = g.T
        values[self.evaluator_inputs, :] = e.T
        for gate in self.gates:
            if gate.op == GateOp.XOR:
                values[gate.out] = values[gate.a] ^ values[gate.b]
            elif gate.op == GateOp.AND:
                values[gate.out] = values[gate.a] & values[gate.b]
            else:
                values[gate.out] = values[gate.a] ^ 1
        return values[self.outputs].T.copy()
