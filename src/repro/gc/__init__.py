"""Yao garbled circuits: free-XOR + half-gates, batched across instances.

ABNN2 evaluates one small circuit (a ReLU sized to the layer's
activation width) for every neuron of a layer.  The implementation
exploits that: a circuit is a *template*, and garbling/evaluation are
vectorized over many parallel instances with numpy, so the per-gate
Python loop runs once per template gate rather than once per neuron.
"""

from repro.gc.circuit import Circuit, Gate, GateOp
from repro.gc.builder import (
    add_words,
    sub_words,
    relu_template,
    sign_template,
    reconstruct_sub_template,
)
from repro.gc.garble import garble
from repro.gc.evaluate import evaluate, decode_outputs
from repro.gc.protocol import run_garbler, run_evaluator, GcSessions

__all__ = [
    "Circuit",
    "Gate",
    "GateOp",
    "add_words",
    "sub_words",
    "relu_template",
    "sign_template",
    "reconstruct_sub_template",
    "garble",
    "evaluate",
    "decode_outputs",
    "run_garbler",
    "run_evaluator",
    "GcSessions",
]
