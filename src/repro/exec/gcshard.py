"""Sharded garbled-circuit execution over the instance axis.

A batched GC layer garbles one template circuit for ``n_inst``
independent instances (one per neuron/element); given the shared
free-XOR offset is *per garbling*, disjoint instance blocks are fully
independent executions.  Shard ``s`` garbles/evaluates instance block
``[lo_s, hi_s)`` as its own :class:`repro.gc.protocol.GcSessions`
(fresh IKNP session, seed spawned per shard, ``session_tag=s``) over mux
stream ``s``; the evaluator reassembles output bits by concatenating the
shard blocks in shard order, so results are worker-count independent.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import ConfigError
from repro.exec.pool import run_sharded, shard_entropy
from repro.exec.triplets import ShardPlan
from repro.gc.circuit import Circuit
from repro.gc.protocol import GcSessions, run_evaluator, run_garbler
from repro.net.mux import ChannelMux


def _shard_blocks(n_inst: int, plan: ShardPlan) -> list[tuple[int, int, int]]:
    """Non-empty ``(shard, lo, hi)`` instance blocks of the plan."""
    blocks = []
    for s in range(plan.shards):
        lo, hi = plan.span_bounds(n_inst, s)
        if lo < hi:
            blocks.append((s, lo, hi))
    return blocks


def _run_gc_shards(chan, plan: ShardPlan, n_inst: int, shard_body) -> list:
    """Shared scaffolding: mux + pool + cleanup.

    ``shard_body(stream, s, lo, hi)`` runs each non-empty instance block
    over its own mux stream; results come back in shard order.
    """
    use_async = plan.workers > 1 and plan.async_depth > 0
    mux = ChannelMux(chan, async_depth=plan.async_depth if use_async else 0)
    tasks = [
        lambda s=s, lo=lo, hi=hi: shard_body(mux.stream(s), s, lo, hi)
        for s, lo, hi in _shard_blocks(n_inst, plan)
    ]
    try:
        parts = run_sharded(tasks, plan.workers, on_error=mux.abort)
        mux.flush()
    finally:
        mux.close()
    return parts


def run_garbler_sharded(
    chan,
    circuit: Circuit,
    garbler_bits: np.ndarray,
    n_inst: int,
    plan: ShardPlan,
    seed: int | None = None,
    group: ModpGroup = DEFAULT_GROUP,
    ro: RandomOracle = default_ro,
) -> None:
    """Sharded :func:`repro.gc.protocol.run_garbler` (client side)."""
    bits = np.asarray(garbler_bits, dtype=np.uint8)
    if bits.shape != (len(circuit.garbler_inputs), n_inst):
        raise ConfigError(
            f"expected garbler bits of shape "
            f"{(len(circuit.garbler_inputs), n_inst)}, got {bits.shape}"
        )
    entropy = shard_entropy(seed, plan.shards)

    def shard_body(stream, s, lo, hi):
        ot_seed, rng = entropy[s]
        sessions = GcSessions(
            stream, "garbler", group=group, ro=ro, seed=ot_seed, session_tag=s
        )
        run_garbler(stream, circuit, bits[:, lo:hi], hi - lo, sessions, rng, ro)

    _run_gc_shards(chan, plan, n_inst, shard_body)


def run_evaluator_sharded(
    chan,
    circuit: Circuit,
    evaluator_bits: np.ndarray,
    n_inst: int,
    plan: ShardPlan,
    seed: int | None = None,
    group: ModpGroup = DEFAULT_GROUP,
    ro: RandomOracle = default_ro,
) -> np.ndarray:
    """Sharded :func:`repro.gc.protocol.run_evaluator` (server side).

    Returns ``(n_outputs, n_inst)`` cleartext bits, identical for any
    worker count on either side.
    """
    bits = np.asarray(evaluator_bits, dtype=np.uint8)
    if bits.shape != (len(circuit.evaluator_inputs), n_inst):
        raise ConfigError(
            f"expected evaluator bits of shape "
            f"{(len(circuit.evaluator_inputs), n_inst)}, got {bits.shape}"
        )
    entropy = shard_entropy(seed, plan.shards)

    def shard_body(stream, s, lo, hi):
        sessions = GcSessions(
            stream, "evaluator", group=group, ro=ro, seed=entropy[s][0], session_tag=s
        )
        return run_evaluator(stream, circuit, bits[:, lo:hi], hi - lo, sessions, ro)

    parts = _run_gc_shards(chan, plan, n_inst, shard_body)
    return np.concatenate(parts, axis=1)
