"""Sharded garbled-circuit execution over the instance axis.

A batched GC layer garbles one template circuit for ``n_inst``
independent instances (one per neuron/element); given the shared
free-XOR offset is *per garbling*, disjoint instance blocks are fully
independent executions.  Shard ``s`` garbles/evaluates instance block
``[lo_s, hi_s)`` as its own :class:`repro.gc.protocol.GcSessions` over
mux stream ``s``.  Its IKNP session is built on the calling thread before
dispatch and derives its seeds from the parent channel's OT set-up, as in
:mod:`repro.exec.triplets`.  The evaluator reassembles output bits by
concatenating the shard blocks in shard order, so results are
worker-count independent.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import ConfigError
from repro.exec.pool import run_sharded, shard_entropy
from repro.exec.triplets import ShardPlan, shard_stream
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


def _run_gc_shards(chan, plan: ShardPlan, n_inst: int, group: ModpGroup, make_shard) -> list:
    """Shared scaffolding: mux + pool + cleanup.

    ``make_shard(stream, s, lo, hi)`` runs on the calling thread for each
    non-empty instance block: it builds the block's :class:`GcSessions`
    on its mux stream and returns the body the pool runs.  Results come
    back in shard order.
    """
    use_async = plan.workers > 1 and plan.async_depth > 0
    mux = ChannelMux(chan, async_depth=plan.async_depth if use_async else 0)
    try:
        tasks = [
            make_shard(shard_stream(mux, s, group), s, lo, hi)
            for s, lo, hi in _shard_blocks(n_inst, plan)
        ]
        parts = run_sharded(tasks, plan.workers, on_error=mux.abort)
        mux.flush()
    finally:
        mux.close()
    return parts


def _derived_sessions(stream, role: str, group, ro, seed) -> GcSessions:
    """A shard's GC sessions with the label-OT seeds derived now."""
    sessions = GcSessions(stream, role, group=group, ro=ro, seed=seed)
    sessions.ot.ensure_seeds()
    return sessions


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

    def make_shard(stream, s, lo, hi):
        ot_seed, rng = entropy[s]
        sessions = _derived_sessions(stream, "garbler", group, ro, ot_seed)
        return lambda: run_garbler(
            stream, circuit, bits[:, lo:hi], hi - lo, sessions, rng, ro
        )

    _run_gc_shards(chan, plan, n_inst, group, make_shard)


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

    def make_shard(stream, s, lo, hi):
        sessions = _derived_sessions(stream, "evaluator", group, ro, entropy[s][0])
        return lambda: run_evaluator(
            stream, circuit, bits[:, lo:hi], hi - lo, sessions, ro
        )

    parts = _run_gc_shards(chan, plan, n_inst, group, make_shard)
    return np.concatenate(parts, axis=1)
