"""Sharded, pipelined execution of the offline triplet OT sessions.

The triplet workload is embarrassingly parallel across OT instances.
This package splits it into **shards**, each an independent KK13 session
over its own stream of a :class:`repro.net.mux.ChannelMux`, and runs the
shards on a bounded pool of threads (:mod:`repro.exec.pool`) so one
shard's PRG/hash compute overlaps another shard's bytes on the wire.

The shard count is a *public protocol parameter* (both parties must
agree on the :class:`ShardPlan`); the worker count is a local execution
knob.  Per-shard randomness is spawned from the caller's seed via
``numpy.random.SeedSequence``, so results are byte-identical for any
worker count — pinned by ``tests/test_exec_parallel.py``.
"""

from repro.exec.pool import run_sharded, shard_entropy
from repro.exec.triplets import (
    ShardPlan,
    parallel_triplets_client,
    parallel_triplets_server,
)

__all__ = [
    "ShardPlan",
    "parallel_triplets_client",
    "parallel_triplets_server",
    "run_sharded",
    "shard_entropy",
]
