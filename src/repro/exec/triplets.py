"""Sharded parallel triplet generation over a channel multiplexer.

Partitions each radix group's flat (row, column, fragment) OT index
space into ``plan.shards`` contiguous spans.  Shard ``s`` runs its own
KK13 session (fresh base OTs, seed spawned per shard, random-oracle
tweaks separated by ``session_tag=s``) over mux stream ``s`` and
produces the partial share of its span via the span workers factored
out of :mod:`repro.core.triplets`; the full shares are the shard sums
in shard order:

    U = sum_s U_s,   V = sum_s V_s,   U + V = W_signed @ R (mod 2^l)

because OT instances are independent and share addition is associative.

The **shard count is a protocol parameter** — both parties must use the
same :class:`ShardPlan` ``shards``/``chunk_ots`` (the per-stream
transcripts depend on them).  ``workers`` and ``async_depth`` are local
execution knobs: any worker count yields byte-identical shares and
per-stream transcripts, only the frame interleaving on the underlying
channel changes.  ``workers=1`` runs the shard schedule synchronously on
the calling thread (no mux writer thread, sends block) — the sequential
baseline of ``exec.triplets.wall_s.w1`` / ``.w2`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.triplets import (
    TripletConfig,
    client_group_span,
    server_group_span,
)
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.errors import ConfigError
from repro.exec.pool import run_sharded, shard_entropy
from repro.net.mux import ChannelMux
from repro.perf.trace import Tracer

_U64 = np.uint64


@dataclass(frozen=True)
class ShardPlan:
    """How one offline execution is split and scheduled.

    ``shards``/``chunk_ots`` are public (both parties must agree);
    ``workers``/``async_depth`` are local.  ``chunk_ots=None`` keeps the
    per-radix chunk size of :meth:`TripletConfig.chunk_size`.
    """

    shards: int = 8
    workers: int = 1
    chunk_ots: int | None = None
    async_depth: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError("shards must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        if self.chunk_ots is not None and self.chunk_ots < 1:
            raise ConfigError("chunk_ots must be positive")
        if self.async_depth < 0:
            raise ConfigError("async_depth cannot be negative")

    def span_bounds(self, total: int, shard: int) -> tuple[int, int]:
        """Contiguous flat-index span of ``shard`` within ``total`` items."""
        return shard * total // self.shards, (shard + 1) * total // self.shards


def _run_engine(chan, plan: ShardPlan, shard_body, stats_out):
    """Common scaffolding: mux, shard tracers, pool, adoption, stats.

    ``shard_body(s, stream)`` runs shard ``s`` over its mux stream; when
    the channel is traced each shard records into its own tracer, adopted
    as a ``shard{s}`` span tree once the pool has joined.
    """
    use_async = plan.workers > 1 and plan.async_depth > 0
    mux = ChannelMux(chan, async_depth=plan.async_depth if use_async else 0)
    parent_tracer = getattr(chan, "tracer", None)
    trace = parent_tracer is not None
    busy = [0.0] * plan.shards
    tracers = [Tracer(f"shard{s}") if trace else None for s in range(plan.shards)]

    def make_task(s):
        def task():
            t0 = time.perf_counter()
            stream = mux.stream(s)
            stream.tracer = tracers[s]
            try:
                return shard_body(s, stream)
            finally:
                busy[s] = time.perf_counter() - t0

        return task

    engine_span = None
    if trace:
        engine_span = parent_tracer.start_span(
            "parallel-offline", shards=plan.shards, workers=plan.workers
        )
    t_wall = time.perf_counter()
    try:
        results = run_sharded(
            [make_task(s) for s in range(plan.shards)],
            plan.workers,
            on_error=mux.abort,
        )
        mux.flush()
    finally:
        mux.close()
        wall = time.perf_counter() - t_wall
        occupancy = sum(busy) / (plan.workers * wall) if wall > 0 else 0.0
        if trace:
            for s in range(plan.shards):
                parent_tracer.adopt(tracers[s], f"shard{s}")
            engine_span.attrs["pipeline_occupancy"] = round(occupancy, 4)
            parent_tracer.end_span(engine_span)
        if stats_out is not None:
            stats_out.update(
                wall_s=wall,
                shard_busy_s=list(busy),
                pipeline_occupancy=occupancy,
                stream_totals=mux.stream_totals(),
            )
    return results


# --------------------------------------------------------------------- #
# shard bodies
# --------------------------------------------------------------------- #
def _server_shard(stream, s, config, plan, ot_seed, groups):
    """Server-side shard body; ``groups`` is ``(n_values, k_count, choices)``."""
    ring = config.ring
    u_s = ring.zeros(config.out_shape)
    for n_values, k_count, choices in groups:
        lo, hi = plan.span_bounds(choices.shape[0], s)
        if lo >= hi:
            continue
        receiver = Kk13Receiver(
            stream, n_values, group=config.group, ro=config.ro,
            seed=None if ot_seed is None else ot_seed + n_values,
            session_tag=s,
        )
        chunk = plan.chunk_ots or config.chunk_size(n_values)
        u_s = ring.add(
            u_s,
            server_group_span(
                stream, receiver, choices, config, n_values, k_count,
                lo, hi, chunk,
            ),
        )
    return u_s


def _client_shard(stream, s, config, plan, ot_seed, rng, groups, r):
    """Client-side shard body; ``groups`` is ``(n_values, k_count, value_table)``."""
    ring = config.ring
    v_s = ring.zeros(config.out_shape)
    for n_values, k_count, value_table in groups:
        total = config.rows * config.n * k_count
        lo, hi = plan.span_bounds(total, s)
        if lo >= hi:
            continue
        sender = Kk13Sender(
            stream, n_values, group=config.group, ro=config.ro,
            seed=None if ot_seed is None else ot_seed + n_values,
            session_tag=s,
        )
        chunk = plan.chunk_ots or config.chunk_size(n_values)
        v_s = ring.add(
            v_s,
            client_group_span(
                stream, sender, value_table, r, config, n_values, k_count,
                lo, hi, chunk, rng,
            ),
        )
    return v_s


def parallel_triplets_server(
    chan,
    w_int: np.ndarray,
    config: TripletConfig,
    plan: ShardPlan,
    seed: int | None = None,
    stats_out: dict | None = None,
) -> np.ndarray:
    """Sharded :func:`repro.core.triplets.generate_triplets_server`.

    Returns ``U`` of shape ``(m, o)``; byte-identical for any
    ``plan.workers`` given fixed ``seed``/``shards``/``chunk_ots``.
    """
    w = np.asarray(w_int, dtype=np.int64)
    if w.shape != config.w_shape:
        raise ConfigError(f"expected W of shape {config.w_shape}, got {w.shape}")
    ring = config.ring
    digits = config.scheme.digits(w)
    groups = [
        (n_values, len(k_list), digits[:, :, k_list].reshape(-1))
        for n_values, k_list in config.radix_groups
    ]
    entropy = shard_entropy(seed, plan.shards)

    def shard_body(s, stream):
        return _server_shard(stream, s, config, plan, entropy[s][0], groups)

    parts = _run_engine(chan, plan, shard_body, stats_out)
    u = ring.zeros(config.out_shape)
    for part in parts:
        u = ring.add(u, part)
    return ring.reduce(u)


def parallel_triplets_client(
    chan,
    r_mat: np.ndarray,
    config: TripletConfig,
    plan: ShardPlan,
    seed: int | None = None,
    stats_out: dict | None = None,
) -> np.ndarray:
    """Sharded :func:`repro.core.triplets.generate_triplets_client`.

    Unlike the sequential API the share-sampling generator is derived
    here (per shard, spawned from ``seed``) rather than passed in: the
    sampling order must follow the shard partition, not the caller's
    single stream, for worker-count independence.
    """
    r = np.asarray(r_mat, dtype=_U64)
    if r.shape != config.r_shape:
        raise ConfigError(f"expected R of shape {config.r_shape}, got {r.shape}")
    ring = config.ring
    groups = [
        (
            n_values,
            len(k_list),
            ring.reduce(np.stack([config.scheme.values(k) for k in k_list])),
        )
        for n_values, k_list in config.radix_groups
    ]
    entropy = shard_entropy(seed, plan.shards)

    def shard_body(s, stream):
        ot_seed, rng = entropy[s]
        return _client_shard(stream, s, config, plan, ot_seed, rng, groups, r)

    parts = _run_engine(chan, plan, shard_body, stats_out)
    v = ring.zeros(config.out_shape)
    for part in parts:
        v = ring.add(v, part)
    return ring.reduce(v)
