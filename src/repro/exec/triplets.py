"""Sharded parallel triplet generation over a channel multiplexer.

Partitions each radix group's flat (row, column, fragment) OT index
space into ``plan.shards`` contiguous spans.  Shard ``s`` runs its own
KK13 session over mux stream ``s`` and produces the partial share of its
span via the span workers factored out of :mod:`repro.core.triplets`.
Every shard session is built on the calling thread before dispatch: it
takes its tag from the *parent* channel's
:class:`~repro.crypto.otsetup.OtSetup` and derives its seeds there, so
the whole engine pays at most one base-OT handshake (on the parent
channel) and the tags do not depend on thread scheduling.  The full
shares are the shard sums in shard order:

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
    client_span_send,
    extend_span,
    fragment_value_table,
    server_span_open,
)
from repro.crypto.group import ModpGroup
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.crypto.otsetup import channel_setup
from repro.errors import ConfigError
from repro.exec.pool import run_sharded, shard_entropy
from repro.net.mux import ChannelMux, MuxChannel
from repro.perf.trace import Tracer

_U64 = np.uint64


@dataclass(frozen=True)
class ShardPlan:
    """How one offline execution is split and scheduled.

    ``shards``/``chunk_ots`` are public (both parties must agree);
    ``workers``/``async_depth`` are local.  ``chunk_ots=None`` cuts each
    shard's span into wire chunks of :meth:`TripletConfig.sub_block`
    OTs, as the sequential generators do.
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


def shard_stream(mux: ChannelMux, s: int, group: ModpGroup) -> MuxChannel:
    """Mux stream ``s``, sharing the parent channel's OT set-up."""
    stream = mux.stream(s)
    stream.ot_setup = channel_setup(mux.chan, group)
    return stream


def _run_engine(chan, plan: ShardPlan, config: TripletConfig, make_shard, stats_out):
    """Common scaffolding: mux, shard tracers, pool, adoption, stats.

    The parent channel's set-up first reserves the widest code length of
    the product, so the shard sessions share one handshake.

    ``make_shard(s, stream)`` runs on the calling thread for every shard
    before dispatch: it builds the shard's OT sessions on its mux stream
    and returns the body the pool runs.  When the channel is traced each
    shard records into its own tracer, adopted as a ``shard{s}`` span
    tree once the pool has joined.
    """
    channel_setup(chan, config.group).reserve(config.code_bits)
    use_async = plan.workers > 1 and plan.async_depth > 0
    mux = ChannelMux(chan, async_depth=plan.async_depth if use_async else 0)
    parent_tracer = getattr(chan, "tracer", None)
    trace = parent_tracer is not None
    busy = [0.0] * plan.shards
    tracers = [Tracer(f"shard{s}") if trace else None for s in range(plan.shards)]

    def make_task(s):
        stream = shard_stream(mux, s, config.group)
        stream.tracer = tracers[s]
        body = make_shard(s, stream)

        def task():
            t0 = time.perf_counter()
            try:
                return body()
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
def _shard_sessions(stream, s, config, plan, ot_seed, groups, session_cls):
    """Shard ``s``'s ``(session, radix_row, lo, hi)`` spans, seeds derived now.

    ``groups`` rows start ``(n_values, k_count, ...)``; the sessions take
    their tags and seeds on the calling thread.
    """
    spans = []
    for row in groups:
        n_values, k_count = row[:2]
        lo, hi = plan.span_bounds(config.rows * config.n * k_count, s)
        if lo >= hi:
            continue
        session = session_cls(
            stream, n_values, group=config.group,
            seed=None if ot_seed is None else ot_seed + n_values,
        )
        session.ensure_seeds()
        spans.append((session, row, lo, hi))
    return spans


def _server_shard(stream, s, config, plan, ot_seed, groups):
    """Server-side shard body; ``groups`` is ``(n_values, k_count, choices)``.
    Both passes of every span, on the shard's own stream."""
    spans = _shard_sessions(stream, s, config, plan, ot_seed, groups, Kk13Receiver)

    def body():
        ring = config.ring
        held = [
            extend_span(
                receiver, choices, lo, hi, plan.chunk_ots or config.sub_block(n_values)
            )
            for receiver, (n_values, _k, choices), lo, hi in spans
        ]
        u_s = ring.zeros(config.out_shape)
        for (receiver, (n_values, k_count, choices), _lo, _hi), rows in zip(spans, held):
            u_s = ring.add(
                u_s,
                server_span_open(stream, receiver, choices, config, n_values, k_count, rows),
            )
        return u_s

    return body


def _client_shard(stream, s, config, plan, ot_seed, groups, r):
    """Client-side shard body; ``groups`` is ``(n_values, k_count, value_table)``."""
    spans = _shard_sessions(stream, s, config, plan, ot_seed, groups, Kk13Sender)

    def body():
        ring = config.ring
        held = [
            extend_span(sender, None, lo, hi, plan.chunk_ots or config.sub_block(n_values))
            for sender, (n_values, _k, _table), lo, hi in spans
        ]
        v_s = ring.zeros(config.out_shape)
        for (sender, (n_values, k_count, table), _lo, _hi), rows in zip(spans, held):
            v_s = ring.add(
                v_s,
                client_span_send(stream, sender, table, r, config, n_values, k_count, rows),
            )
        return v_s

    return body


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
    ot_seeds = shard_entropy(seed, plan.shards)

    def make_shard(s, stream):
        return _server_shard(stream, s, config, plan, ot_seeds[s], groups)

    parts = _run_engine(chan, plan, config, make_shard, stats_out)
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

    The shares are the pads of each shard's own OT session, so they
    follow the shard partition whatever the worker count.
    """
    r = np.asarray(r_mat, dtype=_U64)
    if r.shape != config.r_shape:
        raise ConfigError(f"expected R of shape {config.r_shape}, got {r.shape}")
    ring = config.ring
    groups = [
        (n_values, len(k_list), fragment_value_table(config, k_list))
        for n_values, k_list in config.radix_groups
    ]
    ot_seeds = shard_entropy(seed, plan.shards)

    def make_shard(s, stream):
        return _client_shard(stream, s, config, plan, ot_seeds[s], groups, r)

    parts = _run_engine(chan, plan, config, make_shard, stats_out)
    v = ring.zeros(config.out_shape)
    for part in parts:
        v = ring.add(v, part)
    return ring.reduce(v)
