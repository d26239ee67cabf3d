"""Execution engine: mux framing, sharded determinism, thread hygiene.

The contract under test (docs/PROTOCOLS.md §12): ``shards``/``chunk_ots``
are protocol parameters, ``workers``/``async_depth`` are local knobs —
for a fixed seed every worker count must produce byte-identical shares
and identical per-stream transcripts, over in-memory channels and TCP
alike, and must not leak worker threads.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.crypto.otsetup import MAX_SESSION_TAG, session_base_index
from repro.core.triplets import TripletConfig
from repro.errors import ChannelError, CryptoError
from repro.exec import (
    ShardPlan,
    parallel_triplets_client,
    parallel_triplets_server,
    shard_entropy,
)
from repro.exec.pool import run_sharded
from repro.net import tcp
from repro.net.channel import make_channel_pair
from repro.net.mux import MUX_FRAME_OVERHEAD_BYTES, ChannelMux
from repro.net.netsim import NetworkModel, shaped_channel_pair
from repro.perf.trace import Tracer
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


class _no_thread_leak:
    """Assert the with-block leaves no extra live threads behind."""

    def __enter__(self):
        self._before = set(threading.enumerate())
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            return False
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [
                t for t in threading.enumerate()
                if t not in self._before and t.is_alive()
            ]
            if not leaked:
                return False
            time.sleep(0.01)
        raise AssertionError(f"leaked threads: {[t.name for t in leaked]}")


def _tcp_pair(timeout_s=30.0):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    box = {}

    def _serve():
        box["server"] = tcp.listen(port, timeout_s=timeout_s)

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    client = tcp.connect("127.0.0.1", port, timeout_s=timeout_s)
    thread.join(timeout=timeout_s)
    return box["server"], client


def _both(server_fn, client_fn, channels):
    """Run both parties on threads; re-raise the first party error."""
    server_chan, client_chan = channels
    out: dict = {}
    errors: list[BaseException] = []

    def runner(name, fn, chan):
        def body():
            try:
                out[name] = fn(chan)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        return threading.Thread(target=body, name=f"party-{name}", daemon=True)

    threads = [runner("server", server_fn, server_chan), runner("client", client_fn, client_chan)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    if errors:
        raise errors[0]
    assert not any(t.is_alive() for t in threads), "party thread hung"
    return out["server"], out["client"]


# --------------------------------------------------------------------- #
# mux framing
# --------------------------------------------------------------------- #
class TestChannelMux:
    def test_two_streams_roundtrip_and_accounting(self):
        a, b = make_channel_pair(timeout_s=5.0)
        mux_a, mux_b = ChannelMux(a), ChannelMux(b)
        payload = np.arange(4, dtype=np.uint64)

        def left(_):
            mux_a.stream(0).send(payload)
            mux_a.stream(1).send(111)
            return mux_a.stream(1).recv()

        def right(_):
            got1 = mux_b.stream(1).recv()
            got0 = mux_b.stream(0).recv()
            mux_b.stream(1).send(222)
            return got0, got1

        echoed, (got0, got1) = _both(left, right, (a, b))
        assert echoed == 222 and got1 == 111
        assert (got0 == payload).all()
        assert mux_a.stream(0).sent_msgs == 1
        assert mux_a.stream(0).sent_bytes == payload.nbytes
        assert mux_b.stream_totals()[0]["recv_bytes"] == payload.nbytes
        # Send-side accounting matches recv-side accounting per stream.
        assert mux_a.stream_totals()[1]["sent_msgs"] == mux_b.stream_totals()[1]["recv_msgs"]

    def test_sequence_gap_detected(self):
        a, b = make_channel_pair(timeout_s=1.0)
        mux_b = ChannelMux(b)
        a.send((0, 3, 99))  # stream 0 expects frame #0
        with pytest.raises(ChannelError, match="sequence gap"):
            mux_b.stream(0).recv()

    def test_non_mux_frame_rejected(self):
        a, b = make_channel_pair(timeout_s=1.0)
        mux_b = ChannelMux(b)
        a.send(np.zeros(2, dtype=np.uint64))
        with pytest.raises(ChannelError, match="mux frame"):
            mux_b.stream(0).recv()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("async_depth", [0, 2])
    def test_interleaving_fuzz(self, seed, async_depth):
        """Per-stream order and totals survive adversarial interleaving."""
        n_streams, n_msgs = 4, 12
        master = np.random.default_rng(1000 + seed)
        sleeps = master.random((2, n_streams, n_msgs)) * 0.002
        a, b = make_channel_pair(timeout_s=10.0)

        def party(mux, side):
            def run(_):
                results = {}
                errs = []

                def worker(tag):
                    try:
                        stream = mux.stream(tag)
                        got = []
                        for i in range(n_msgs):
                            time.sleep(sleeps[side, tag, i])
                            stream.send((side, tag, i))
                            got.append(stream.recv())
                        results[tag] = got
                    except BaseException as exc:  # noqa: BLE001
                        errs.append(exc)

                workers = [
                    threading.Thread(target=worker, args=(t,), daemon=True)
                    for t in range(n_streams)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30.0)
                mux.flush()
                if errs:
                    raise errs[0]
                return results

            return run

        with _no_thread_leak():
            mux_a = ChannelMux(a, async_depth=async_depth)
            mux_b = ChannelMux(b, async_depth=async_depth)
            got_a, got_b = _both(party(mux_a, 0), party(mux_b, 1), (a, b))
            mux_a.close()
            mux_b.close()
        for tag in range(n_streams):
            # In-order per stream despite cross-stream interleaving.
            assert got_a[tag] == [(1, tag, i) for i in range(n_msgs)]
            assert got_b[tag] == [(0, tag, i) for i in range(n_msgs)]
        # Byte totals are scheduling-independent: same payloads each run.
        totals_a, totals_b = mux_a.stream_totals(), mux_b.stream_totals()
        for tag in range(n_streams):
            assert totals_a[tag]["sent_msgs"] == n_msgs
            assert totals_a[tag]["sent_bytes"] == totals_b[tag]["recv_bytes"]
            assert totals_b[tag]["sent_bytes"] == totals_a[tag]["recv_bytes"]

    def test_close_idempotent_and_never_closes_inner(self):
        a, b = make_channel_pair(timeout_s=1.0)
        with _no_thread_leak():
            mux = ChannelMux(a, async_depth=2)
            mux.stream(0).send(7)
            mux.flush()
            mux.close()
            mux.close()
        assert b.recv() == (0, 0, 7)  # inner channel still usable


# --------------------------------------------------------------------- #
# session-tag domain separation
# --------------------------------------------------------------------- #
class TestSessionTag:
    def test_base_index_layout(self):
        assert session_base_index(0) == 0
        assert session_base_index(3) == 3 << 48
        assert session_base_index(MAX_SESSION_TAG) == MAX_SESSION_TAG << 48

    def test_out_of_range_rejected(self):
        for bad in (-1, MAX_SESSION_TAG + 1):
            with pytest.raises(CryptoError):
                session_base_index(bad)


# --------------------------------------------------------------------- #
# sharded triplets: worker-count independence
# --------------------------------------------------------------------- #
def _triplet_config(test_group, m=12, n=10, o=4):
    return TripletConfig(
        ring=Ring(16), scheme=FragmentScheme.from_bits((2, 2)),
        m=m, n=n, o=o, group=test_group,
    )


def _triplet_inputs(config, seed=5):
    rng = np.random.default_rng(seed)
    lo, hi = config.scheme.weight_range
    w = rng.integers(lo, hi + 1, size=(config.m, config.n), dtype=np.int64)
    r = config.ring.sample(rng, (config.n, config.o))
    return w, r


def _run_parallel(config, w, r, plan, channels, trace=False):
    stats = {"server": {}, "client": {}}
    if trace:
        channels[0].tracer = Tracer("server")
        channels[1].tracer = Tracer("client")

    u, v = _both(
        lambda chan: parallel_triplets_server(
            chan, w, config, plan, seed=21, stats_out=stats["server"]
        ),
        lambda chan: parallel_triplets_client(
            chan, r, config, plan, seed=22, stats_out=stats["client"]
        ),
        channels,
    )
    return u, v, stats


class TestShardedTriplets:
    def test_worker_count_independence_in_memory(self, test_group):
        config = _triplet_config(test_group)
        w, r = _triplet_inputs(config)
        results = {}
        for workers in (1, 4):
            plan = ShardPlan(shards=4, workers=workers, chunk_ots=64)
            with _no_thread_leak():
                results[workers] = _run_parallel(
                    config, w, r, plan, make_channel_pair(timeout_s=30.0)
                )
        u1, v1, stats1 = results[1]
        u4, v4, stats4 = results[4]
        expected = config.ring.matmul(config.ring.reduce(w), r)
        assert (config.ring.add(u1, v1) == expected).all()
        assert (u1 == u4).all() and (v1 == v4).all()
        for side in ("server", "client"):
            assert stats1[side]["stream_totals"] == stats4[side]["stream_totals"]

    def test_worker_count_independence_over_tcp(self, test_group):
        config = _triplet_config(test_group, m=6, n=5, o=2)
        w, r = _triplet_inputs(config)
        plan1 = ShardPlan(shards=3, workers=1, chunk_ots=32)
        plan4 = ShardPlan(shards=3, workers=4, chunk_ots=32)
        u1, v1, stats1 = _run_parallel(
            config, w, r, plan1, make_channel_pair(timeout_s=30.0)
        )
        with _no_thread_leak():
            server_chan, client_chan = _tcp_pair()
            try:
                u4, v4, stats4 = _run_parallel(
                    config, w, r, plan4, (server_chan, client_chan)
                )
            finally:
                server_chan.close()
                client_chan.close()
        assert (u1 == u4).all() and (v1 == v4).all()
        for side in ("server", "client"):
            assert stats1[side]["stream_totals"] == stats4[side]["stream_totals"]

    def test_traced_per_stream_totals_deterministic(self, test_group):
        """Tracer-visible per-shard byte totals match across worker counts."""
        config = _triplet_config(test_group, m=8, n=6, o=2)
        w, r = _triplet_inputs(config)

        def traced_totals(workers):
            channels = make_channel_pair(timeout_s=30.0)
            plan = ShardPlan(shards=2, workers=workers, chunk_ots=64)
            _, _, stats = _run_parallel(config, w, r, plan, channels, trace=True)
            root = channels[0].tracer.root
            engine = next(s for s in root.children if s.name == "parallel-offline")
            shard_io = {
                s.name: (s.totals()["sent_bytes"], s.totals()["recv_bytes"])
                for s in engine.children if s.name.startswith("shard")
            }
            assert engine.attrs["pipeline_occupancy"] > 0
            return shard_io, stats["server"]["stream_totals"]

        io1, totals1 = traced_totals(1)
        io2, totals2 = traced_totals(4)
        assert io1 == io2 and totals1 == totals2
        assert set(io1) == {"shard0", "shard1"}
        for tag, counters in totals1.items():
            assert io1[f"shard{tag}"] == (
                counters["sent_bytes"], counters["recv_bytes"]
            )

    def test_shards_is_a_protocol_parameter(self, test_group):
        """Different shard counts give different (but still valid) shares."""
        config = _triplet_config(test_group, m=6, n=4, o=2)
        w, r = _triplet_inputs(config)
        shares = {}
        for shards in (2, 3):
            plan = ShardPlan(shards=shards, workers=1, chunk_ots=32)
            u, v, _ = _run_parallel(
                config, w, r, plan, make_channel_pair(timeout_s=30.0)
            )
            expected = config.ring.matmul(config.ring.reduce(w), r)
            assert (config.ring.add(u, v) == expected).all()
            shares[shards] = (u, v)
        assert not (shares[2][0] == shares[3][0]).all()


# --------------------------------------------------------------------- #
# worker pool + entropy
# --------------------------------------------------------------------- #
class TestPool:
    def test_run_sharded_preserves_order_and_reraises(self):
        with _no_thread_leak():
            assert run_sharded([lambda i=i: i * i for i in range(7)], 3) == [
                i * i for i in range(7)
            ]

        def boom():
            raise ValueError("shard exploded")

        with _no_thread_leak(), pytest.raises(ValueError, match="shard exploded"):
            run_sharded([lambda: 1, boom, lambda: 3], 2)

    def test_shard_entropy_deterministic_and_decorrelated(self):
        seeds = shard_entropy(42, 4)
        assert seeds == shard_entropy(42, 4)
        assert len(set(seeds)) == 4
        assert shard_entropy(None, 2) == [None, None]


# --------------------------------------------------------------------- #
# pool cancellation semantics
# --------------------------------------------------------------------- #
class TestPoolCancellation:
    def test_error_drains_queue_and_attaches_index(self):
        started = []
        gate = threading.Event()

        def make(idx):
            def task():
                started.append(idx)
                if idx == 0:
                    gate.wait(timeout=5.0)
                    raise ValueError("shard exploded")
                if idx == 1:
                    # Let task 0 fail while this one is still in flight.
                    gate.set()
                    time.sleep(0.2)
                return idx

            return task

        with _no_thread_leak(), pytest.raises(ValueError, match="shard exploded") as ei:
            run_sharded([make(i) for i in range(8)], 2)
        # The shard index rides on the exception as a note.
        assert any("shard task 0" in note for note in ei.value.__notes__)
        # Tasks queued behind the failure never started: the queue was
        # drained the moment task 0 raised, while task 1 was in flight.
        assert set(started) <= {0, 1, 2}

    def test_on_error_hook_fires_once_with_original_exception(self):
        seen = []

        def boom():
            raise RuntimeError("pow")

        with pytest.raises(RuntimeError, match="pow"):
            run_sharded([boom, lambda: 1], 2, on_error=seen.append)
        assert len(seen) == 1 and str(seen[0]) == "pow"
        # Sequential path fires the hook too.
        seen.clear()
        with pytest.raises(RuntimeError, match="pow"):
            run_sharded([boom], 1, on_error=seen.append)
        assert len(seen) == 1

    def test_engine_aborts_mux_so_siblings_fail_fast(self):
        """A poisoned mux wakes parked stream readers within a poll tick.

        Of two concurrent readers, one holds the recv lock and blocks
        inside the underlying ``chan.recv`` (it surfaces the poison at
        its next frame or the channel timeout); the *parked* reader
        polls ``_error`` every 50 ms and must fail fast — far below the
        30 s stream timeout.  New sends fail immediately.
        """
        a, b = make_channel_pair(timeout_s=30.0)
        mux = ChannelMux(a)
        box = {}

        def reader(tag):
            t0 = time.monotonic()
            try:
                mux.stream(tag).recv()
            except ChannelError as exc:
                box[tag] = (exc, time.monotonic() - t0)

        threads = [
            threading.Thread(target=reader, args=(tag,), daemon=True)
            for tag in (0, 1)
        ]
        for t in threads:
            t.start()
        time.sleep(0.15)
        mux.abort(RuntimeError("sibling shard failed"))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not box:
            time.sleep(0.01)
        assert box, "no parked reader observed the abort"
        exc, waited = next(iter(box.values()))
        assert "sibling shard failed" in str(exc)
        assert waited < 5.0  # far below the 30 s stream timeout
        with pytest.raises(ChannelError, match="sibling shard failed"):
            mux.stream(2).send("x")
        # Release the lock-holding pumper (blocked in the underlying
        # recv) by dropping the peer endpoint, then join both readers.
        b.abort()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads), "reader hung"
        assert len(box) == 2


# --------------------------------------------------------------------- #
# shaped link
# --------------------------------------------------------------------- #
class TestShapedChannel:
    def test_transfer_and_latency_are_charged(self):
        model = NetworkModel("test", bandwidth_bytes_per_s=1_000_000, rtt_s=0.05)
        server, client = shaped_channel_pair(model, timeout_s=5.0)
        blob = np.zeros(25_000, dtype=np.uint8)  # 25 kB -> 25 ms transfer

        def sender(chan):
            chan.send(blob)

        def receiver(chan):
            t0 = time.perf_counter()
            got = chan.recv()
            return got, time.perf_counter() - t0

        _, (got, elapsed) = _both(sender, receiver, (server, client))
        assert got.nbytes == blob.nbytes
        # transfer (25 ms) + half-RTT (25 ms), minus scheduling slack
        assert elapsed >= 0.04

    def test_serialization_queues_back_to_back_sends(self):
        model = NetworkModel("test", bandwidth_bytes_per_s=1_000_000, rtt_s=0.0)
        server, client = shaped_channel_pair(model, timeout_s=5.0)
        blob = np.zeros(20_000, dtype=np.uint8)

        def sender(chan):
            for _ in range(3):
                chan.send(blob)

        def receiver(chan):
            t0 = time.perf_counter()
            for _ in range(3):
                chan.recv()
            return time.perf_counter() - t0

        _, elapsed = _both(sender, receiver, (server, client))
        assert elapsed >= 0.05  # 3 x 20 ms serialized on one link
