"""Process executor: cross-executor determinism, fault isolation.

The contract under test (docs/PROTOCOLS.md §13): ``executor`` is a local
knob like ``workers`` — sequential, thread-pool and process-pool
execution must produce byte-identical shares and identical per-stream
transcript totals, over in-memory channels and TCP, traced and untraced.
A worker process dying mid-round must fail that round cleanly with
``ProtocolError`` and leave no orphaned processes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.triplets import TripletConfig
from repro.crypto.hash_ro import siphash_ro
from repro.errors import ChannelError, ConfigError, ProtocolError
from repro.exec import (
    ShardPlan,
    ShmBundle,
    parallel_triplets_client,
    parallel_triplets_server,
    run_evaluator_sharded,
    run_garbler_sharded,
    run_in_process,
    run_sharded,
)
from repro.gc.builder import relu_template
from repro.net.channel import make_channel_pair
from repro.net.mux import ChannelMux
from repro.perf.trace import Tracer
from repro.quant.fragments import FragmentScheme
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.ring import Ring

from tests.test_exec_parallel import _both, _no_thread_leak, _tcp_pair


def _children_alive():
    return [p for p in multiprocessing.active_children() if p.is_alive()]


class _no_process_leak:
    """Assert the with-block leaves no live child processes behind."""

    def __enter__(self):
        self._before = set(id(p) for p in _children_alive())
        return self

    def __exit__(self, exc_type, *exc):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = [p for p in _children_alive() if id(p) not in self._before]
            if not leaked:
                return False
            time.sleep(0.05)
        raise AssertionError(f"leaked processes: {[p.name for p in leaked]}")


def _triplet_config(test_group, ro=siphash_ro, m=12, n=10, o=4):
    return TripletConfig(
        ring=Ring(16), scheme=FragmentScheme.from_bits((2, 2)),
        m=m, n=n, o=o, group=test_group, ro=ro,
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


# --------------------------------------------------------------------- #
# cross-executor determinism matrix
# --------------------------------------------------------------------- #
class TestCrossExecutorDeterminism:
    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_matrix_triplets(self, test_group, transport, trace):
        """sequential / thread / process: identical shares + transcripts."""
        config = _triplet_config(test_group, m=8, n=6, o=2)
        w, r = _triplet_inputs(config)
        cases = {
            "sequential": ShardPlan(shards=3, workers=1, chunk_ots=64),
            "thread": ShardPlan(shards=3, workers=3, chunk_ots=64),
            "process": ShardPlan(
                shards=3, workers=3, chunk_ots=64, executor="process"
            ),
        }
        results = {}
        for name, plan in cases.items():
            if transport == "tcp":
                channels = _tcp_pair()
            else:
                channels = make_channel_pair(timeout_s=60.0)
            try:
                with _no_thread_leak(), _no_process_leak():
                    results[name] = _run_parallel(
                        config, w, r, plan, channels, trace=trace
                    )
            finally:
                if transport == "tcp":
                    for chan in channels:
                        chan.close()
        u0, v0, stats0 = results["sequential"]
        expected = config.ring.matmul(config.ring.reduce(w), r)
        assert (config.ring.add(u0, v0) == expected).all()
        for name in ("thread", "process"):
            u, v, stats = results[name]
            assert (u == u0).all() and (v == v0).all(), name
            for side in ("server", "client"):
                assert (
                    stats[side]["stream_totals"] == stats0[side]["stream_totals"]
                ), (name, side)
        assert results["process"][2]["server"]["executor"] == "process"

    def test_traced_shard_spans_match_thread_executor(self, test_group):
        """Process-mode children ship their span trees back to the parent."""
        config = _triplet_config(test_group, m=8, n=6, o=2)
        w, r = _triplet_inputs(config)

        def shard_io(executor):
            channels = make_channel_pair(timeout_s=60.0)
            plan = ShardPlan(shards=2, workers=2, chunk_ots=64, executor=executor)
            _run_parallel(config, w, r, plan, channels, trace=True)
            root = channels[0].tracer.root
            engine = next(s for s in root.children if s.name == "parallel-offline")
            assert engine.attrs["executor"] == executor
            return {
                s.name: (s.totals()["sent_bytes"], s.totals()["recv_bytes"])
                for s in engine.children if s.name.startswith("shard")
            }

        io_thread = shard_io("thread")
        io_process = shard_io("process")
        assert io_thread == io_process
        assert set(io_thread) == {"shard0", "shard1"}

    def test_mixed_executors_across_parties(self, test_group):
        """Executor kind is local: thread server vs process client agrees."""
        config = _triplet_config(test_group, m=6, n=5, o=2)
        w, r = _triplet_inputs(config)
        base = ShardPlan(shards=2, workers=2, chunk_ots=64)
        stats = {"server": {}, "client": {}}
        u, v = _both(
            lambda chan: parallel_triplets_server(
                chan, w, config, base, seed=21, stats_out=stats["server"]
            ),
            lambda chan: parallel_triplets_client(
                chan, r, config,
                ShardPlan(shards=2, workers=2, chunk_ots=64, executor="process"),
                seed=22, stats_out=stats["client"],
            ),
            make_channel_pair(timeout_s=60.0),
        )
        expected = config.ring.matmul(config.ring.reduce(w), r)
        assert (config.ring.add(u, v) == expected).all()

    def test_gc_process_executor_matches(self, test_group, rng):
        ring = Ring(16)
        circ = relu_template(16)
        n = 13  # not divisible by shards: uneven instance blocks
        y, y1, z1 = ring.sample(rng, n), ring.sample(rng, n), ring.sample(rng, n)
        y0 = ring.sub(y, y1)
        g_bits = np.concatenate(
            [int_to_bits(y1, 16), int_to_bits(z1, 16)], axis=1
        ).T.copy()
        e_bits = int_to_bits(y0, 16).T.copy()

        outs = {}
        for executor in ("thread", "process"):
            plan = ShardPlan(shards=3, workers=3, executor=executor)
            with _no_thread_leak(), _no_process_leak():
                _, outs[executor] = _both(
                    lambda chan: run_garbler_sharded(
                        chan, circ, g_bits, n, plan, seed=31, group=test_group
                    ),
                    lambda chan: run_evaluator_sharded(
                        chan, circ, e_bits, n, plan, seed=32, group=test_group
                    ),
                    tuple(reversed(make_channel_pair(timeout_s=60.0))),
                )
        got = ring.reduce(bits_to_int(outs["thread"].T))
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (got == ring.sub(relu, z1)).all()
        assert (outs["thread"] == outs["process"]).all()

    def test_executor_validated(self):
        with pytest.raises(ConfigError, match="executor"):
            ShardPlan(executor="gpu")


# --------------------------------------------------------------------- #
# fault injection: dead worker processes
# --------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_killed_worker_fails_cleanly_no_orphans(self, test_group):
        """SIGKILL one shard's worker: ProtocolError, no orphan processes."""
        config = _triplet_config(test_group, m=10, n=8, o=2)
        w, r = _triplet_inputs(config)
        plan = ShardPlan(shards=3, workers=3, chunk_ots=32, executor="process")
        errors = {}

        def killer():
            # Kill the first abnn2 shard worker that appears.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                victims = [
                    p for p in multiprocessing.active_children()
                    if p.name.startswith("abnn2-shard") and p.pid
                ]
                if victims:
                    os.kill(victims[0].pid, signal.SIGKILL)
                    return
                time.sleep(0.005)

        def server(chan):
            try:
                parallel_triplets_server(chan, w, config, plan, seed=21)
            except BaseException as exc:  # noqa: BLE001
                errors["server"] = exc

        def client(chan):
            try:
                parallel_triplets_client(chan, r, config, plan, seed=22)
            except BaseException as exc:  # noqa: BLE001
                errors["client"] = exc

        with _no_thread_leak(), _no_process_leak():
            channels = make_channel_pair(timeout_s=8.0)
            threads = [
                threading.Thread(target=server, args=(channels[0],), daemon=True),
                threading.Thread(target=client, args=(channels[1],), daemon=True),
                threading.Thread(target=killer, daemon=True),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=90.0)
            assert not any(t.is_alive() for t in threads), "party thread hung"
        # Both parties fail: the killed side with ProtocolError naming the
        # shard, the peer with a protocol/channel failure (its streams die).
        assert errors, "no party observed the kill"
        kinds = {type(e) for e in errors.values()}
        assert kinds <= {ProtocolError, ChannelError}, errors
        assert any(
            isinstance(e, ProtocolError) and "worker process died" in str(e)
            for e in errors.values()
        ), errors

    def test_worker_exception_reraised_as_protocol_error(self):
        def boom(chan, payload):
            raise ValueError(f"bad payload {payload}")

        with _no_process_leak(), pytest.raises(
            ProtocolError, match="ValueError: bad payload 7"
        ):
            run_in_process(boom, 7)


# --------------------------------------------------------------------- #
# pool cancellation semantics (satellite)
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
# shared-memory shipping
# --------------------------------------------------------------------- #
class TestShmBundle:
    def test_roundtrip_through_child(self):
        arrays = {
            "a": np.arange(17, dtype=np.uint64),
            "b": np.random.default_rng(0).random((3, 5)),
        }
        bundle = ShmBundle.create(arrays)
        try:
            got = run_in_process(_read_bundle_worker, bundle.handle())
        finally:
            bundle.close()
            bundle.unlink()
        assert np.array_equal(got["a"], arrays["a"])
        assert np.array_equal(got["b"], arrays["b"])

    def test_inline_fallback(self, monkeypatch):
        monkeypatch.setenv("ABNN2_SHM", "0")
        bundle = ShmBundle.create({"x": np.ones(4, dtype=np.uint64)})
        assert bundle.handle()["kind"] == "inline"
        opened = ShmBundle.open(bundle.handle())
        assert np.array_equal(opened.arrays["x"], np.ones(4, dtype=np.uint64))
        bundle.close()
        bundle.unlink()


def _read_bundle_worker(chan, handle):
    """Child job for the shm round-trip test (module-level: pickle)."""
    bundle = ShmBundle.open(handle)
    try:
        return {k: np.array(v) for k, v in bundle.arrays.items()}
    finally:
        bundle.close()


# --------------------------------------------------------------------- #
# bank process executor
# --------------------------------------------------------------------- #
class TestBankProcessExecutor:
    @pytest.fixture(scope="class")
    def qmodel(self):
        from repro.nn.model import mnist_mlp
        from repro.nn.quantize import quantize_model

        model = mnist_mlp(seed=7, hidden=4, input_dim=16)
        return quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)

    def test_rounds_identical_and_metrics_surface_executor(self, qmodel):
        from repro.serve import TripletBank

        banks = {}
        for executor in ("thread", "process"):
            with _no_process_leak():
                bank = TripletBank(
                    qmodel, 1, capacity=2, auto_replenish=False,
                    seed=77, workers=2, executor=executor,
                )
                bank.fill(2)
            banks[executor] = bank
        for _ in range(2):
            rt = banks["thread"].take()
            rp = banks["process"].take()
            assert all(
                np.array_equal(a, b)
                for a, b in zip(rt.server_us, rp.server_us)
            )
        metrics = banks["process"].metrics()
        assert metrics["executor"] == "process"
        assert metrics["workers"] == 2
        assert metrics["last_generation_s"] > 0.0

    def test_executor_validated(self, qmodel):
        from repro.serve import TripletBank

        with pytest.raises(ConfigError, match="executor"):
            TripletBank(qmodel, 1, executor="gpu")
