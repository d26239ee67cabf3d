"""Per-layer probes: direct timed calls into each layer's public
functions, at shapes lifted from the workloads.

Run only in the traced pass.  Every call into the program goes through
``adapters``; this file holds the shapes and the timing.  Sessions use
the library's default group, so each one pays the real base-OT
handshake.  With ``smoke=True`` the shapes shrink (and ``--smoke`` has
swapped the group); the metric names stay the same and the numbers are
not kept.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

import adapters as api
from ledger import ProbeChannel, find_spans
from summary import median

now = time.perf_counter
RING = api.Ring(api.RING_BITS)
FIG4_SCHEME = api.FragmentScheme.from_bits((2, 2, 2, 2))
MIB = 1 << 20


def _timed(fn, repeats: int = 3) -> float:
    """Median wall seconds of ``fn()``."""
    samples = []
    for _ in range(repeats):
        started = now()
        fn()
        samples.append(now() - started)
    return median(samples)


def _synced(chan, party: int) -> None:
    """Barrier between probe steps so one step's tail cannot overlap the next."""
    if party == 0:
        chan.send(b"k")
    else:
        chan.recv()


# --------------------------------------------------------------------- #
# net
# --------------------------------------------------------------------- #
def _link_probe(channels, pings: int, mib: int) -> tuple[float, float]:
    """``(round-trip seconds, MiB/s one way)`` over a connected pair."""
    words = mib * MIB // 8

    def server_fn(chan):
        for _ in range(pings):
            chan.send(chan.recv())
        if mib:
            chan.recv()
            chan.send(b"k")

    def client_fn(chan):
        ping = b"\0" * 8
        started = now()
        for _ in range(pings):
            chan.send(ping)
            chan.recv()
        round_trip = (now() - started) / pings
        if not mib:
            return round_trip, 0.0
        blob = np.zeros(words, dtype=np.uint64)
        started = now()
        chan.send(blob)
        chan.recv()
        return round_trip, mib / (now() - started)

    return api.run_protocol(server_fn, client_fn, channels=channels).client


def _tcp_pair():
    """``(connect seconds, (server_chan, client_chan))`` on loopback."""
    listener = api.Listener(0)
    box = {}
    thread = threading.Thread(target=lambda: box.update(chan=listener.accept(30.0)))
    thread.start()
    started = now()
    client = api.connect("127.0.0.1", listener.port)
    connect_s = now() - started
    thread.join()
    listener.close()
    return connect_s, (box["chan"], client)


def net_probes(smoke: bool) -> dict:
    pings, mib = (50, 1) if smoke else (2000, 16)
    out = {}
    round_trip, rate = _link_probe(None, pings, mib)
    out["net.channel.roundtrip_us"] = round_trip * 1e6
    out["net.channel.MBps"] = rate
    connects = []
    for attempt in range(5):
        connect_s, pair = _tcp_pair()
        connects.append(connect_s)
        if attempt == 0:
            round_trip, rate = _link_probe(pair, pings, mib)
            out["net.tcp.MBps"] = rate
        for chan in pair:
            chan.close()
    out["net.tcp.connect_ms"] = median(connects) * 1e3
    server, client = api.make_channel_pair()
    muxed = (api.ChannelMux(server).stream(1), api.ChannelMux(client).stream(1))
    out["net.mux.roundtrip_us"] = _link_probe(muxed, pings, 0)[0] * 1e6
    return out


# --------------------------------------------------------------------- #
# crypto
# --------------------------------------------------------------------- #
def _ot_rates(make_server, make_client, steps) -> tuple[float, dict]:
    """Session set-up seconds and per-step OTs/s of one OT-extension session.

    ``make_*`` construct a party on a channel; each step is
    ``(key, m, server_call, client_call)``.  The first, tiny step pays the
    base-OT handshake; rates use the slower party's wall time.
    """

    def party(chan, make, index):
        walls = {}
        started = now()
        session = make(chan)
        steps[0][2 + index](session)
        walls["session"] = now() - started
        for step in steps[1:]:
            _synced(chan, chan.party)
            started = now()
            step[2 + index](session)
            walls[step[0]] = now() - started
        return walls

    result = api.run_protocol(
        lambda chan: party(chan, make_server, 0), lambda chan: party(chan, make_client, 1)
    )
    walls = {
        key: max(result.server[key], result.client[key]) for key in result.server
    }
    rates = {step[0]: step[1] / walls[step[0]] for step in steps[1:]}
    return walls["session"], rates


def crypto_probes(smoke: bool) -> dict:
    rng = np.random.default_rng(11)
    m_kk, m_ik, rows = (1 << 10, 1 << 10, 1 << 10) if smoke else (1 << 17, 1 << 16, 1 << 18)
    kw = api.SESSION_KW
    out = {}

    def kk_step(key, m, width):
        choices = rng.integers(0, 4, size=m)
        return (key, m, lambda r: r.pads(choices, width), lambda s: s.pads(m, width))

    # Pad widths of a Ring(32) triplet row at batch 1 and batch 8 (packed words).
    session, rates = _ot_rates(
        lambda chan: api.Kk13Receiver(chan, 4, **kw),
        lambda chan: api.Kk13Sender(chan, 4, **kw),
        [kk_step("warm", 64, 1), kk_step("n4_w1", m_kk, 1), kk_step("n4_w8", m_kk, 4)],
    )
    out["crypto.kk13.session_s"] = session
    out["crypto.kk13.ots_per_s.n4_w1"] = rates["n4_w1"]
    out["crypto.kk13.ots_per_s.n4_w8"] = rates["n4_w8"]

    def ik_step(key, m):
        choices = rng.integers(0, 2, size=m)
        messages = rng.integers(0, 1 << 62, size=(m, 2, 2), dtype=np.uint64)
        return (key, m, lambda r: r.recv_chosen(choices, 2), lambda s: s.send_chosen(messages))

    session, rates = _ot_rates(
        lambda chan: api.OtExtReceiver(chan, **kw),
        lambda chan: api.OtExtSender(chan, **kw),
        [ik_step("warm", 64), ik_step("ots", m_ik)],
    )
    out["crypto.iknp.session_s"] = session
    out["crypto.iknp.ots_per_s"] = rates["ots"]

    # RO expansion at the KK13 pad shape: 5-word rows -> 4 output words.
    hash_rows = rng.integers(0, 1 << 62, size=(rows, 5), dtype=np.uint64)
    out_mib = rows * 4 * 8 / MIB
    out["crypto.hash_ro.MBps"] = out_mib / _timed(lambda: api.default_ro.mask(hash_rows, 4))
    out["crypto.fastro.kernel_active"] = float(api.kernel_active())
    out["crypto.fastro.MBps"] = out_mib / _timed(lambda: api.fast_ro.mask(hash_rows, 4))
    seeds = [bytes(rng.integers(0, 256, size=16, dtype=np.uint8)) for _ in range(256)]
    bits = m_kk
    out["crypto.prg.MBps"] = (256 * bits / 8 / MIB) / _timed(
        lambda: api.BatchPrg(seeds).packed_bits(bits)
    )
    return out


# --------------------------------------------------------------------- #
# gc + core.relu: the ReLU layer on a warm session, read through its spans
# --------------------------------------------------------------------- #
def relu_probes(smoke: bool) -> dict:
    sizes = {"128": 16, "7200": 48} if smoke else {"128": 128, "7200": 7200}
    rng = np.random.default_rng(12)
    kw = api.SESSION_KW

    def server_fn(chan):
        chan.tracer = tracer = api.Tracer("server")
        sessions = api.GcSessions(chan, "evaluator", **kw)
        for n in (4, *sizes.values()):
            api.relu_layer_server(chan, RING.sample(rng, (n, 1)), sessions, RING)
            _synced(chan, 0)
        return tracer.to_dict()

    def client_fn(chan):
        chan.tracer = tracer = api.Tracer("client")
        own = np.random.default_rng(13)
        sessions = api.GcSessions(chan, "garbler", **kw)
        walls = {}
        # each wall runs to the evaluator's "done", so it covers both parties
        for key, n in (("setup", 4), *sizes.items()):
            started = now()
            api.relu_layer_client(
                chan, RING.sample(own, (n, 1)), RING.sample(own, (n, 1)), sessions, RING, own
            )
            _synced(chan, 1)
            walls[key] = now() - started
        return walls, tracer.to_dict()

    result = api.run_protocol(server_fn, client_fn)
    walls, client_trace = result.client
    garbles = find_spans(client_trace["root"], "garble")[1:]
    evaluates = find_spans(result.server["root"], "evaluate")[1:]
    and_gates = api.relu_template(api.RING_BITS).and_count
    out = {
        "gc.builder.relu_and_gates": float(and_gates),
        "gc.protocol.session_setup_s": walls["setup"],
    }
    for (key, n), garble, evaluate in zip(sizes.items(), garbles, evaluates):
        out[f"gc.garble.and_gates_per_s.i{key}"] = and_gates * n / garble["duration_s"]
        out[f"gc.evaluate.and_gates_per_s.i{key}"] = and_gates * n / evaluate["duration_s"]
        out[f"core.relu.relus_per_s.n{key}"] = n / walls[key]
    tables = api.garble(api.relu_template(api.RING_BITS), 16, rng).tables
    out["gc.garble.table_bytes_per_relu"] = tables.nbytes / 16
    return out


# --------------------------------------------------------------------- #
# core: triplets and the online matmul at the Fig-4 first layer
# --------------------------------------------------------------------- #
def _triplets(m: int, n: int, o: int, plan=None):
    """One triplet generation; ``(wall seconds, payload bytes, w, r, u)``."""
    rng = np.random.default_rng(14)
    config = api.TripletConfig(
        ring=RING, scheme=FIG4_SCHEME, m=m, n=n, o=o, **api.SESSION_KW
    )
    w = rng.integers(-128, 128, size=(m, n))
    r = RING.sample(rng, (n, o))
    if plan is None:
        server_fn = lambda chan: api.generate_triplets_server(chan, w, config, seed=1)  # noqa: E731
        client_fn = lambda chan: api.generate_triplets_client(chan, r, config, rng, seed=2)  # noqa: E731
    else:
        server_fn = lambda chan: api.parallel_triplets_server(chan, w, config, plan, seed=1)  # noqa: E731
        client_fn = lambda chan: api.parallel_triplets_client(chan, r, config, plan, seed=2)  # noqa: E731
    result = api.run_protocol(server_fn, client_fn)
    product = RING.matmul(RING.reduce(w), r)
    if not np.array_equal(RING.add(result.server, result.client), product):
        raise RuntimeError(f"triplet probe ({m}x{n}x{o}) did not reconstruct W @ R")
    return result.wall_time_s, result.total_bytes, w, r, result.server


def core_probes(smoke: bool) -> dict:
    m, n = (8, 16) if smoke else (128, 784)
    out = {}
    for o in (1, 8):
        wall, nbytes, w, r, u = _triplets(m, n, o)
        out[f"core.triplets.fig4_l0_b{o}_s"] = wall
        out[f"core.triplets.fig4_l0_b{o}_bytes"] = float(nbytes)
    # (w, r, u) are the batch-8 ones: the online step and the ring matmul under it
    config = api.TripletConfig(ring=RING, scheme=FIG4_SCHEME, m=m, n=n, o=8, **api.SESSION_KW)
    engine = api.SecureMatmulServer(None, w, config)
    engine.preload(u)
    out["core.matmul.online_s.fig4_l0_b8"] = _timed(lambda: engine.online(r))
    w_ring = RING.reduce(w)
    out["utils.ring.matmul_s.128x784x8"] = _timed(lambda: RING.matmul(w_ring, r))
    # exec/: the same layer at batch 1, sharded in two (the time cap rules
    # out the batch-8, 4-shard shape: every shard pays its own handshake)
    for workers in (1, 2):
        plan = api.ShardPlan(shards=2, workers=workers)
        out[f"exec.triplets.wall_s.w{workers}"] = _triplets(m, n, 1, plan)[0]
    return out


# --------------------------------------------------------------------- #
# nn, utils
# --------------------------------------------------------------------- #
def nn_probes(smoke: bool) -> dict:
    rng = np.random.default_rng(15)
    out = {
        "nn.quantize.quantize_model_s": _timed(
            lambda: api.build_model("fig4_mlp", (2, 2, 2, 2))
        )
    }
    cnn = api.build_model("vgg_cifar", (2, 2), 12 if smoke else 32)
    spec = cnn.layers[1].conv  # conv2: 8 -> 16 channels on the pooled map
    wspec = api.WinogradSpec.from_im2col(spec)
    share = RING.sample(rng, (spec.in_features, 1))
    out["nn.lowering.lower_shares_s.conv2"] = _timed(lambda: api.lower_shares(spec, share))
    out["nn.winograd.lower_tiles_s.conv2"] = _timed(lambda: api.lower_tiles(wspec, share, RING))
    out["nn.winograd.triplet_elements_ratio"] = api.winograd_reduction_ratio(
        spec.out_h, spec.out_w, wspec.n_tiles
    )
    return out


def utils_probes(smoke: bool) -> dict:
    rng = np.random.default_rng(16)
    mib = 1 if smoke else 16
    blob = rng.integers(0, 1 << 62, size=mib * MIB // 8, dtype=np.uint64)
    encoded = api.serialization.encode(blob)
    m = 1 << (10 if smoke else 17)
    packed = rng.integers(0, 1 << 62, size=(256, m // 64), dtype=np.uint64)
    values = RING.sample(rng, (mib * MIB // 8,))
    return {
        "utils.serialization.encode_MBps": mib / _timed(lambda: api.serialization.encode(blob)),
        "utils.serialization.decode_MBps": mib / _timed(lambda: api.serialization.decode(encoded)),
        "utils.bits.transpose_packed_Mbit_per_s": 256 * m / 1e6 / _timed(
            lambda: api.transpose_packed(packed)
        ),
        "utils.bits.pack_ring_words_MBps": mib / _timed(
            lambda: api.pack_ring_words(values, api.RING_BITS)
        ),
    }


# --------------------------------------------------------------------- #
# serve: the dealer, the bank, and one session against an in-process server
# --------------------------------------------------------------------- #
def hello_to_grant_ms(probe: ProbeChannel) -> float:
    """First send (hello) to second receive (the first round's grant)."""
    sends = [t for t, kind, _n in probe.events if kind == "send"]
    recvs = [t for t, kind, _n in probe.events if kind == "recv"]
    return (recvs[1] - sends[0]) * 1e3


def dealer_probes(smoke: bool) -> dict:
    qmodel = api.build_model("tiny_mlp" if smoke else "fig4_mlp", (2, 2, 2, 2))
    out = {
        "serve.dealer.round_s": _timed(
            lambda: api.dealer_offline_round(qmodel, 1, seed=5, **api.SESSION_KW)
        )
    }
    bank = api.TripletBank(
        qmodel, 1, capacity=8, generator="dealer", auto_replenish=False, seed=5,
        **api.SESSION_KW,
    )
    bank.fill(8)
    out["serve.bank.take_ms"] = _timed(bank.take, repeats=8) * 1e3
    return out


def serve_session_probes(smoke: bool) -> dict:
    """The ``serve.*`` session figures on workloads that serve nothing:
    one keep-alive session against a server inside this process."""
    from serving import ServerState, run_session
    from workloads import SMOKE, WORKLOADS, input_rng

    workload = SMOKE["smoke_serve"] if smoke else WORKLOADS["serve_mlp_tcp"]
    qmodel = api.build_model(workload.model, workload.bits, workload.side)
    state = ServerState(qmodel, workload)
    try:
        session = run_session(
            workload, qmodel, api.model_meta(qmodel), state.port,
            input_rng(0, workload, stream=99), wrap=ProbeChannel,
        )
        if session.error is not None:
            raise RuntimeError(f"serve probe session failed: {session.error}")
        served = state.metrics()
    finally:
        state.stop()
    return serve_ledger(served, [session])


def serve_ledger(served: dict, sessions: list) -> dict:
    """``serve.*`` figures from a server's counters and traced sessions."""
    return {
        "serve.bank.take_wait_s": served["bank"]["take_wait_s"],
        "serve.bank.depth_min": float(served["depth_min"]),
        "serve.bank.replenish_s": served["bank"]["replenish_s"],
        "serve.server.sessions_failed": float(served["server"]["sessions_failed"]),
        "serve.session.hello_to_grant_ms": median(
            hello_to_grant_ms(s.probe) for s in sessions
        ),
    }


def run_all(smoke: bool, with_serve_session: bool) -> dict:
    """Every workload-independent probe, by name."""
    out = {}
    groups = [net_probes, crypto_probes, relu_probes, core_probes, nn_probes,
              utils_probes, dealer_probes]
    if with_serve_session:
        groups.append(serve_session_probes)
    for group in groups:
        started = now()
        out.update(group(smoke))
        print(f"[probes] {group.__name__} {now() - started:.1f}s", file=sys.stderr)
    return out
