#!/usr/bin/env python
"""Serving-path benchmark: cross-session batching at 100 concurrent clients.

Fires one wave of N concurrent prediction clients (one session, one
bank-mode round each) at a :class:`repro.serve.server.PredictionServer`
and measures fleet throughput (sessions/sec over the wave) and
per-client latency (connect -> logits -> close) with and without the
:class:`repro.serve.scheduler.BatchScheduler`.

**The gate compares shipped configurations, not abstract mechanisms**:

* ``tcp_shaped/unbatched_bounded`` — the server exactly as the CLI
  starts it today: no scheduler, ``max_sessions=4``.  Admission is
  bounded because unbatched sessions are mutually independent full
  protocol runs; the bound is the server's only protection against a
  connection storm.  This row is the gate baseline.
* ``tcp_shaped/batched_wide`` — the batching configuration this bench
  gates: scheduler on (50 ms window, width cap 16) and wide admission
  (``max_sessions=N``), which batching is what makes safe — concurrent
  granted rounds coalesce into a few wide online rounds instead of N
  independent ones.  Floors: sessions/sec >= SPEEDUP_FLOOR x the
  bounded baseline **and** p95 latency <= the baseline's p95.
* ``tcp_shaped/unbatched_wide`` — honesty row: wide admission *without*
  batching.  On independent per-client links it overlaps the same wire
  time, so most of the wall-clock win over the baseline comes from
  admission, not the wide math; this row keeps that decomposition in
  the JSON so the gated speedup cannot be misread as pure batching
  magic.  What batching adds over this row is server-side: one wide
  linear pass and one scheduler drain instead of N interleaved rounds.

The gated rows run a **linear model** (one Dense layer, no GC), because
garbled ReLU is per-client by protocol (the client garbles) and would
dilute the linear-layer batching under measurement.  Two ungated
``memory/mlp_*`` context rows run the MLP used by the serve tests so the
GC-bound shape is still on record.

The link is calibrated from a dry unshaped run: bandwidth is sized so
per-session transfer time is ``B_FRAC * C_dry`` and RTT so per-session
propagation is
``R_FRAC * C_dry`` — with ``R_FRAC >> 1`` and an absolute RTT floor of
``MIN_RTT_S``, the regime is latency-dominated WAN and the gate
measures scheduling, not the runner's CPU.  Each client gets its own
:class:`~repro.net.netsim.LinkShaper` (its own WAN link to the server),
keyed by the server-assigned channel session id, which both endpoints
agree on after the TCP handshake.

Emits ``BENCH_serve.json`` and exits non-zero if a floor is violated or
any client's logits disagree with the plaintext reference (the CI
smoke runs ``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full (N=100)
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke (N=16)
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.protocol import ModelMeta
from repro.crypto.group import MODP_TEST
from repro.net.channel import make_channel_pair
from repro.net.netsim import LinkShaper, NetworkModel, ShapedChannel
from repro.nn.layers import Dense
from repro.nn.model import Sequential, mnist_mlp
from repro.nn.quantize import quantize_model
from repro.quant.fixed_point import FixedPointEncoder
from repro.quant.fragments import FragmentScheme
from repro.serve import (
    BatchScheduler,
    ClientSession,
    PredictionClient,
    PredictionServer,
    ServerSession,
    TripletBank,
)
from repro.utils.ring import Ring

#: Regression floors on wave throughput, batched_wide vs the production
#: default (unbatched, max_sessions=4).  The quick wave is only one
#: batch window deep, so the fixed window/ramp overheads weigh
#: proportionally more and it gates at a reduced floor.
SPEEDUP_FLOOR = 3.0
QUICK_SPEEDUP_FLOOR = 1.5

N_CLIENTS = 100
QUICK_N_CLIENTS = 16

#: Scheduler configuration under test.
WINDOW_MS = 50.0
BATCH_MAX = 16

#: Link calibration, as fractions of the dry per-session wall C_dry:
#: per-session transfer B = B_FRAC * C_dry, per-session propagation
#: R = R_FRAC * C_dry (rtt = 2 * R / n_messages).  MIN_RTT_S keeps the
#: link latency-dominated even on fast CPUs where C_dry underestimates
#: a useful WAN RTT; with ~9 messages/session it prices a session at
#: ~90 ms of propagation, inside the paper's WAN settings.
B_FRAC = 0.5
R_FRAC = 8.0
MIN_RTT_S = 0.020

#: Client connect stagger: identical across rows, small next to one
#: shaped session, just enough to keep 100 simultaneous connect(2)
#: calls from contending on one accept loop artificially.
RAMP_S = 0.0005

SEED = 20260808
BANK_SEED = 11
TIMEOUT_S = 120.0
GROUP = MODP_TEST


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def make_models():
    """(linear, mlp) quantized models: gated rows are GC-free by design."""
    scheme = FragmentScheme.ternary()
    ring = Ring(32)
    linear = quantize_model(
        Sequential([Dense(256, 10, seed=5)]), scheme, ring, frac_bits=6
    )
    mlp = quantize_model(
        mnist_mlp(seed=7, hidden=4, input_dim=16), scheme, ring, frac_bits=6
    )
    return linear, mlp


def make_inputs(qmodel, n: int):
    """Per-client inputs plus plaintext reference logits."""
    in_features = qmodel.layers[0].w_int.shape[1]
    xs, refs = [], []
    for i in range(n):
        rng = np.random.default_rng(SEED + i)
        x = rng.normal(scale=0.25, size=(1, in_features))
        xs.append(x)
        refs.append(qmodel.forward_int(qmodel.encoder.encode(x.T)))
    return xs, refs


def fresh_bank(qmodel, bank_path: str, n_rounds: int) -> TripletBank:
    """A bank holding exactly ``n_rounds`` persisted rounds, regeneration-free."""
    bank = TripletBank(
        qmodel, 1, group=GROUP, seed=BANK_SEED,
        auto_replenish=False, capacity=n_rounds,
    )
    loaded = bank.load(bank_path)
    if loaded != n_rounds:
        raise RuntimeError(f"bank reload: expected {n_rounds} rounds, got {loaded}")
    return bank


def prepare_bank_file(qmodel, n_rounds: int, tmpdir: str, name: str) -> str:
    bank = TripletBank(
        qmodel, 1, group=GROUP, seed=BANK_SEED,
        auto_replenish=False, capacity=n_rounds,
    )
    t0 = time.perf_counter()
    bank.fill(n_rounds)
    path = os.path.join(tmpdir, f"{name}.bank")
    bank.save(path)
    print(
        f"banked {n_rounds} offline rounds for {name} "
        f"in {time.perf_counter() - t0:.1f}s"
    )
    return path


# --------------------------------------------------------------------- #
# wave runners
# --------------------------------------------------------------------- #
def _percentile_ms(latencies, frac: float) -> float:
    xs = sorted(latencies)
    idx = max(0, int(len(xs) * frac + 0.5) - 1)
    return xs[idx] * 1000.0


def _wave(n: int, session_fn):
    """Run ``session_fn(i)`` on n ramped threads; wall + per-client latency."""
    latencies = [0.0] * n
    errors: list[BaseException] = []

    def worker(i: int) -> None:
        time.sleep(i * RAMP_S)
        t0 = time.perf_counter()
        try:
            session_fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced as a gate failure
            errors.append(exc)
        latencies[i] = time.perf_counter() - t0

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"bench-client-{i}", daemon=True)
        for i in range(n)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=TIMEOUT_S)
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads):
        raise TimeoutError("benchmark client did not finish")
    return wall, latencies


def run_tcp_row(
    qmodel, meta, bank_path, xs, refs, *,
    n: int, max_sessions: int, batched: bool, link: NetworkModel, label: str,
):
    """One wave against a real PredictionServer over per-client shaped links."""
    shapers: dict[int, LinkShaper] = {}
    shapers_lock = threading.Lock()

    def shaper_for(session_id: int) -> LinkShaper:
        with shapers_lock:
            shaper = shapers.get(session_id)
            if shaper is None:
                shaper = shapers[session_id] = LinkShaper(link)
            return shaper

    def wrap_server(chan):
        return ShapedChannel(chan, shaper_for(chan.session_id), direction=0)

    def wrap_client(chan):
        # By wrap time tcp.connect has adopted the server-assigned session
        # id, so both endpoints resolve the same per-client link.
        return ShapedChannel(chan, shaper_for(chan.session_id), direction=1)

    bank = fresh_bank(qmodel, bank_path, n)
    srv = PredictionServer(
        qmodel, bank, port=0,
        max_sessions=max_sessions,
        backlog=n + 8,
        session_timeout_s=TIMEOUT_S,
        group=GROUP,
        channel_wrap=wrap_server,
        batch_window_ms=WINDOW_MS if batched else None,
        batch_max=BATCH_MAX,
        max_queued=n + 8,
    )

    def one_session(i: int) -> None:
        client = PredictionClient(
            meta, 1, port=srv.port, timeout_s=TIMEOUT_S, group=GROUP,
            seed=SEED + 5000 + i, channel_wrap=wrap_client,
        )
        try:
            logits, _labels = client.predict(xs[i])
        finally:
            client.close()
        if not (logits == refs[i]).all():
            raise RuntimeError(f"client {i} logits disagree with plaintext reference")

    try:
        with srv:
            wall, latencies = _wave(n, one_session)
            metrics = srv.metrics()
    finally:
        bank.stop()
    if metrics["sessions_served"] != n or metrics["sessions_failed"]:
        raise RuntimeError(
            f"{label}: served {metrics['sessions_served']}/{n}, "
            f"failed {metrics['sessions_failed']}"
        )
    return _row(label, "tcp_shaped", n, max_sessions, batched, wall, latencies,
                metrics["scheduler"])


def run_memory_row(qmodel, meta, bank_path, xs, refs, *, n: int, batched: bool,
                   label: str):
    """One wave of in-memory sessions (no link): pure server-side cost."""
    bank = fresh_bank(qmodel, bank_path, n)
    scheduler = (
        BatchScheduler(bank, window_ms=WINDOW_MS, batch_max=BATCH_MAX,
                       max_queued=n + 8)
        if batched else None
    )
    server_threads: list[threading.Thread] = []
    server_errors: list[BaseException] = []
    enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)

    def one_session(i: int) -> None:
        server_chan, client_chan = make_channel_pair(timeout_s=TIMEOUT_S)

        def serve() -> None:
            try:
                ServerSession(
                    server_chan, qmodel, bank, session_id=i + 1,
                    group=GROUP, scheduler=scheduler,
                ).run()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                server_errors.append(exc)

        thread = threading.Thread(target=serve, name=f"bench-serve-{i}", daemon=True)
        server_threads.append(thread)
        thread.start()
        session = ClientSession(client_chan, meta, 1, group=GROUP, seed=SEED + i)
        try:
            logits = session.predict_encoded(enc.encode(xs[i].T))
        finally:
            session.close()
        if not (logits == refs[i]).all():
            raise RuntimeError(f"client {i} logits disagree with plaintext reference")

    try:
        wall, latencies = _wave(n, one_session)
    finally:
        if scheduler is not None:
            scheduler.stop()
        bank.stop()
    for thread in server_threads:
        thread.join(timeout=TIMEOUT_S)
    if server_errors:
        raise server_errors[0]
    return _row(label, "memory", n, n, batched, wall, latencies,
                scheduler.metrics() if scheduler is not None else None)


def _row(label, transport, n, max_sessions, batched, wall, latencies, sched_metrics):
    row = {
        "label": label,
        "transport": transport,
        "n_clients": n,
        "max_sessions": max_sessions,
        "batched": batched,
        "wall_s": round(wall, 3),
        "sessions_per_s": round(n / wall, 2),
        "p50_ms": round(_percentile_ms(latencies, 0.50), 1),
        "p95_ms": round(_percentile_ms(latencies, 0.95), 1),
        "scheduler": None,
    }
    if sched_metrics is not None:
        row["scheduler"] = {
            key: sched_metrics[key]
            for key in (
                "batched", "batched_rounds", "batch_width_max",
                "batch_width_mean", "p95_wait_ms", "denied_queue_depth",
                "denied_bank_depth", "denied_exhausted",
            )
        }
    print(
        f"{label}: wall {row['wall_s']}s, {row['sessions_per_s']} sessions/s, "
        f"p50 {row['p50_ms']}ms, p95 {row['p95_ms']}ms"
        + (
            f", width max {row['scheduler']['batch_width_max']} "
            f"mean {row['scheduler']['batch_width_mean']}"
            if row["scheduler"] else ""
        )
    )
    return row


# --------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------- #
def calibrate(qmodel, meta, bank_path, xs, n_banked: int):
    """Dry unshaped sessions -> link sized against this CPU (see module doc)."""
    n_dry = 8
    bank = fresh_bank(qmodel, bank_path, n_banked)
    enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)
    walls, payload_bytes, messages = [], 0, 0
    try:
        for i in range(n_dry):
            server_chan, client_chan = make_channel_pair(timeout_s=TIMEOUT_S)
            thread = threading.Thread(
                target=ServerSession(
                    server_chan, qmodel, bank, session_id=i + 1, group=GROUP
                ).run,
                daemon=True,
            )
            thread.start()
            t0 = time.perf_counter()
            session = ClientSession(client_chan, meta, 1, group=GROUP, seed=SEED + i)
            session.predict_encoded(enc.encode(xs[i % len(xs)].T))
            session.close()
            walls.append(time.perf_counter() - t0)
            thread.join(timeout=TIMEOUT_S)
            snap = server_chan.stats.snapshot()
            payload_bytes, messages = snap.total_bytes, snap.total_messages
    finally:
        bank.stop()
    # First session pays interpreter warm-up; calibrate on the rest.
    dry_wall = statistics.median(walls[1:])
    rtt = max(MIN_RTT_S, 2.0 * R_FRAC * dry_wall / messages)
    bandwidth = payload_bytes / (B_FRAC * dry_wall)
    model = NetworkModel(
        "serve-calibrated", bandwidth_bytes_per_s=bandwidth, rtt_s=rtt
    )
    calibration = {
        "dry_session_wall_s": round(dry_wall, 5),
        "session_payload_bytes": payload_bytes,
        "session_messages": messages,
        "b_frac": B_FRAC,
        "r_frac": R_FRAC,
        "min_rtt_s": MIN_RTT_S,
    }
    return model, calibration


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI wave")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_serve.json"), help="JSON output path"
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="write JSON but skip the floor gate"
    )
    args = parser.parse_args()

    n = QUICK_N_CLIENTS if args.quick else N_CLIENTS
    floor = QUICK_SPEEDUP_FLOOR if args.quick else SPEEDUP_FLOOR
    n_mlp = min(n, BATCH_MAX)

    linear, mlp = make_models()
    linear_meta = ModelMeta.from_model(linear)
    mlp_meta = ModelMeta.from_model(mlp)
    xs, refs = make_inputs(linear, n)
    mlp_xs, mlp_refs = make_inputs(mlp, n_mlp)
    print(
        f"wave: {n} concurrent clients, window {WINDOW_MS}ms, "
        f"batch_max {BATCH_MAX}, ramp {RAMP_S * 1e3}ms/client"
    )

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmpdir:
        linear_bank = prepare_bank_file(linear, n, tmpdir, "linear")
        mlp_bank = prepare_bank_file(mlp, n_mlp, tmpdir, "mlp")
        link, calibration = calibrate(linear, linear_meta, linear_bank, xs, n)
        print(
            f"calibrated link: {link.bandwidth_bytes_per_s / 1e6:.2f} MB/s, "
            f"rtt {link.rtt_s * 1e3:.1f} ms "
            f"(dry session {calibration['dry_session_wall_s'] * 1e3:.2f}ms, "
            f"{calibration['session_payload_bytes']} B, "
            f"{calibration['session_messages']} msgs)"
        )

        rows = [
            run_memory_row(
                linear, linear_meta, linear_bank, xs, refs,
                n=n, batched=False, label="memory/unbatched",
            ),
            run_memory_row(
                linear, linear_meta, linear_bank, xs, refs,
                n=n, batched=True, label="memory/batched",
            ),
            run_tcp_row(
                linear, linear_meta, linear_bank, xs, refs,
                n=n, max_sessions=4, batched=False, link=link,
                label="tcp_shaped/unbatched_bounded",
            ),
            run_tcp_row(
                linear, linear_meta, linear_bank, xs, refs,
                n=n, max_sessions=n, batched=False, link=link,
                label="tcp_shaped/unbatched_wide",
            ),
            run_tcp_row(
                linear, linear_meta, linear_bank, xs, refs,
                n=n, max_sessions=n, batched=True, link=link,
                label="tcp_shaped/batched_wide",
            ),
            run_memory_row(
                mlp, mlp_meta, mlp_bank, mlp_xs, mlp_refs,
                n=n_mlp, batched=False, label="memory/mlp_unbatched",
            ),
            run_memory_row(
                mlp, mlp_meta, mlp_bank, mlp_xs, mlp_refs,
                n=n_mlp, batched=True, label="memory/mlp_batched",
            ),
        ]

    by_label = {row["label"]: row for row in rows}
    baseline = by_label["tcp_shaped/unbatched_bounded"]
    gated = by_label["tcp_shaped/batched_wide"]
    speedup = round(gated["sessions_per_s"] / baseline["sessions_per_s"], 2)
    result = {
        "bench": "serve",
        "quick": args.quick,
        "workload": {
            "gated_model": "Dense(256,10) ternary Ring(32) frac_bits=6",
            "context_model": "mnist_mlp(hidden=4, input_dim=16)",
            "n_clients": n,
            "window_ms": WINDOW_MS,
            "batch_max": BATCH_MAX,
            "ramp_s": RAMP_S,
            "seed": SEED,
        },
        "link": {
            "bandwidth_bytes_per_s": round(link.bandwidth_bytes_per_s, 1),
            "rtt_s": round(link.rtt_s, 6),
            "calibration": calibration,
        },
        "rows": rows,
        "speedup": speedup,
        "p95_ms": {
            "unbatched_bounded": baseline["p95_ms"],
            "batched_wide": gated["p95_ms"],
        },
        "floors": {
            "speedup": floor,
            "p95_not_worse_than_baseline": True,
            "min_batch_width": 2,
        },
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.no_assert:
        return 0
    failures = []
    if speedup < floor:
        failures.append(
            f"batched sessions/sec {gated['sessions_per_s']} is only {speedup}x "
            f"the bounded baseline {baseline['sessions_per_s']} (floor {floor}x)"
        )
    if gated["p95_ms"] > baseline["p95_ms"]:
        failures.append(
            f"batched p95 {gated['p95_ms']}ms exceeds the bounded baseline's "
            f"{baseline['p95_ms']}ms"
        )
    sched = gated["scheduler"]
    if sched["batch_width_max"] < 2:
        failures.append("gated row never actually batched (max width < 2)")
    denied = (
        sched["denied_queue_depth"] + sched["denied_bank_depth"]
        + sched["denied_exhausted"]
    )
    if denied:
        failures.append(f"gated row denied {denied} sessions")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
