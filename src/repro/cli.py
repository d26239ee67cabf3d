"""Command-line interface: train, ship, and run secure predictions.

The CLI wires the library into the deployment shape the paper envisions —
a model owner's process and a data owner's process talking over TCP:

    # one-time, model owner
    repro-abnn2 train --out model.npz --scheme "4(2,2)"
    repro-abnn2 meta --model model.npz --out meta.json   # give to clients

    # one long-lived server, many client sessions
    repro-abnn2 serve   --model model.npz --port 9001 --batch 4 \
                        --rounds 8 --bank bank.npz --max-sessions 4
    repro-abnn2 predict --meta meta.json --host 127.0.0.1 --port 9001 --demo 4

    # restart: bank.npz is reloaded, the offline phase is skipped

    # protocol-parameter planning
    repro-abnn2 cost --eta 8 --batch 128

    # observability: render a trace's measured-vs-predicted table
    repro-abnn2 report --trace trace.json
    repro-abnn2 report --demo --save-trace trace.json --check

``train`` uses the synthetic MNIST-like task (the sandbox substitute for
MNIST); ``predict --demo N`` draws N test digits from it.  Arbitrary
inputs come in as ``.npy`` files shaped ``(batch, features)``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.params import enumerate_costs, optimal_scheme, scheme_for
from repro.core.protocol import ModelMeta
from repro.errors import ReproError
from repro.nn.data import synthetic_mnist
from repro.nn.model import mnist_mlp
from repro.nn.persist import load_meta, load_model, save_meta, save_model
from repro.nn.quantize import quantize_model
from repro.nn.train import TrainConfig, train_classifier
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring

MB = 1024 * 1024


def _parse_scheme(text: str):
    if text in TABLE2_SCHEMES:
        return TABLE2_SCHEMES[text]
    return scheme_for(text)


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #
def cmd_train(args) -> int:
    print(f"training on synthetic MNIST ({args.epochs} epochs)...")
    data = synthetic_mnist(n_train=args.samples, n_test=max(200, args.samples // 5))
    model = mnist_mlp(seed=args.seed, hidden=args.hidden)
    train_classifier(
        model, data.train_x, data.train_y, TrainConfig(epochs=args.epochs, seed=args.seed)
    )
    print(f"float accuracy: {model.accuracy(data.test_x, data.test_y):.3f}")

    scheme = _parse_scheme(args.scheme)
    qmodel = quantize_model(model, scheme, Ring(args.ring), frac_bits=args.frac_bits)
    qmodel.check_range(data.test_x)
    print(f"quantized ({scheme.name}) accuracy: {qmodel.accuracy(data.test_x, data.test_y):.3f}")

    save_model(args.out, qmodel)
    print(f"wrote server bundle: {args.out}")
    if args.meta_out:
        save_meta(args.meta_out, ModelMeta.from_model(qmodel))
        print(f"wrote client metadata: {args.meta_out}")
    return 0


def cmd_meta(args) -> int:
    qmodel = load_model(args.model)
    save_meta(args.out, ModelMeta.from_model(qmodel))
    print(f"wrote client metadata: {args.out}")
    return 0


def cmd_serve(args) -> int:
    import os

    from repro.crypto.fastro import kernel_active
    from repro.serve import PredictionServer, TripletBank

    qmodel = load_model(args.model)
    bank = TripletBank(
        qmodel,
        args.batch,
        capacity=max(args.rounds, 1),
        auto_replenish=args.replenish,
        seed=args.seed,
        workers=args.workers,
    )
    if args.bank and os.path.exists(args.bank):
        loaded = bank.load(args.bank)
        print(f"loaded {loaded} banked round(s) from {args.bank} (offline phase skipped)")
    deficit = args.rounds - bank.depth
    if deficit > 0:
        print(f"banking {deficit} offline round(s) (OT triplets, batch={args.batch})...")
        bank.fill(deficit)
        gen_mb = bank.metrics()["generation_payload_bytes"] / MB
        print(f"offline done: {bank.depth} round(s) banked, {gen_mb:.2f} MB of triplet traffic")
        if args.bank:
            bank.save(args.bank)
            print(f"wrote bank bundle: {args.bank}")

    server = PredictionServer(
        qmodel,
        bank,
        ro=bank.ro,
        port=args.port,
        host=args.host,
        max_sessions=args.max_sessions,
        keep_alive=args.keep_alive,
        relu_variant=args.relu,
        session_timeout_s=args.timeout,
        trace_dir=args.trace_dir,
        seed=args.seed,
    )
    print(
        f"listening on {server.host}:{server.port} "
        f"(batch={args.batch}, max_sessions={args.max_sessions}, "
        f"bank depth={bank.depth}, ro_kernel={kernel_active()})..."
    )
    try:
        server.serve_forever(max_total_sessions=args.exit_after)
    except KeyboardInterrupt:
        print("interrupted; draining sessions...")
    finally:
        server.stop()
        if args.bank:
            remaining = bank.save(args.bank)
            print(f"persisted {remaining} unused round(s) to {args.bank}")
    for rec in server.records:
        if rec.error is not None:
            print(f"session {rec.session_id}: FAILED ({rec.error})")
        else:
            print(
                f"session {rec.session_id}: {rec.predictions} prediction(s) "
                f"in {rec.duration_s:.2f}s"
            )
    metrics = server.metrics()
    print(
        f"served {metrics['sessions_served']} session(s), "
        f"{metrics['predictions']} prediction(s).  The predictions belong "
        "to the clients; this side saw only shares."
    )
    if metrics["bank"]["replenish_errors"]:
        print(
            f"replenisher: {metrics['bank']['replenish_errors']} failed "
            f"generation(s), last: {metrics['bank']['last_replenish_error']}"
        )
    return 0


def cmd_predict(args) -> int:
    from repro.serve import PredictionClient

    meta = load_meta(args.meta)
    if args.demo is not None:
        data = synthetic_mnist()
        x = data.test_x[: args.demo]
        truth = data.test_y[: args.demo]
    else:
        x = np.load(args.input)
        truth = None
    if x.ndim != 2 or x.shape[1] != meta.layers[0].in_features:
        print(
            f"error: expected input of shape (batch, {meta.layers[0].in_features})",
            file=sys.stderr,
        )
        return 2

    client = PredictionClient(
        meta,
        x.shape[0],
        host=args.host,
        port=args.port,
        mode=args.mode,
        relu_variant=args.relu,
        timeout_s=args.timeout,
        seed=args.seed,
    )
    try:
        print(f"connected (session {client.session_id}, mode={args.mode})...")
        for _ in range(args.rounds):
            _, predictions = client.predict(x)
            print(f"predictions: {predictions.tolist()}")
            if truth is not None:
                print(f"ground truth: {truth.tolist()}")
        if args.trace_out:
            client.tracer.save(args.trace_out)
            print(f"wrote trace: {args.trace_out}")
    finally:
        client.close()
    return 0


def _demo_trace(args) -> dict:
    """Run a small in-process secure prediction and return its client trace."""
    from repro.core.pipeline import PipelineConfig
    from repro.core.protocol import secure_predict
    from repro.crypto.group import MODP_TEST

    scheme = _parse_scheme(args.scheme)
    backend = getattr(args, "linear_backend", "im2col")
    if backend == "winograd":
        # The MLP demo has no convolution; trace a small conv net so the
        # winograd tile products actually appear in the report.
        from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
        from repro.nn.model import Sequential

        conv_net = Sequential(
            [
                Conv2d(1, 2, 3, stride=1, seed=0),
                ReLU(),
                Flatten(),
                Dense(2 * 6 * 6, 4, seed=1),
            ]
        )
        qmodel = quantize_model(
            conv_net,
            scheme,
            Ring(args.ring),
            input_shape=(1, 8, 8),
            linear_backend="winograd",
        )
    else:
        model = mnist_mlp(seed=0, hidden=args.hidden)
        qmodel = quantize_model(model, scheme, Ring(args.ring))
    rng = np.random.default_rng(0)
    x = rng.random((args.batch, qmodel.layers[0].in_features))
    pipeline = None
    if args.pipeline:
        pipeline = PipelineConfig(
            chunk=args.gc_stream_chunk, window=args.gc_stream_window
        )
    print("running demo secure prediction to produce a trace...", file=sys.stderr)
    report = secure_predict(qmodel, x, group=MODP_TEST, seed=0, pipeline=pipeline)
    return report.client_trace


def cmd_report(args) -> int:
    import json

    from repro.perf import report as perf_report
    from repro.perf.trace import load_trace

    trace = _demo_trace(args) if args.demo else load_trace(args.trace)
    if args.save_trace:
        with open(args.save_trace, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote trace: {args.save_trace}", file=sys.stderr)
    print(perf_report.render_report(trace))
    if args.memory:
        print()
        print(perf_report.render_memory_report(trace))
    if args.check:
        failures = perf_report.check_conformance(trace)
        if failures:
            for failure in failures:
                print(f"conformance FAIL: {failure}", file=sys.stderr)
            return 1
        print("\nconformance: all modeled spans within tolerance")
    return 0


def cmd_cost(args) -> int:
    print(
        f"fragment decompositions for eta={args.eta}, l={args.ring}, batch={args.batch}"
    )
    rows = enumerate_costs(args.eta, ring_bits=args.ring, batch=args.batch)
    print(f"{'scheme':>16} {'gamma':>6} {'max N':>6} {'bits/weight':>12}")
    for row in rows[: args.top]:
        label = "(" + ",".join(str(b) for b in row["bit_widths"]) + ")"
        print(f"{label:>16} {row['gamma']:>6} {row['max_n']:>6} {row['comm_bits']:>12}")
    best = optimal_scheme(args.eta, ring_bits=args.ring, batch=args.batch)
    print(f"\noptimal: {best.name}")
    return 0


# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-abnn2",
        description="ABNN2 secure two-party QNN predictions (DAC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train + quantize a model on synthetic MNIST")
    p.add_argument("--out", required=True, help="server bundle path (.npz)")
    p.add_argument("--meta-out", help="also write client metadata JSON here")
    p.add_argument("--scheme", default="4(2,2)", help="fragment scheme (Table 2 notation)")
    p.add_argument("--ring", type=int, default=32, choices=(16, 32, 64))
    p.add_argument("--frac-bits", type=int, default=6)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("meta", help="extract client metadata from a server bundle")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_meta)

    p = sub.add_parser("serve", help="run the multi-session prediction server")
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument(
        "--rounds", type=int, default=1,
        help="offline rounds to bank before accepting clients",
    )
    p.add_argument(
        "--bank",
        help="bank bundle path (.npz): loaded if present, written after generation",
    )
    p.add_argument(
        "--max-sessions", type=int, default=4,
        help="maximum concurrent client sessions",
    )
    p.add_argument(
        "--keep-alive", action=argparse.BooleanOptionalAction, default=True,
        help="let one session run multiple prediction rounds",
    )
    p.add_argument(
        "--replenish", action="store_true",
        help="regenerate offline rounds in the background as sessions drain the bank",
    )
    p.add_argument(
        "--exit-after", type=int, default=None,
        help="stop after accepting this many sessions (default: serve forever)",
    )
    p.add_argument("--relu", default="oblivious", choices=("oblivious", "optimized"))
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace-dir", help="write one trace JSON per session here")
    p.add_argument(
        "--workers", type=int, default=1,
        help="offline generation workers (round material is worker-count "
        "independent for a fixed --seed)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("predict", help="run the client party over TCP")
    p.add_argument("--meta", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help=".npy of shape (batch, features)")
    group.add_argument("--demo", type=int, help="use N synthetic test digits")
    p.add_argument(
        "--rounds", type=int, default=1,
        help="prediction rounds to run on this session (keep-alive)",
    )
    p.add_argument(
        "--mode", default="bank", choices=("bank", "interactive"),
        help="bank: server deals precomputed material; interactive: joint offline phase",
    )
    p.add_argument("--relu", default="oblivious", choices=("oblivious", "optimized"))
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace-out", help="write this party's trace JSON after the run")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "report", help="measured-vs-predicted table from a protocol trace"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace JSON from --trace-out or Tracer.save()")
    src.add_argument(
        "--demo", action="store_true",
        help="run a small in-process prediction and report its trace",
    )
    p.add_argument("--save-trace", help="also write the trace JSON here")
    p.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every modeled span matches the cost model",
    )
    p.add_argument(
        "--memory", action="store_true",
        help="also print per-layer allocation peaks vs the closed-form "
        "working sets (measured column needs a trace recorded with "
        "ABNN2_TRACE_MEMORY=1)",
    )
    p.add_argument("--scheme", default="4(2,2)", help="demo fragment scheme")
    p.add_argument(
        "--linear-backend", choices=("im2col", "winograd"), default="im2col",
        help="conv lowering for the demo model (winograd traces a small "
        "conv net; the MLP demo has no convolutions)",
    )
    p.add_argument("--ring", type=int, default=32, choices=(16, 32, 64))
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument(
        "--pipeline", action="store_true",
        help="run the demo with the layer-pipelined online phase "
        "(streamed garbling over per-layer mux streams)",
    )
    p.add_argument(
        "--gc-stream-chunk", type=int, default=None,
        help="AND gates per streamed garbled-table block "
        "(bounds peak GC memory; default: whole circuit in one block)",
    )
    p.add_argument(
        "--gc-stream-window", type=int, default=8,
        help="max unacked table chunks in flight on each GC stream",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("cost", help="rank fragment schemes by Table-1 cost")
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--ring", type=int, default=32)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
