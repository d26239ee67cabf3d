#!/usr/bin/env python3
"""Amortized serving: one server, a banked offline phase, many clients.

The paper's cost split (expensive data-independent offline phase, cheap
online phase) pays off when one serving process precomputes offline
rounds ahead of time and many clients draw from that bank.  This demo:

1. trains and quantizes a small model;
2. banks K offline rounds (and persists them to disk);
3. serves 3 sequential reconnecting clients and 2 concurrent clients
   over real TCP sockets from the same process — no restarts;
4. "restarts" the server against the persisted bank and shows the
   offline phase is skipped entirely (no round is regenerated);
5. prints the amortized-throughput arithmetic.

Run:  python examples/amortized_serving.py [--rounds K] [--batch N]

Uses the 256-bit test group so the demo finishes in seconds; see
docs/PROTOCOLS.md §11 for the trusted-dealer caveat of banked serving.
"""

import argparse
import os
import tempfile
import threading
import time

from repro import (
    FragmentScheme,
    Ring,
    TrainConfig,
    mnist_mlp,
    quantize_model,
    synthetic_mnist,
    train_classifier,
)
from repro.core.protocol import ModelMeta
from repro.crypto.group import MODP_TEST
from repro.errors import ProtocolError
from repro.serve import PredictionClient, PredictionServer, TripletBank


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5, help="offline rounds to bank")
    parser.add_argument("--batch", type=int, default=2, help="images per prediction")
    args = parser.parse_args()

    print("== 1. train + quantize (server side, one-time) ==")
    data = synthetic_mnist(n_train=1200, n_test=300)
    model = mnist_mlp(seed=1, hidden=32)
    train_classifier(model, data.train_x, data.train_y, TrainConfig(epochs=4))
    qmodel = quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)
    meta = ModelMeta.from_model(qmodel)
    print(f"quantized test accuracy: {qmodel.accuracy(data.test_x, data.test_y):.3f}")

    print(f"\n== 2. bank {args.rounds} offline rounds ahead of any client ==")
    bank = TripletBank(
        qmodel, args.batch, capacity=args.rounds, auto_replenish=False,
        group=MODP_TEST, seed=7,
    )
    t0 = time.perf_counter()
    bank.fill(args.rounds)
    offline_s = time.perf_counter() - t0
    print(f"banked {bank.depth} rounds in {offline_s:.2f}s (dealt in closed form, no OT traffic)")
    bank_path = os.path.join(tempfile.mkdtemp(), "bank.npz")
    bank.save(bank_path)
    print(f"persisted bank to {bank_path}")

    print("\n== 3. serve sequential + concurrent clients over TCP ==")
    predictions = []
    t_online = time.perf_counter()
    with PredictionServer(
        qmodel, bank, port=0, max_sessions=4, group=MODP_TEST, seed=3
    ) as srv:
        for i in range(3):  # reconnecting clients: one session each
            with PredictionClient(
                meta, args.batch, port=srv.port, group=MODP_TEST
            ) as client:
                x = data.test_x[i * args.batch : (i + 1) * args.batch]
                _, labels = client.predict(x)
                predictions.append(labels)
                print(f"  sequential client {i}: session={client.session_id} -> {labels.tolist()}")

        def _concurrent(i):
            with PredictionClient(
                meta, args.batch, port=srv.port, group=MODP_TEST
            ) as client:
                x = data.test_x[(3 + i) * args.batch : (4 + i) * args.batch]
                _, labels = client.predict(x)
                predictions.append(labels)
                print(f"  concurrent client {i}: session={client.session_id} -> {labels.tolist()}")

        threads = [threading.Thread(target=_concurrent, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        srv.wait_idle()
        online_s = time.perf_counter() - t_online

        if srv.metrics()["bank"]["depth"] == 0:
            try:
                with PredictionClient(
                    meta, args.batch, port=srv.port, group=MODP_TEST
                ) as client:
                    client.predict(data.test_x[: args.batch])
            except ProtocolError as exc:
                print(f"  6th client denied cleanly: {exc}")
        metrics = srv.metrics()
        print(f"server metrics: {metrics['sessions_served']} sessions, "
              f"{metrics['predictions']} predictions, bank depth {metrics['bank']['depth']}")

    print("\n== 4. restart against the persisted bank ==")
    restarted = TripletBank(
        qmodel, args.batch, auto_replenish=False, group=MODP_TEST
    )
    n = restarted.load(bank_path)
    with PredictionServer(qmodel, restarted, port=0, group=MODP_TEST) as srv:
        with PredictionClient(meta, args.batch, port=srv.port, group=MODP_TEST) as client:
            _, labels = client.predict(data.test_x[: args.batch])
            print(f"  post-restart prediction: {labels.tolist()}")
        srv.wait_idle()
    m = restarted.metrics()
    assert m["rounds_generated"] == 0, "restart must not regenerate triplets"
    print(f"  loaded {n} rounds from disk; rounds generated after restart: "
          f"{m['rounds_generated']} (offline phase skipped)")

    print("\n== 5. amortization arithmetic ==")
    n_served = len(predictions) * args.batch
    print(f"offline: {offline_s:.2f}s once, banked ahead of any connection")
    print(f"online:  {online_s:.2f}s for {len(predictions)} sessions "
          f"({n_served} images) -> {n_served / online_s:.1f} images/s amortized")
    print("every client saw only its own predictions; the server saw only shares")


if __name__ == "__main__":
    main()
