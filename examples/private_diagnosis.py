#!/usr/bin/env python3
"""Domain scenario: a clinic queries a hospital's diagnostic model.

This example exercises the *two-party API directly* (rather than the
one-call ``secure_predict`` helper) to make the trust boundary explicit:

* the **hospital** (server) constructs :class:`Abnn2Server` from the full
  quantized model;
* the **clinic** (client) constructs :class:`Abnn2Client` from
  :class:`ModelMeta` only — layer shapes and fragment schemes, *no
  weights* — plus its private patient feature vectors.

The model is a risk classifier over 40 synthetic biomarker features and
3 outcome classes; the paper's intro motivates exactly this MLaaS
setting (healthcare under HIPAA/GDPR).

Run:  python examples/private_diagnosis.py
"""

import numpy as np

from repro import FragmentScheme, ModelMeta, Ring, TrainConfig, train_classifier
from repro.core.protocol import Abnn2Client, Abnn2Server
from repro.crypto.group import MODP_TEST
from repro.net import run_protocol
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.quantize import quantize_model
from repro.utils.rng import derive_rng

N_FEATURES = 40
N_CLASSES = 3
CLASS_NAMES = ["low risk", "monitor", "urgent"]


_CENTERS = derive_rng(2022, "disease-centers").normal(
    scale=1.5, size=(N_CLASSES, N_FEATURES)
)


def make_cohort(n: int, seed: int):
    """Synthetic biomarker panels; class centers are fixed, samples vary."""
    rng = derive_rng(seed, "cohort")
    labels = rng.integers(0, N_CLASSES, size=n)
    features = _CENTERS[labels] + rng.normal(scale=1.0, size=(n, N_FEATURES))
    # biomarkers are non-negative concentrations, normalized to the assay
    # range [0, 1]: the model's public input domain
    return np.clip((features + 2.0) / 6.0, 0.0, 1.0), labels


def main() -> None:
    print("== hospital: train + quantize the risk model ==")
    train_x, train_y = make_cohort(1200, seed=10)
    model = Sequential(
        [Dense(N_FEATURES, 32, seed=2), ReLU(), Dense(32, N_CLASSES, seed=3)]
    )
    train_classifier(model, train_x, train_y, TrainConfig(epochs=12, learning_rate=0.1))
    qmodel = quantize_model(model, FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32), frac_bits=8)
    test_x, test_y = make_cohort(300, seed=11)
    print(f"model accuracy (hospital's own eval): {qmodel.accuracy(test_x, test_y):.3f}")

    print("\n== clinic: five patients to triage privately ==")
    patients, truth = make_cohort(5, seed=12)
    meta = ModelMeta.from_model(qmodel)  # shapes + schemes only, no weights
    batch = patients.shape[0]
    x_ring = qmodel.encoder.encode(patients.T)

    def hospital(chan):
        server = Abnn2Server(chan, qmodel, batch, group=MODP_TEST, seed=100)
        server.offline()  # OT triplets, before any patient data exists
        server.online()  # blind linear algebra + garbled ReLU
        return server

    def clinic(chan):
        client = Abnn2Client(chan, meta, batch, group=MODP_TEST, seed=200)
        client.offline()
        logits = client.online(x_ring)
        return logits

    result = run_protocol(hospital, clinic)
    logits = result.client
    predictions = np.argmax(qmodel.ring.to_signed(logits), axis=0)

    print(f"{'patient':>8}  {'prediction':>12}  {'truth':>10}")
    for i, (pred, actual) in enumerate(zip(predictions, truth)):
        print(f"{i:>8}  {CLASS_NAMES[pred]:>12}  {CLASS_NAMES[actual]:>10}")

    reference = qmodel.predict(patients)
    assert (predictions == reference).all(), "secure result diverged from reference"
    mb = 1024 * 1024
    print(
        f"\ntraffic: {result.total_bytes / mb:.2f} MB total, "
        f"{result.rounds} rounds; the hospital never saw the biomarkers, "
        "the clinic never saw the weights."
    )


if __name__ == "__main__":
    main()
