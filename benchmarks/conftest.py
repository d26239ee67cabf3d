"""Shared benchmark fixtures.

Every benchmark runs the *real* protocols in-process and reports, next to
the raw Python wall time, the projected LAN/WAN times from measured
traffic and round counts (``repro.net.netsim.NetworkModel.estimate_s``).
Dimensions default to the paper's; batch sweeps are trimmed unless
``REPRO_BENCH_FULL=1`` because a batch-128 offline phase moves ~1 GB
through the in-memory channel.

The base OTs use the 256-bit test group: they are a fixed O(kappa) setup
cost that both the paper and Table 1 ignore, and the group choice does
not affect the reported extension traffic.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.protocol import ModelMeta, layer_triplet_config
from repro.crypto.group import MODP_TEST
from repro.nn.data import synthetic_mnist
from repro.nn.model import mnist_mlp
from repro.nn.quantize import quantize_model
from repro.nn.train import TrainConfig, train_classifier
from repro.perf.costmodel import abnn2_comm_bits, gc_relu_comm_bits
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

#: The Figure-4 network's (out, in) layer shapes.
FIG4_LAYERS = [(128, 784), (128, 128), (10, 128)]


def batches_for_table2() -> list[int]:
    return [1, 32, 64, 128] if FULL else [1, 8]


def dims_for_table3() -> list[int]:
    return [100, 500, 1000] if FULL else [100, 250]


def batches_for_table45() -> list[int]:
    return [1, 128] if FULL else [1, 8]


@pytest.fixture(scope="session")
def bench_group():
    return MODP_TEST


@pytest.fixture(scope="session")
def bench_rng():
    return np.random.default_rng(2022)


@pytest.fixture(scope="session")
def fig4_dataset():
    return synthetic_mnist(n_train=1200, n_test=200, seed=7)


@pytest.fixture(scope="session")
def fig4_model(fig4_dataset):
    """The paper's 784-128-128-10 MLP, trained."""
    model = mnist_mlp(seed=3)
    train_classifier(
        model, fig4_dataset.train_x, fig4_dataset.train_y, TrainConfig(epochs=5, seed=0)
    )
    return model


@pytest.fixture(scope="session")
def quantized_fig4(fig4_model):
    """Figure-4 model quantized under every Table 4 scheme, ring l=32."""
    ring = Ring(32)
    return {
        name: quantize_model(fig4_model, TABLE2_SCHEMES[name], ring, frac_bits=6)
        for name in ("binary", "ternary", "3(2,1)", "4(2,2)")
    }


def paper_relu_mb(qmodel, batch: int) -> dict:
    """One prediction's GC ReLU bytes on the paper's full-width
    ``3l - 2``-AND circuit at l = 32, from the cost model, as a labelled
    row: this build's circuit is narrower (each layer's ``relu_bits``)."""
    n_relus = sum(layer.out_features for layer in qmodel.layers[:-1]) * batch
    return {"paper_relu_l32_MB": round(gc_relu_comm_bits(32, n_relus) / 8 / (1024 * 1024), 2)}


def l32_offline_mb(qmodel, batch: int) -> dict:
    """One prediction's offline triplet bytes with every layer at the
    paper's fixed l = 32, from the cost model, as a labelled row: this
    build narrows each layer's ring to its width
    (``ModelMeta.layer_ring``), so its measured bytes are lower."""
    meta = ModelMeta.from_model(qmodel)
    bits = 0
    for layer in meta.layers:
        config = layer_triplet_config(Ring(32), layer, batch)
        bits += abnn2_comm_bits(config.scheme, config.m, config.n, config.o, 32)
    return {"l32_offline_MB": round(bits / 8 / (1024 * 1024), 2)}


def paper_n_message_bits(scheme, m: int, n: int, o: int, ring_bits: int) -> int:
    """Table 1's M-Batch closed form at the running protocol's ``c(N)``:
    all ``N`` messages of ``o`` elements per OT.  The running protocol
    never sends message 0 (its pad is the client's share), so this is
    :func:`abnn2_comm_bits` plus ``gamma * m * n * o * l`` bits."""
    return abnn2_comm_bits(scheme, m, n, o, ring_bits) + scheme.gamma * m * n * o * ring_bits


def random_weights(scheme, shape, rng):
    lo, hi = scheme.weight_range
    return rng.integers(lo, hi + 1, size=shape)
