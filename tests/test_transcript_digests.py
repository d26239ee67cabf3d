"""Transcript digests: "byte-identical transcripts" as one assertion.

``wire_bytes`` and ``rounds`` are counts: a reordered or altered frame of
the same size passes them.  :class:`DigestChannel` keeps a running
SHA-256 over every payload frame one party sends and receives, in order
and tagged with its direction, so two runs with equal digests exchanged
the same frames in the same order.  Frames are hashed in the canonical
encoding of :mod:`repro.utils.serialization`, which makes a digest the
same over the in-memory pair and over TCP.

The table pins fixed-seed runs on ``MODP_TEST``.  Re-pinning is a
one-line edit per run, and a change that moves a digest on purpose names
its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.baselines.quotient import quotient_triplets_client, quotient_triplets_server
from repro.baselines.secureml import (
    SecureMlConfig,
    secureml_triplets_client,
    secureml_triplets_server,
)
from repro.core.protocol import ModelMeta, secure_predict
from repro.core.triplets import TripletConfig
from repro.crypto.group import MODP_TEST
from repro.net import run_protocol, tcp
from repro.net.channel import make_channel_pair
from repro.nn.model import mnist_mlp, vgg_cifar
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.serve import ClientSession, ServerSession, TripletBank
from repro.utils import serialization
from repro.utils.ring import Ring


class DigestChannel:
    """Channel wrapper keeping a running SHA-256 of its party's view."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._sha = hashlib.sha256()

    @property
    def tracer(self):
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._inner.tracer = value

    def __getattr__(self, name):
        # party, stats, timeout_s, close, drain, abort, ...
        return getattr(self._inner, name)

    def _absorb(self, direction: bytes, obj) -> None:
        data = serialization.encode(obj)
        self._sha.update(direction + len(data).to_bytes(8, "little") + data)

    def send(self, obj) -> None:
        self._inner.send(obj)
        self._absorb(b"S", obj)

    def recv(self):
        obj = self._inner.recv()
        self._absorb(b"R", obj)
        return obj

    def exchange(self, obj):
        self.send(obj)
        return self.recv()

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


#: (server, client) digest prefixes of each pinned run.  Chunking is a
#: local memory policy, so the chunked run pins the unchunked digest.
PINNED = {
    "fig4_b1": ("3fe5f0e33610ac9c", "611e81ef19f47bae"),
    "fig4_b8": ("f53b7764eb5831d6", "a367df650c5183f4"),
    "vgg_cifar_side12": ("f0be1ce09f5986fd", "69000875d3643cc6"),
    "vgg_cifar_side12_chunk7": ("f0be1ce09f5986fd", "69000875d3643cc6"),
    "vgg_cifar_side12_winograd": ("42bb2821bc55c9f6", "fdccafe4062e677f"),
    "served_bank_keepalive": ("5deb31fbb51d426a", "733247cccc15bc37"),
    "secureml_triplets": ("1813590807647dbd", "2bda67427dfcb0de"),
    "quotient_triplets": ("7eadbebd1c974c7e", "e8f1b0a9cbbd0e36"),
}


def _fig4():
    return quantize_model(mnist_mlp(), FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32))


def _inputs(features: int, batch: int) -> np.ndarray:
    return np.random.default_rng(3).uniform(0, 1, size=(batch, features))


def _predict_digests(qmodel, x, channels) -> tuple[str, str]:
    wrapped = tuple(DigestChannel(chan) for chan in channels)
    secure_predict(qmodel, x, group=MODP_TEST, seed=0, channels=wrapped)
    return tuple(chan.hexdigest()[:16] for chan in wrapped)


def _fig4_b1(channels=None) -> tuple[str, str]:
    return _predict_digests(
        _fig4(), _inputs(784, 1), channels or make_channel_pair(timeout_s=60.0)
    )


def _vgg_side12(**options) -> tuple[str, str]:
    qmodel = quantize_model(
        vgg_cifar(base=2, side=12), FragmentScheme.from_bits((2, 2)), Ring(32),
        input_shape=(3, 12, 12), **options,
    )
    return _predict_digests(
        qmodel, _inputs(3 * 12 * 12, 1), make_channel_pair(timeout_s=60.0)
    )


def _served_bank_digests() -> tuple[str, str]:
    qmodel = quantize_model(
        mnist_mlp(seed=7, hidden=8, input_dim=16), FragmentScheme.ternary(),
        Ring(32), frac_bits=6,
    )
    bank = TripletBank(
        qmodel, 1, capacity=2, generator="dealer", auto_replenish=False,
        group=MODP_TEST, seed=11,
    )
    bank.fill(2)
    server_chan, client_chan = (
        DigestChannel(chan) for chan in make_channel_pair(timeout_s=30.0)
    )
    thread = threading.Thread(
        target=ServerSession(
            server_chan, qmodel, bank, session_id=1, group=MODP_TEST, seed=5
        ).run,
        daemon=True,
    )
    thread.start()
    client = ClientSession(
        client_chan, ModelMeta.from_model(qmodel), 1, group=MODP_TEST, seed=9
    )
    for x in _inputs(16, 2):
        client.predict_encoded(qmodel.encoder.encode(x[:, None]))
    client.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return server_chan.hexdigest()[:16], client_chan.hexdigest()[:16]


def _triplet_digests(server_fn, client_fn) -> tuple[str, str]:
    """Digests of one baseline triplet run: the correlated-OT path the
    SecureML and QUOTIENT offline phases take, which no prediction runs."""
    channels = tuple(DigestChannel(chan) for chan in make_channel_pair(timeout_s=30.0))
    run_protocol(server_fn, client_fn, channels=channels)
    return tuple(chan.hexdigest()[:16] for chan in channels)


def _baseline_operands(lo: int, hi: int, ring: Ring):
    rng = np.random.default_rng(5)
    return rng.integers(lo, hi + 1, size=(3, 4)), ring.sample(rng, (4, 2))


def _secureml_digests() -> tuple[str, str]:
    config = SecureMlConfig(ring=Ring(16), m=3, n=4, o=2, group=MODP_TEST)
    w, r = _baseline_operands(-100, 100, config.ring)
    return _triplet_digests(
        lambda ch: secureml_triplets_server(ch, w, config, seed=1),
        lambda ch: secureml_triplets_client(ch, r, config, seed=2),
    )


def _quotient_digests() -> tuple[str, str]:
    config = TripletConfig(
        ring=Ring(32), scheme=FragmentScheme.ternary(), m=3, n=4, o=2, group=MODP_TEST
    )
    w, r = _baseline_operands(-1, 1, config.ring)
    return _triplet_digests(
        lambda ch: quotient_triplets_server(ch, w, config, seed=1),
        lambda ch: quotient_triplets_client(ch, r, config, seed=2),
    )


RUNS = {
    "fig4_b8": lambda: _predict_digests(
        _fig4(), _inputs(784, 8), make_channel_pair(timeout_s=60.0)
    ),
    "vgg_cifar_side12": _vgg_side12,
    "vgg_cifar_side12_chunk7": lambda: _vgg_side12(chunk_cols=7),
    "vgg_cifar_side12_winograd": lambda: _vgg_side12(linear_backend="winograd"),
    "served_bank_keepalive": _served_bank_digests,
    "secureml_triplets": _secureml_digests,
    "quotient_triplets": _quotient_digests,
}


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_digest_is_pinned(self, name):
        assert RUNS[name]() == PINNED[name]

    def test_fig4_b1_stable_across_three_runs(self):
        assert [_fig4_b1() for _ in range(3)] == [PINNED["fig4_b1"]] * 3

    def test_fig4_b1_same_over_tcp(self):
        listener = tcp.Listener(0)
        box = {}
        thread = threading.Thread(
            target=lambda: box.update(chan=listener.accept(30.0)), daemon=True
        )
        thread.start()
        client = tcp.connect("127.0.0.1", listener.port)
        thread.join(timeout=30)
        listener.close()
        try:
            assert _fig4_b1((box["chan"], client)) == PINNED["fig4_b1"]
        finally:
            box["chan"].close()
            client.close()


class TestDigestSensitivity:
    def test_swapping_equal_size_sends_moves_digest_not_counts(self):
        """Counts cannot see a reordering; the digest does."""
        first, second = np.arange(4, dtype=np.uint64), np.arange(4, 8, dtype=np.uint64)

        def run(order):
            channels = tuple(DigestChannel(c) for c in make_channel_pair(timeout_s=10.0))

            def sender(chan):
                for frame in order:
                    chan.send(frame)
                return chan.recv()

            def receiver(chan):
                got = [chan.recv() for _ in order]
                chan.send(b"ack")
                return got

            result = run_protocol(sender, receiver, channels=channels)
            stats = result.stats
            counts = (stats.total_bytes, stats.rounds, stats.total_messages)
            return counts, tuple(chan.hexdigest() for chan in channels)

        counts, digests = run((first, second))
        swapped_counts, swapped_digests = run((second, first))
        assert swapped_counts == counts
        assert all(a != b for a, b in zip(digests, swapped_digests))
