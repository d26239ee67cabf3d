"""The offline phase is two flights after the base-OT handshake.

Pass 1 sends every layer's ``U`` frames (server to client), pass 2 every
layer's message frames (client to server), so a one-shot prediction's
offline phase is 4 rounds — 2 for the handshake, 2 for the flights —
whatever the depth or the chunk grid, and the grid changes no share.
Also the frame contract at the share frames (:func:`recv_share`).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.triplets as triplets_mod
from repro.core.offline import materialize
from repro.core.protocol import (
    Abnn2Client,
    Abnn2Server,
    ModelMeta,
    recv_share,
    secure_predict,
)
from repro.crypto.group import MODP_TEST
from repro.errors import ProtocolError
from repro.net.channel import make_channel_pair
from repro.net.runner import run_protocol
from repro.nn.model import mnist_mlp, vgg_cifar
from repro.nn.quantize import quantize_model
from repro.perf.trace import iter_spans
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


def _fig4():
    return quantize_model(mnist_mlp(), FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32))


def _offline_rounds(qmodel, features: int, batch: int) -> tuple[int, int]:
    x = np.random.default_rng(3).uniform(0, 1, size=(batch, features))
    report = secure_predict(qmodel, x, group=MODP_TEST, seed=0)
    assert (report.predictions == qmodel.predict(x)).all()
    return report.offline_server.rounds, report.offline_client.rounds


@pytest.mark.parametrize("batch", [1, 8])
def test_fig4_offline_is_four_rounds(batch):
    assert _offline_rounds(_fig4(), 784, batch) == (4, 4)


def test_vgg_cifar_offline_is_four_rounds():
    qmodel = quantize_model(
        vgg_cifar(base=2, side=12), FragmentScheme.from_bits((2, 2)), Ring(32),
        input_shape=(3, 12, 12),
    )
    assert _offline_rounds(qmodel, 3 * 12 * 12, 1) == (4, 4)


def _offline_halves(qmodel):
    """Both halves of a batch-1 offline round, and the two parties."""
    meta = ModelMeta.from_model(qmodel)

    def server(chan):
        party = Abnn2Server(chan, qmodel, 1, group=MODP_TEST, seed=1)
        party.offline()
        return party

    def client(chan):
        party = Abnn2Client(chan, meta, 1, group=MODP_TEST, seed=2)
        party.offline()
        return party

    result = run_protocol(server, client)
    server_half = result.server.export_offline_round()
    client_half = result.client.export_offline_round()
    return server_half, client_half, (result.server, result.client)


def test_many_chunks_cost_no_round_and_move_no_share(monkeypatch):
    qmodel = _fig4()
    default_u, default_v, _ = _offline_halves(qmodel)
    monkeypatch.setattr(triplets_mod, "_SUB_BLOCK_WORDS", 1 << 16)
    u, v, parties = _offline_halves(qmodel)
    paths = [f"offline/layer{i}/triplets" for i in range(3)]
    traces = [
        {
            path: span for path, span in iter_spans(party.tracer.to_dict())
            if span["name"] == "triplets"
        }
        for party in parties
    ]
    for party, layers in zip(parties, traces):
        assert party.offline_stats.rounds == 4
        # one span per layer; layer 0's U frames cross in at least 8 chunks
        assert sorted(layers) == paths
        extensions = [
            span for _path, span in iter_spans(layers[paths[0]])
            if span["name"] == "extension"
        ]
        assert len(extensions) >= 8
    # each span carries both passes' bytes: the parties' spans mirror
    server_layers, client_layers = traces
    for path in paths:
        mine, theirs = server_layers[path]["total"], client_layers[path]["total"]
        assert mine["sent_bytes"] and mine["recv_bytes"]
        assert (mine["sent_bytes"], mine["recv_bytes"]) == (
            theirs["recv_bytes"], theirs["sent_bytes"],
        )
    for got, want in zip(u.u, default_u.u):
        assert np.array_equal(materialize(got), materialize(want))
    for got, want in zip(v.v, default_v.v):
        assert np.array_equal(materialize(got), materialize(want))
    assert np.array_equal(v.input_mask, default_v.input_mask)


@pytest.mark.parametrize(
    "frame",
    [b"abc", np.zeros(2, dtype=np.int64), np.zeros(3, dtype=np.uint64)],
    ids=["bytes", "wrong-dtype", "wrong-shape"],
)
def test_recv_share_rejects_a_malformed_frame(frame):
    server, client = make_channel_pair(timeout_s=5.0)
    client.send(frame)
    ring = Ring(32)
    with pytest.raises(ProtocolError, match="share frame"):
        recv_share(server, ring, (2, 2))  # 4 elements at 32 bits: 2 words
