"""Each linear layer computes in the ring of its own width.

:meth:`repro.core.protocol.ModelMeta.layer_ring` maps layer ``i`` to
``Z_(2^m_i)`` (``m_i`` from :func:`repro.quant.headroom.relu_widths`),
except a winograd layer and a layer after an average pool, which keep
the model ring.  Reduction mod ``2^m`` is a ring homomorphism, so the
secure logits still equal ``forward_int``: one-shot and served, dense
and chunked conv (a pooled model, whose pool rounds share-locally, gives
the logits it gives in the model ring); and every span is priced at its
own width.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.protocol import ModelMeta, secure_predict
from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
from repro.nn.model import Sequential, mnist_mlp, vgg_cifar
from repro.nn.quantize import QuantizedModel, quantize_model
from repro.net.channel import make_channel_pair
from repro.perf.report import check_conformance, conformance_rows
from repro.perf.trace import iter_spans
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme
from repro.serve import ClientSession, ServerSession, TripletBank
from repro.utils.ring import Ring


@pytest.fixture(scope="module")
def fig4():
    return quantize_model(mnist_mlp(), FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32))


def _inputs(features: int, batch: int) -> np.ndarray:
    return np.random.default_rng(3).uniform(0, 1, size=(batch, features))


def _rings(qmodel) -> list[int]:
    meta = ModelMeta.from_model(qmodel)
    return [meta.layer_ring(idx).bits for idx in range(len(meta.layers))]


def _assert_exact(qmodel, x, report) -> None:
    expected = qmodel.forward_int(qmodel.encoder.encode(x.T))
    assert (report.logits_int == expected).all()


class TestFig4:
    def test_rings_are_the_layer_widths(self, fig4):
        widths = [layer.relu_bits for layer in fig4.layers]
        assert all(w < 32 for w in widths)
        assert _rings(fig4) == widths

    @pytest.mark.parametrize("batch", [1, 8])
    def test_one_shot_logits_equal_forward_int(self, fig4, batch, test_group):
        x = _inputs(784, batch)
        report = secure_predict(fig4, x, group=test_group, seed=0)
        _assert_exact(fig4, x, report)
        # Every triplet span carries and is priced at its own ring width.
        rows = [row for row in conformance_rows(report.client_trace) if row.kind != "relu"]
        assert [row.ring for row in rows if row.kind == "triplets"] == [
            str(bits) for bits in _rings(fig4)
        ]
        shares = [row for row in rows if row.kind == "share"]
        assert [row.ring for row in shares] == [str(_rings(fig4)[0]), str(_rings(fig4)[-1])]
        assert all(row.core_bits == row.predicted_bits for row in shares)
        assert check_conformance(report.client_trace) == []
        relus = [
            span["attrs"] for _, span in iter_spans(report.client_trace)
            if span["name"] == "relu"
        ]
        assert [(a["ring_bits"], a["out_bits"]) for a in relus] == list(
            zip(_rings(fig4)[:-1], _rings(fig4)[1:])
        )

    def test_served_dealer_bank_logits_equal_forward_int(self, fig4, test_group):
        batch = 8
        bank = TripletBank(
            fig4, batch, capacity=1, generator="dealer", auto_replenish=False,
            group=test_group, seed=11,
        )
        bank.fill(1)
        server_chan, client_chan = make_channel_pair(timeout_s=60.0)
        thread = threading.Thread(
            target=ServerSession(server_chan, fig4, bank, session_id=1, group=test_group).run,
            daemon=True,
        )
        thread.start()
        client = ClientSession(
            client_chan, ModelMeta.from_model(fig4), batch, group=test_group, seed=9
        )
        x_ring = fig4.encoder.encode(_inputs(784, batch).T)
        logits = client.predict_encoded(x_ring)
        client.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert (logits == fig4.forward_int(x_ring)).all()


class TestConv:
    def test_chunked_pool_free_conv(self, test_group):
        net = Sequential(
            [Conv2d(2, 3, 3, seed=3), ReLU(), Conv2d(3, 2, 3, seed=4), ReLU(),
             Flatten(), Dense(2 * 2 * 2, 5, seed=5)]
        )
        qmodel = quantize_model(
            net, TABLE2_SCHEMES["4(2,2)"], Ring(32), frac_bits=5,
            input_shape=(2, 6, 6), chunk_cols=7,
        )
        assert _rings(qmodel) == [layer.relu_bits for layer in qmodel.layers]
        assert max(_rings(qmodel)) < 32
        x = _inputs(2 * 6 * 6, 2)
        _assert_exact(qmodel, x, secure_predict(qmodel, x, group=test_group, seed=0))

    def test_layer_after_a_pool_keeps_the_model_ring(self, test_group):
        qmodel = quantize_model(
            vgg_cifar(base=2, side=12), FragmentScheme.from_bits((2, 2)), Ring(32),
            input_shape=(3, 12, 12),
        )
        assert qmodel.layers[0].pool is not None
        rings = _rings(qmodel)
        assert rings[1] == 32
        assert [rings[i] for i in (0, 2, 3, 4)] == [
            qmodel.layers[i].relu_bits for i in (0, 2, 3, 4)
        ]
        assert max(rings[i] for i in (0, 2, 3, 4)) < 32
        # Average pooling's share-local shift may round up by one unit
        # (ROADMAP 7a), so a pooled model need not match forward_int.  It
        # matches the same model run with every layer in the model ring
        # (no widths): the narrow rings change no logit.
        wide = QuantizedModel(
            [replace(layer, relu_bits=None) for layer in qmodel.layers], qmodel.ring,
            qmodel.encoder.frac_bits, output_deferral=qmodel.output_deferral,
        )
        assert _rings(wide) == [32] * len(qmodel.layers)
        x = _inputs(3 * 12 * 12, 2)
        narrow_logits = secure_predict(qmodel, x, group=test_group, seed=0).logits_int
        wide_logits = secure_predict(wide, x, group=test_group, seed=0).logits_int
        assert (narrow_logits == wide_logits).all()

    def test_winograd_layers_keep_the_model_ring(self):
        qmodel = quantize_model(
            vgg_cifar(base=2, side=12), FragmentScheme.from_bits((2, 2)), Ring(32),
            input_shape=(3, 12, 12), linear_backend="winograd",
        )
        for idx, (layer, bits) in enumerate(zip(qmodel.layers, _rings(qmodel))):
            if layer.backend == "winograd" or qmodel.layers[idx - 1].pool is not None:
                assert bits == 32
            else:
                assert bits == layer.relu_bits < 32
