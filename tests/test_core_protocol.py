"""End-to-end two-party prediction vs the plaintext integer reference."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.offline import ClientHalf, ServerHalf
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta, secure_predict
from repro.errors import ConfigError, ProtocolError
from repro.net import make_channel_pair
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


@pytest.fixture(scope="module")
def qmodel_ternary(trained_model):
    return quantize_model(trained_model, FragmentScheme.ternary(), Ring(32), frac_bits=6)


@pytest.fixture(scope="module")
def qmodel_4bit(trained_model):
    return quantize_model(
        trained_model, FragmentScheme.from_bits((2, 2)), Ring(32), frac_bits=6
    )


class TestSecurePredict:
    def test_ternary_exact_match(self, qmodel_ternary, small_dataset, test_group):
        # No truncation for ternary, so the secure logits are bit-exact.
        x = small_dataset.test_x[:3]
        report = secure_predict(qmodel_ternary, x, group=test_group)
        expect = qmodel_ternary.forward_int(qmodel_ternary.encoder.encode(x.T))
        assert (report.logits_int == expect).all()
        assert (report.predictions == qmodel_ternary.predict(x)).all()

    def test_4bit_predictions_match(self, qmodel_4bit, small_dataset, test_group):
        # Truncation is share-local (+-1 ulp), so compare predictions and
        # logits within a tolerance.
        x = small_dataset.test_x[:4]
        report = secure_predict(qmodel_4bit, x, group=test_group)
        ring = qmodel_4bit.ring
        expect = ring.to_signed(qmodel_4bit.forward_int(qmodel_4bit.encoder.encode(x.T)))
        got = ring.to_signed(report.logits_int)
        assert np.abs(got - expect).max() <= 256
        assert (report.predictions == qmodel_4bit.predict(x)).all()

    def test_optimized_relu_variant(self, qmodel_ternary, small_dataset, test_group):
        x = small_dataset.test_x[:2]
        report = secure_predict(
            qmodel_ternary, x, relu_variant="optimized", group=test_group
        )
        assert (report.predictions == qmodel_ternary.predict(x)).all()

    def test_batch_sizes(self, qmodel_ternary, small_dataset, test_group):
        for batch in (1, 2, 4):
            x = small_dataset.test_x[:batch]
            report = secure_predict(qmodel_ternary, x, group=test_group)
            expect = qmodel_ternary.forward_int(qmodel_ternary.encoder.encode(x.T))
            assert (report.logits_int == expect).all(), f"batch={batch}"
            assert report.predictions.shape == (batch,)
            assert (report.predictions == qmodel_ternary.predict(x)).all()

    def test_phase_stats_populated(self, qmodel_ternary, small_dataset, test_group):
        report = secure_predict(qmodel_ternary, small_dataset.test_x[:2], group=test_group)
        assert report.offline_bytes > 0
        assert report.online_bytes > 0
        assert report.offline_client.seconds > 0
        assert report.rounds > 0
        assert report.total_bytes >= report.offline_bytes + report.online_bytes

    def test_offline_dominates_communication(self, qmodel_4bit, small_dataset, test_group):
        # The design goal: OT (offline) traffic >> online traffic for 4-bit+.
        report = secure_predict(qmodel_4bit, small_dataset.test_x[:1], group=test_group)
        assert report.offline_bytes > report.online_bytes

    def test_deterministic_with_seed(self, qmodel_ternary, small_dataset, test_group):
        x = small_dataset.test_x[:2]
        a = secure_predict(qmodel_ternary, x, group=test_group, seed=5)
        b = secure_predict(qmodel_ternary, x, group=test_group, seed=5)
        assert (a.logits_int == b.logits_int).all()


class TestPartyApis:
    def test_model_meta_has_no_weights(self, qmodel_ternary):
        meta = ModelMeta.from_model(qmodel_ternary)
        assert meta.ring_bits == 32
        assert meta.frac_bits == 6
        assert len(meta.layers) == 3
        assert not hasattr(meta.layers[0], "w_int")

    def test_online_before_offline(self, qmodel_ternary, test_group):
        server_chan, _client_chan = make_channel_pair()
        server = Abnn2Server(server_chan, qmodel_ternary, batch=1, group=test_group)
        with pytest.raises(ProtocolError):
            server.online()
        meta = ModelMeta.from_model(qmodel_ternary)
        client = Abnn2Client(_client_chan, meta, batch=1, group=test_group)
        with pytest.raises(ProtocolError):
            client.online(np.zeros((784, 1), dtype=np.uint64))

    def test_bad_batch(self, qmodel_ternary, test_group):
        chan, _ = make_channel_pair()
        with pytest.raises(ConfigError):
            Abnn2Server(chan, qmodel_ternary, batch=0, group=test_group)

    def test_client_input_shape_checked(self, qmodel_ternary, test_group):
        _, client_chan = make_channel_pair()
        meta = ModelMeta.from_model(qmodel_ternary)
        client = Abnn2Client(client_chan, meta, batch=2, group=test_group)
        client._pending.append({})  # pretend offline ran
        with pytest.raises(ConfigError):
            client.online(np.zeros((10, 2), dtype=np.uint64))

    def test_invalid_rounds(self, qmodel_ternary, test_group):
        chan, _ = make_channel_pair()
        server = Abnn2Server(chan, qmodel_ternary, batch=1, group=test_group)
        with pytest.raises(ConfigError):
            server.offline(rounds=0)

    def test_multi_round_sessions(self, qmodel_ternary, small_dataset, test_group):
        """One offline(rounds=2) covers two online batches, then runs dry."""
        from repro.net.runner import run_protocol

        x1 = small_dataset.test_x[:2]
        x2 = small_dataset.test_x[2:4]
        enc = qmodel_ternary.encoder

        def server_fn(chan):
            server = Abnn2Server(chan, qmodel_ternary, 2, group=test_group, seed=11)
            server.offline(rounds=2)
            assert server.rounds_available == 2
            server.online()
            server.online()
            assert server.rounds_available == 0
            with pytest.raises(ProtocolError):
                server.online()
            return server

        def client_fn(chan):
            meta = ModelMeta.from_model(qmodel_ternary)
            client = Abnn2Client(chan, meta, 2, group=test_group, seed=12)
            client.offline(rounds=2)
            first = client.online(enc.encode(x1.T))
            second = client.online(enc.encode(x2.T))
            return first, second

        result = run_protocol(server_fn, client_fn)
        first, second = result.client
        assert (first == qmodel_ternary.forward_int(enc.encode(x1.T))).all()
        assert (second == qmodel_ternary.forward_int(enc.encode(x2.T))).all()

    def test_rounds_use_distinct_masks(self, qmodel_ternary, test_group):
        """Mask reuse across rounds would leak input differences — the
        security reason material is single-use."""
        from repro.net.runner import run_protocol

        def server_fn(chan):
            server = Abnn2Server(chan, qmodel_ternary, 1, group=test_group, seed=11)
            server.offline(rounds=2)

        def client_fn(chan):
            meta = ModelMeta.from_model(qmodel_ternary)
            client = Abnn2Client(chan, meta, 1, group=test_group, seed=12)
            client.offline(rounds=2)
            masks = [half.input_mask for half in client._pending]
            assert (masks[0] != masks[1]).any()

        run_protocol(server_fn, client_fn)


class TestExhaustionGating:
    """online() with no banked rounds must fail typed on *both* parties
    before any protocol bytes cross the wire — never desync the stream."""

    def test_server_raises_before_any_bytes(self, qmodel_ternary, test_group):
        server_chan, _ = make_channel_pair()
        server = Abnn2Server(server_chan, qmodel_ternary, batch=1, group=test_group)
        with pytest.raises(ProtocolError, match="offline material exhausted"):
            server.online()
        assert server_chan.stats.total_bytes == 0
        assert server_chan.stats.total_messages == 0

    def test_client_raises_before_any_bytes(self, qmodel_ternary, test_group):
        _, client_chan = make_channel_pair()
        meta = ModelMeta.from_model(qmodel_ternary)
        client = Abnn2Client(client_chan, meta, batch=1, group=test_group)
        with pytest.raises(ProtocolError, match="offline material exhausted"):
            client.online(np.zeros((784, 1), dtype=np.uint64))
        assert client_chan.stats.total_bytes == 0
        assert client_chan.stats.total_messages == 0

    def test_asymmetric_exhaustion_fails_typed_without_hanging(
        self, qmodel_ternary, small_dataset, test_group
    ):
        """Server has a round, client does not: the client's local gate
        fires first, the server never receives a half-round of traffic."""
        import threading
        import time

        from repro.net.runner import run_protocol

        enc = qmodel_ternary.encoder
        x = small_dataset.test_x[:1]
        online_bytes = {}

        def server_fn(chan):
            server = Abnn2Server(chan, qmodel_ternary, 1, group=test_group, seed=1)
            server.offline(rounds=2)
            server.online()
            before = chan.stats.total_bytes
            try:
                # The server still holds a round, so it enters the second
                # online and blocks waiting for the client's input share.
                server.online()
            finally:
                online_bytes["second_round"] = chan.stats.total_bytes - before

        def client_fn(chan):
            meta = ModelMeta.from_model(qmodel_ternary)
            client = Abnn2Client(chan, meta, 1, group=test_group, seed=2)
            client.offline(rounds=2)
            # Drain one client round out-of-band: the asymmetric case.
            client.export_offline_round()
            client.online(enc.encode(x.T))
            client.online(enc.encode(x.T))  # exhausted on this side only

        with pytest.raises(ProtocolError, match="offline material exhausted"):
            run_protocol(server_fn, client_fn, timeout_s=10.0)
        # The client's gate fired before it sent its input share, so no
        # second-round traffic crossed the wire in either direction.
        assert online_bytes["second_round"] == 0
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(t.name == "abnn2-server" for t in threading.enumerate()):
                break
            time.sleep(0.05)
        assert not any(t.name == "abnn2-server" for t in threading.enumerate())


class TestOfflineExportLoad:
    """export_offline_round()/load_offline_round(): each party's typed
    offline half (:mod:`repro.core.offline`), the contract the serving
    bank and the dealer share with the protocol parties."""

    def test_export_empty_raises_typed(self, qmodel_ternary, test_group):
        server_chan, client_chan = make_channel_pair()
        server = Abnn2Server(server_chan, qmodel_ternary, 1, group=test_group)
        with pytest.raises(ProtocolError, match="exhausted"):
            server.export_offline_round()
        meta = ModelMeta.from_model(qmodel_ternary)
        client = Abnn2Client(client_chan, meta, 1, group=test_group)
        with pytest.raises(ProtocolError, match="exhausted"):
            client.export_offline_round()

    def test_roundtrip_matches_plaintext(self, qmodel_ternary, small_dataset, test_group):
        """Material generated on one channel pair, exported, and loaded
        into fresh parties on another pair must predict correctly."""
        from repro.net.runner import run_protocol

        enc = qmodel_ternary.encoder
        x = small_dataset.test_x[:2]
        meta = ModelMeta.from_model(qmodel_ternary)

        def gen_server(chan):
            server = Abnn2Server(chan, qmodel_ternary, 2, group=test_group, seed=21)
            server.offline(rounds=1)
            return server.export_offline_round()

        def gen_client(chan):
            client = Abnn2Client(chan, meta, 2, group=test_group, seed=22)
            client.offline(rounds=1)
            return client.export_offline_round()

        material = run_protocol(gen_server, gen_client)
        assert isinstance(material.server, ServerHalf)
        assert isinstance(material.client, ClientHalf)
        # The halves survive their codec unchanged (wire and bank file).
        server_half = ServerHalf.decode(material.server.encode())
        client_half = ClientHalf.decode(material.client.encode())

        def use_server(chan):
            server = Abnn2Server(chan, qmodel_ternary, 2, group=test_group)
            server.load_offline_round(server_half)
            assert server.rounds_available == 1
            server.online()

        def use_client(chan):
            client = Abnn2Client(chan, meta, 2, group=test_group)
            client.load_offline_round(client_half)
            return client.online(enc.encode(x.T))

        result = run_protocol(use_server, use_client)
        assert (result.client == qmodel_ternary.forward_int(enc.encode(x.T))).all()

    def test_load_validates_shapes(self, qmodel_ternary, test_group):
        from repro.net.runner import run_protocol

        meta = ModelMeta.from_model(qmodel_ternary)

        def gen_server(chan):
            server = Abnn2Server(chan, qmodel_ternary, 1, group=test_group, seed=21)
            server.offline(rounds=1)
            return server.export_offline_round()

        def gen_client(chan):
            client = Abnn2Client(chan, meta, 1, group=test_group, seed=22)
            client.offline(rounds=1)
            return client.export_offline_round()

        material = run_protocol(gen_server, gen_client)
        _, client_chan = make_channel_pair()
        client = Abnn2Client(client_chan, meta, 1, group=test_group)
        half = material.client
        with pytest.raises(ConfigError):
            client.load_offline_round(replace(half, v=half.v[:-1]))
        with pytest.raises(ConfigError):
            client.load_offline_round(
                replace(half, input_mask=np.zeros((3, 1), dtype=np.uint64))
            )
        with pytest.raises(ConfigError):
            client.load_offline_round(replace(half, relu=[r.T for r in half.relu]))
        server_chan, _ = make_channel_pair()
        server = Abnn2Server(server_chan, qmodel_ternary, 1, group=test_group)
        with pytest.raises(ConfigError):
            server.load_offline_round(replace(material.server, u=material.server.u[:-1]))
        with pytest.raises(ConfigError):
            server.load_offline_round(
                replace(material.server, u=[u[:, :0] for u in material.server.u])
            )
        assert server.rounds_available == 0 and client.rounds_available == 0


class TestRing64:
    def test_end_to_end_l64(self, trained_model, small_dataset, test_group):
        """The paper's l=64 block of Table 4 exercises Ring(64) end to end."""
        qm = quantize_model(trained_model, FragmentScheme.ternary(), Ring(64), frac_bits=6)
        x = small_dataset.test_x[:2]
        report = secure_predict(qm, x, group=test_group)
        expect = qm.forward_int(qm.encoder.encode(x.T))
        assert (report.logits_int == expect).all()

    def test_l64_costs_what_l32_costs(self, trained_model, small_dataset, test_group):
        """Every layer computes in the ring of its own width, which fits
        either model ring here, so the model ring moves no byte."""
        x = small_dataset.test_x[:1]
        small_model = quantize_model(trained_model, FragmentScheme.ternary(), Ring(32), frac_bits=6)
        large_model = quantize_model(trained_model, FragmentScheme.ternary(), Ring(64), frac_bits=6)
        assert [l.relu_bits for l in small_model.layers] == [
            l.relu_bits for l in large_model.layers
        ]
        small = secure_predict(small_model, x, group=test_group)
        large = secure_predict(large_model, x, group=test_group)
        assert large.total_bytes == small.total_bytes
        assert (
            small_model.ring.to_signed(small.logits_int)
            == large_model.ring.to_signed(large.logits_int)
        ).all()


class TestOnlineCommModel:
    def test_online_traffic_tracks_gc_model(self, qmodel_ternary, small_dataset, test_group):
        """Online bytes ~= GC ReLU model at each layer's (l, m, f, n) +
        input/output share transfers."""
        from repro.perf.costmodel import gc_relu_comm_bits

        batch = 2
        x = small_dataset.test_x[:batch]
        report = secure_predict(qmodel_ternary, x, group=test_group)
        relu_bits = sum(
            gc_relu_comm_bits(32, l.out_features * batch, l.relu_bits, l.truncate_bits)
            for l in qmodel_ternary.layers[:-1]
        )
        predicted = (
            relu_bits
            + qmodel_ternary.input_dim * 32 * batch
            + qmodel_ternary.output_dim * 32 * batch
        ) / 8
        assert 0.5 * predicted < report.online_bytes < 2.0 * predicted


class TestInputBound:
    def test_out_of_bound_input_refused_before_any_byte(self, test_group):
        """The ReLU widths hold only inside the public input domain, so the
        client refuses anything beyond it before it sends a byte, and the
        offline round stays queued."""
        from repro.nn.model import mnist_mlp
        from repro.serve.dealer import dealer_offline_round

        qmodel = quantize_model(
            mnist_mlp(seed=7, hidden=4, input_dim=16), FragmentScheme.ternary(), Ring(32),
            frac_bits=6,
        )
        _, chan = make_channel_pair()
        client = Abnn2Client(chan, ModelMeta.from_model(qmodel), 1, group=test_group)
        client.load_offline_round(dealer_offline_round(qmodel, 1, seed=3).client)
        x = np.full((16, 1), 0.5)
        x[5] = -1.25
        with pytest.raises(ConfigError, match="input bound 1"):
            client.online(qmodel.encoder.encode(x))
        assert chan.stats.total_messages == 0 and chan.stats.total_bytes == 0
        assert client.rounds_available == 1
