"""Baseline protocols: SecureML, QUOTIENT, MiniONN — correctness and the
comparative shapes the paper's tables rely on."""

import numpy as np
import pytest

from repro.baselines.minionn import (
    MinionnConfig,
    _encode_big,
    minionn_predict,
    minionn_triplets_client,
    minionn_triplets_server,
)
from repro.baselines.quotient import (
    quotient_predict,
    quotient_triplets_client,
    quotient_triplets_server,
)
from repro.baselines.secureml import (
    SecureMlConfig,
    secureml_triplets_client,
    secureml_triplets_server,
)
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.errors import ConfigError, ProtocolError
from repro.net import run_protocol
from repro.net.channel import make_channel_pair
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


class TestSecureMl:
    @pytest.mark.parametrize("bits", [16, 32, 64])
    @pytest.mark.parametrize("o", [1, 3])
    def test_triplet_reconstruction(self, bits, o, test_group, rng):
        ring = Ring(bits)
        m, n = 3, 5
        w = rng.integers(-(1 << 10), 1 << 10, size=(m, n))
        r = ring.sample(rng, (n, o))
        config = SecureMlConfig(ring=ring, m=m, n=n, o=o, group=test_group)
        result = run_protocol(
            lambda ch: secureml_triplets_server(ch, w, config, seed=1),
            lambda ch: secureml_triplets_client(ch, r, config, seed=2),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    def test_ot_count_property(self):
        config = SecureMlConfig(ring=Ring(64), m=2, n=3, o=4)
        assert config.total_ots == 64 * 2 * 3 * 4

    def test_shape_validation(self, test_group):
        from repro.net.channel import make_channel_pair

        config = SecureMlConfig(ring=Ring(32), m=2, n=3, o=1, group=test_group)
        chan, _ = make_channel_pair()
        with pytest.raises(ConfigError):
            secureml_triplets_server(chan, np.zeros((5, 5), dtype=np.int64), config)
        with pytest.raises(ConfigError):
            secureml_triplets_client(chan, np.zeros((5, 5), dtype=np.uint64), config)

    def test_abnn2_beats_secureml_on_communication(self, test_group, rng):
        """The paper's core claim, in miniature: quantized OT decomposition
        moves far fewer bytes than per-bit Gilboa COTs."""
        ring = Ring(32)
        m, n = 8, 16
        scheme = FragmentScheme.from_bits((2, 2, 2, 2))
        lo, hi = scheme.weight_range
        w = rng.integers(lo, hi + 1, size=(m, n))
        r = ring.sample(rng, (n, 1))

        sm_config = SecureMlConfig(ring=ring, m=m, n=n, o=1, group=test_group)
        sm = run_protocol(
            lambda ch: secureml_triplets_server(ch, w, sm_config, seed=1),
            lambda ch: secureml_triplets_client(ch, r, sm_config, seed=2),
        )
        ab_config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=1, group=test_group)
        ab = run_protocol(
            lambda ch: generate_triplets_server(ch, w, ab_config, seed=1),
            lambda ch: generate_triplets_client(
                ch, r, ab_config, np.random.default_rng(3), seed=2
            ),
        )
        assert ab.total_bytes < sm.total_bytes


class TestQuotient:
    def test_triplet_reconstruction(self, test_group, rng):
        ring = Ring(32)
        m, n, o = 4, 7, 3
        w = rng.integers(-1, 2, size=(m, n))
        r = ring.sample(rng, (n, o))
        config = TripletConfig(
            ring=ring, scheme=FragmentScheme.ternary(), m=m, n=n, o=o, group=test_group
        )
        result = run_protocol(
            lambda ch: quotient_triplets_server(ch, w, config, seed=1),
            lambda ch: quotient_triplets_client(ch, r, config, seed=2),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    def test_rejects_non_ternary(self, test_group):
        from repro.net.channel import make_channel_pair

        config = TripletConfig(
            ring=Ring(32), scheme=FragmentScheme.ternary(), m=1, n=2, o=1, group=test_group
        )
        chan, _ = make_channel_pair()
        with pytest.raises(ConfigError):
            quotient_triplets_server(chan, np.array([[2, 0]]), config)

    def test_end_to_end_prediction(self, trained_model, small_dataset, test_group):
        qm = quantize_model(trained_model, FragmentScheme.ternary(), Ring(32), frac_bits=6)
        x = small_dataset.test_x[:2]
        report = quotient_predict(qm, x, group=test_group)
        assert (report.predictions == qm.predict(x)).all()


class TestMinionn:
    def test_triplet_reconstruction(self, test_group, rng):
        ring = Ring(32)
        m, n, o = 3, 6, 4
        w = rng.integers(-300, 300, size=(m, n))
        r = ring.sample(rng, (n, o))
        config = MinionnConfig(ring=ring, m=m, n=n, o=o, key_bits=256)
        result = run_protocol(
            lambda ch: minionn_triplets_server(ch, w, config, seed=1),
            lambda ch: minionn_triplets_client(ch, r, config, seed=2),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    def test_multi_chunk_batches(self, test_group, rng):
        # Force several ciphertext chunks per row by exceeding slot count.
        ring = Ring(32)
        config = MinionnConfig(ring=ring, m=2, n=3, o=9, key_bits=256)
        pk_slots = None
        from repro.crypto import paillier

        pk, _ = paillier.keygen(256, seed=1)
        pk_slots = config.packing(pk).slots
        assert pk_slots < 9  # the point of the test
        w = rng.integers(-50, 50, size=(2, 3))
        r = ring.sample(rng, (3, 9))
        result = run_protocol(
            lambda ch: minionn_triplets_server(ch, w, config, seed=1),
            lambda ch: minionn_triplets_client(ch, r, config, seed=2),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    @pytest.mark.parametrize(
        "frame",
        [b"abc", 7, (b"\x01", 256), _encode_big([5]), _encode_big([5, 256])[:-1],
         _encode_big([5, 256]) + b"\x00"],
    )
    @pytest.mark.parametrize("side", ["server", "client"])
    def test_malformed_big_int_frame_refused(self, frame, side, rng):
        """Either party's first received frame (the public key, the
        product ciphertexts) fails typed on a malformed peer frame."""
        ring = Ring(32)
        config = MinionnConfig(ring=ring, m=2, n=3, o=4, key_bits=256)
        server_chan, client_chan = make_channel_pair(timeout_s=5.0)
        if side == "server":
            client_chan.send(frame)
            with pytest.raises(ProtocolError, match="MiniONN public key"):
                minionn_triplets_server(server_chan, np.ones((2, 3), dtype=np.int64), config)
        else:
            server_chan.send(frame)
            with pytest.raises(ProtocolError, match="MiniONN product ciphertexts"):
                minionn_triplets_client(client_chan, ring.sample(rng, (3, 4)), config, seed=2)

    def test_end_to_end_prediction(self, trained_model, small_dataset, test_group):
        qm = quantize_model(
            trained_model, FragmentScheme.from_bits((2, 2)), Ring(32), frac_bits=6
        )
        x = small_dataset.test_x[:1]
        report = minionn_predict(qm, x, key_bits=256, group=test_group)
        assert (report.predictions == qm.predict(x)).all()

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            MinionnConfig(ring=Ring(32), m=0, n=1, o=1)
