"""Secure matmul wrapper and the GC ReLU layer protocols."""

import numpy as np
import pytest

from repro.core.matmul import SecureMatmulClient, SecureMatmulServer
from repro.core.pooling import truncate_share
from repro.core.relu import relu_layer_client, relu_layer_server
from repro.core.triplets import TripletConfig
from repro.errors import ConfigError, ProtocolError
from repro.gc.builder import sign_template
from repro.gc.protocol import GcSessions, run_evaluator, run_garbler
from repro.net import run_protocol
from repro.quant.fragments import FragmentScheme
from repro.utils.bits import int_to_bits
from repro.utils.ring import Ring


class TestSecureMatmul:
    def test_offline_online_flow(self, test_group, rng):
        ring = Ring(32)
        scheme = FragmentScheme.from_bits((2, 2))
        m, n, o = 4, 6, 2
        lo, hi = scheme.weight_range
        w = rng.integers(lo, hi + 1, size=(m, n))
        z = ring.sample(rng, (n, o))
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=o, group=test_group)

        def server_fn(chan):
            server = SecureMatmulServer(chan, w, config, seed=1)
            server.offline()
            z0 = chan.recv()
            return server.online(z0)

        def client_fn(chan):
            client = SecureMatmulClient(chan, config, np.random.default_rng(7), seed=2)
            client.offline()
            chan.send(client.mask_input(z))
            return client.online()

        result = run_protocol(server_fn, client_fn)
        got = ring.add(result.server, result.client)
        assert (got == ring.matmul(ring.reduce(w), z)).all()

    def test_online_before_offline_rejected(self, test_group):
        from repro.net.channel import make_channel_pair

        config = TripletConfig(
            ring=Ring(32), scheme=FragmentScheme.binary(), m=2, n=2, o=1, group=test_group
        )
        chan, _ = make_channel_pair()
        server = SecureMatmulServer(chan, np.zeros((2, 2), dtype=np.int64), config)
        with pytest.raises(ProtocolError):
            server.online(np.zeros((2, 1), dtype=np.uint64))
        client = SecureMatmulClient(chan, config, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            client.online()

    def test_shape_validation(self, test_group):
        from repro.net.channel import make_channel_pair

        config = TripletConfig(
            ring=Ring(32), scheme=FragmentScheme.binary(), m=2, n=3, o=1, group=test_group
        )
        chan, _ = make_channel_pair()
        with pytest.raises(ConfigError):
            SecureMatmulServer(chan, np.zeros((9, 9), dtype=np.int64), config)
        client = SecureMatmulClient(chan, config, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            client.mask_input(np.zeros((9, 9), dtype=np.uint64))


class TestTruncateShare:
    @pytest.mark.parametrize("bits", [4, 8])
    def test_error_at_most_one_ulp(self, bits, rng):
        ring = Ring(32)
        values = ring.reduce(rng.integers(-(1 << 20), 1 << 20, size=500))
        s1 = ring.sample(rng, 500)
        s0 = ring.sub(values, s1)
        t0 = truncate_share(ring, s0, bits, party=0)
        t1 = truncate_share(ring, s1, bits, party=1)
        got = ring.to_signed(ring.add(t0, t1))
        expect = ring.to_signed(values) >> bits
        assert np.abs(got - expect).max() <= 1

    def test_zero_bits_is_identity(self, ring32, rng):
        share = ring32.sample(rng, 10)
        assert (truncate_share(ring32, share, 0, 0) == share).all()
        assert (truncate_share(ring32, share, 0, 1) == share).all()


def _run_relu(ring, y, z1, variant, group, n=None):
    rng = np.random.default_rng(5)
    y1 = ring.sample(rng, y.shape)
    y0 = ring.sub(y, y1)

    def server_fn(chan):
        sessions = GcSessions(chan, "evaluator", group=group, seed=1)
        return relu_layer_server(chan, y0, sessions, ring, variant)

    def client_fn(chan):
        sessions = GcSessions(chan, "garbler", group=group, seed=2)
        return relu_layer_client(
            chan, y1, z1, sessions, ring, np.random.default_rng(9), variant
        )

    return run_protocol(server_fn, client_fn)


class TestReluLayer:
    @pytest.mark.parametrize("variant", ["oblivious", "optimized"])
    def test_relu_correct(self, variant, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(-4000, 4000, size=40))
        z1 = ring.sample(rng, 40)
        result = _run_relu(ring, y, z1, variant, test_group)
        z0 = result.server
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (ring.add(z0, result.client) == relu).all()

    @pytest.mark.parametrize("variant", ["oblivious", "optimized"])
    def test_2d_shapes(self, variant, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(-100, 100, size=(6, 3)))
        z1 = ring.sample(rng, (6, 3))
        result = _run_relu(ring, y, z1, variant, test_group)
        assert result.server.shape == (6, 3)
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (ring.add(result.server, result.client) == relu).all()

    def test_all_negative_optimized(self, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(-4000, -1, size=20))
        z1 = ring.sample(rng, 20)
        result = _run_relu(ring, y, z1, "optimized", test_group)
        assert (ring.add(result.server, result.client) == 0).all()

    def test_all_positive_optimized(self, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(1, 4000, size=20))
        z1 = ring.sample(rng, 20)
        result = _run_relu(ring, y, z1, "optimized", test_group)
        assert (ring.add(result.server, result.client) == y).all()

    def test_optimized_cheaper_when_mostly_negative(self, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(-4000, -1, size=64))
        z1 = ring.sample(rng, 64)
        oblivious = _run_relu(ring, y, z1, "oblivious", test_group).total_bytes
        optimized = _run_relu(ring, y, z1, "optimized", test_group).total_bytes
        assert optimized < oblivious

    def test_unknown_variant(self, test_group, rng):
        ring = Ring(16)
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        sessions = GcSessions(chan, "evaluator", group=test_group)
        with pytest.raises(ConfigError):
            relu_layer_server(chan, ring.zeros(3), sessions, ring, "nope")

    def test_z1_shape_mismatch(self, test_group, rng):
        ring = Ring(16)
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        sessions = GcSessions(chan, "garbler", group=test_group)
        with pytest.raises(ConfigError):
            relu_layer_client(
                chan, ring.zeros(4), ring.zeros(5), sessions, ring,
                np.random.default_rng(0),
            )


class TestOptimizedReluPeerFrames:
    """The optimized variant's two plain frames come from the peer, so a
    malformed one is a :class:`ProtocolError`, never a config error."""

    N = 12

    def _shares(self, ring, rng, y):
        y1 = ring.sample(rng, y.shape)
        return ring.sub(y, y1), y1

    @pytest.mark.parametrize("frame", [b"", b"\x00" * 5, np.zeros(2, dtype=np.uint8)])
    def test_bad_sign_frame(self, frame, test_group, rng):
        ring = Ring(16)
        y0, y1 = self._shares(ring, rng, ring.reduce(rng.integers(-99, 99, size=self.N)))

        def fake_server(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=1)
            bits = np.ascontiguousarray(int_to_bits(y0, 16).T)
            run_evaluator(chan, sign_template(16), bits, self.N, sessions)
            chan.send(frame)

        def client_fn(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=2)
            relu_layer_client(
                chan, y1, ring.sample(rng, self.N), sessions, ring,
                np.random.default_rng(9), "optimized",
            )

        with pytest.raises(ProtocolError, match="sign frame"):
            run_protocol(fake_server, client_fn, timeout_s=10)

    @pytest.mark.parametrize(
        "frame",
        [b"junk", np.zeros(N - 1, dtype=np.uint64), np.zeros(N, dtype=np.int64)],
    )
    def test_bad_negative_share_frame(self, frame, test_group, rng):
        ring = Ring(16)
        # all negative: the sign stage is the only circuit
        y0, y1 = self._shares(ring, rng, ring.reduce(rng.integers(-99, -1, size=self.N)))

        def server_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=1)
            relu_layer_server(chan, y0, sessions, ring, "optimized")

        def fake_client(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=2)
            bits = np.ascontiguousarray(int_to_bits(y1, 16).T)
            run_garbler(chan, sign_template(16), bits, self.N, sessions, rng)
            chan.recv()  # the sign frame
            chan.send(frame)

        with pytest.raises(ProtocolError, match="negative-share frame"):
            run_protocol(server_fn, fake_client, timeout_s=10)
