"""ABNN2 dot-product triplet generation (Algorithm 1 + optimizations)."""

import numpy as np
import pytest

import repro.core.triplets as triplets_mod
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.errors import ConfigError, ProtocolError
from repro.net import run_protocol
from repro.perf.costmodel import abnn2_comm_bits
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


def _run_triplets(w, r, config, seed=9):
    return run_protocol(
        lambda ch: generate_triplets_server(ch, w, config, seed=seed),
        lambda ch: generate_triplets_client(
            ch, r, config, np.random.default_rng(seed + 1), seed=seed + 2
        ),
    )


def _random_weights(scheme, shape, rng):
    lo, hi = scheme.weight_range
    return rng.integers(lo, hi + 1, size=shape)


SCHEMES = [
    "binary",
    "ternary",
    "3(2,1)",
    "3(3)",
    "4(2,2)",
    "8(2,2,2,2)",
    "8(3,3,2)",
    "8(4,4)",
]


class TestCorrectness:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("o", [1, 4])
    def test_reconstruction(self, scheme_name, o, test_group, rng):
        from repro.quant.fragments import TABLE2_SCHEMES

        scheme = TABLE2_SCHEMES[scheme_name]
        ring = Ring(32)
        m, n = 5, 9
        w = _random_weights(scheme, (m, n), rng)
        r = ring.sample(rng, (n, o))
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=o, group=test_group)
        result = _run_triplets(w, r, config)
        got = ring.add(result.server, result.client)
        assert (got == ring.matmul(ring.reduce(w), r)).all()

    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_ring_widths(self, bits, test_group, rng):
        scheme = FragmentScheme.from_bits((2, 2))
        ring = Ring(bits)
        w = _random_weights(scheme, (4, 6), rng)
        r = ring.sample(rng, (6, 2))
        config = TripletConfig(ring=ring, scheme=scheme, m=4, n=6, o=2, group=test_group)
        result = _run_triplets(w, r, config)
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    def test_chunked_execution(self, test_group, rng, monkeypatch):
        # Force tiny chunks so the accumulation crosses chunk boundaries.
        import repro.core.triplets as triplets_mod

        monkeypatch.setattr(triplets_mod, "_SUB_BLOCK_WORDS", 1)
        scheme = FragmentScheme.from_bits((2, 2, 2, 2))
        ring = Ring(32)
        w = _random_weights(scheme, (3, 40), rng)
        r = ring.sample(rng, (40, 2))
        config = TripletConfig(ring=ring, scheme=scheme, m=3, n=40, o=2, group=test_group)
        assert config.sub_block(4) == 64  # floor kicks in: 480 OTs in 8 chunks
        result = _run_triplets(w, r, config)
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    def test_negative_weights_exact(self, test_group, rng):
        # The signed top fragment must produce exact signed products.
        scheme = FragmentScheme.from_bits((2, 2, 2, 2))
        ring = Ring(32)
        w = np.full((2, 3), -128, dtype=np.int64)  # most negative value
        r = ring.sample(rng, (3, 1))
        config = TripletConfig(ring=ring, scheme=scheme, m=2, n=3, o=1, group=test_group)
        result = _run_triplets(w, r, config)
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()


class TestSubBlocks:
    """The wire chunk (the sub-block) moves frame boundaries, never a share
    or a payload byte.

    With 64-OT chunks, ``U + V = W R`` holds for OT counts below the
    chunk size, equal to it and ragged against it (also across many
    chunks), at o = 1 and o > 1 and at a ring width whose packing does
    not divide 64 bits; shares and payload bytes equal those of a run in
    one chunk, and the transcripts differ exactly when the grids do.
    """

    SHAPES = {  # (m, n): 2 m n OTs of the 2-fragment scheme
        "below": (2, 8),  # 32 OTs
        "equal": (4, 8),  # 64
        "ragged": (5, 16),  # 160 = 2.5 chunks
        "chunks": (40, 30),  # 2400 = 37.5 chunks
    }

    @staticmethod
    def _digest_run(w, r, config):
        from tests.test_transcript_digests import DigestChannel

        chans = {}

        def party(fn, key):
            def run(ch):
                chans[key] = DigestChannel(ch)
                return fn(chans[key])

            return run

        result = run_protocol(
            party(lambda ch: generate_triplets_server(ch, w, config, seed=9), 0),
            party(
                lambda ch: generate_triplets_client(
                    ch, r, config, np.random.default_rng(10), seed=11
                ),
                1,
            ),
        )
        return result, (chans[0].hexdigest(), chans[1].hexdigest())

    @pytest.mark.parametrize("shape", list(SHAPES))
    @pytest.mark.parametrize(
        "o", [pytest.param(3, id="multi-3"), pytest.param(1, id="one-1")]
    )
    @pytest.mark.parametrize("bits", [32, 20])
    def test_ragged_sub_blocks(self, shape, o, bits, test_group, rng, monkeypatch):
        scheme = FragmentScheme.from_bits((2, 2))
        ring = Ring(bits)
        m, n = self.SHAPES[shape]
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=o, group=test_group)
        w = _random_weights(scheme, (m, n), rng)
        r = ring.sample(rng, (n, o))

        monkeypatch.setattr(triplets_mod, "_SUB_BLOCK_WORDS", 64 * 4 * o)
        assert config.sub_block(4) == 64
        blocked, blocked_digests = self._digest_run(w, r, config)
        assert (ring.add(blocked.server, blocked.client) == ring.matmul(ring.reduce(w), r)).all()

        monkeypatch.setattr(triplets_mod, "_SUB_BLOCK_WORDS", 1 << 40)
        assert config.sub_block(4) >= config.total_ots
        whole, whole_digests = self._digest_run(w, r, config)
        assert (blocked.server == whole.server).all()
        assert (blocked.client == whole.client).all()
        assert blocked.stats.bytes_sent == whole.stats.bytes_sent
        assert blocked.stats.rounds == whole.stats.rounds
        chunks = -(-config.total_ots // 64)
        assert blocked.stats.total_messages - whole.stats.total_messages == 2 * (chunks - 1)
        assert (blocked_digests == whole_digests) == (chunks == 1)

    def test_sub_block_is_a_multiple_of_64(self):
        scheme = FragmentScheme.from_bits((2, 2))
        for o in (1, 3, 8, 1024, 1 << 20):
            config = TripletConfig(ring=Ring(32), scheme=scheme, m=1, n=1, o=o)
            block = config.sub_block(4)
            assert block % 64 == 0 and block >= 64
            assert block == 64 or block * 4 * o <= triplets_mod._SUB_BLOCK_WORDS


class TestCommunication:
    def test_matches_cost_model_multi(self, test_group, rng):
        scheme = FragmentScheme.from_bits((2, 2))
        ring = Ring(32)
        m, n, o = 8, 16, 4
        w = _random_weights(scheme, (m, n), rng)
        r = ring.sample(rng, (n, o))
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=o, group=test_group)
        result = _run_triplets(w, r, config)
        predicted = abnn2_comm_bits(scheme, m, n, o, 32) / 8
        # Base OTs and framing add a fixed overhead on top of the model.
        overhead = result.total_bytes - predicted
        assert 0 <= overhead < 20_000

    def test_matches_cost_model_one_batch(self, test_group, rng):
        scheme = FragmentScheme.from_bits((2, 2, 2, 2))
        ring = Ring(32)
        m, n = 16, 16
        w = _random_weights(scheme, (m, n), rng)
        r = ring.sample(rng, (n, 1))
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=1, group=test_group)
        result = _run_triplets(w, r, config)
        predicted = abnn2_comm_bits(scheme, m, n, 1, 32) / 8
        overhead = result.total_bytes - predicted
        assert 0 <= overhead < 20_000

    def test_ot_count_property(self):
        scheme = FragmentScheme.from_bits((2, 2, 2, 2))
        config = TripletConfig(ring=Ring(32), scheme=scheme, m=10, n=20, o=5)
        assert config.total_ots == 4 * 10 * 20


class TestValidation:
    def test_bad_dimensions(self):
        with pytest.raises(ConfigError):
            TripletConfig(ring=Ring(32), scheme=FragmentScheme.binary(), m=0, n=1, o=1)

    def test_digit_zero_must_contribute_nothing(self, test_group):
        # The client's share is pad 0, so a fragment whose digit 0 adds a
        # nonzero value would come out wrong: both clients refuse it
        # before any byte is sent.
        from repro.exec.triplets import ShardPlan, parallel_triplets_client
        from repro.net.channel import make_channel_pair
        from repro.quant.fragments import FragmentSpec

        scheme = FragmentScheme("offset", 2, [FragmentSpec(4, (1, 2, 3, 4))], signed=False)
        config = TripletConfig(ring=Ring(32), scheme=scheme, m=2, n=3, o=2, group=test_group)
        r = np.zeros(config.r_shape, dtype=np.uint64)
        chan, peer = make_channel_pair()
        with pytest.raises(ConfigError, match="digit 0"):
            generate_triplets_client(chan, r, config, seed=1)
        with pytest.raises(ConfigError, match="digit 0"):
            parallel_triplets_client(chan, r, config, ShardPlan(shards=2), seed=1)
        assert peer.stats.total_bytes == 0

    def test_shape_mismatch_server(self, test_group):
        config = TripletConfig(
            ring=Ring(32), scheme=FragmentScheme.binary(), m=2, n=3, o=1, group=test_group
        )
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        with pytest.raises(ConfigError):
            generate_triplets_server(chan, np.zeros((3, 3), dtype=np.int64), config)

    def test_shape_mismatch_client(self, test_group):
        config = TripletConfig(
            ring=Ring(32), scheme=FragmentScheme.binary(), m=2, n=3, o=1, group=test_group
        )
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        with pytest.raises(ConfigError):
            generate_triplets_client(
                chan, np.zeros((4, 1), dtype=np.uint64), config, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("bad", ["bytes", "dtype", "shape"])
    def test_malformed_message_frame_refused(self, bad, test_group, rng):
        """A client's triplet message frame that is not the expected uint64
        words fails typed on the server, before any opening."""
        ring = Ring(32)
        config = TripletConfig(
            ring=ring, scheme=FragmentScheme.binary(), m=2, n=3, o=1, group=test_group
        )
        w = _random_weights(config.scheme, (2, 3), rng)
        r = ring.sample(rng, (3, 1))

        def client_fn(ch):
            send = ch.send

            def tamper(obj):
                if isinstance(obj, np.ndarray):  # the message frame; the rest is bytes
                    obj = {
                        "bytes": b"abc",
                        "dtype": obj.astype(np.int64),
                        "shape": obj[:-1].copy(),
                    }[bad]
                send(obj)

            ch.send = tamper
            return generate_triplets_client(ch, r, config, np.random.default_rng(4), seed=5)

        with pytest.raises(ProtocolError, match="triplet message frame"):
            run_protocol(
                lambda ch: generate_triplets_server(ch, w, config, seed=3), client_fn,
                timeout_s=10,
            )

    def test_radix_groups_mixed_scheme(self):
        config = TripletConfig(
            ring=Ring(32), scheme=FragmentScheme.from_bits((3, 3, 2)), m=1, n=1, o=1
        )
        assert config.radix_groups == [(4, [2]), (8, [0, 1])]
