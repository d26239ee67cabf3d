"""The random oracle and the PRG."""

import numpy as np
import pytest

from repro import mnist_mlp, quantize_model, secure_predict
from repro.core.triplets import TripletConfig
from repro.crypto import fastro
from repro.crypto.hash_ro import default_ro, hash_bytes
from repro.crypto.prg import BatchPrg, Prg, expand_to_bits
from repro.errors import CryptoError
from repro.exec import ShardPlan, parallel_triplets_client, parallel_triplets_server
from repro.net.channel import make_channel_pair
from repro.quant.fragments import FragmentScheme
from repro.utils.bits import pack_bits_to_words
from repro.utils.ring import Ring

from tests.test_exec_parallel import _both


@pytest.fixture(params=[True, False], ids=["siphash", "siphash-numpy"])
def oracle(request, monkeypatch):
    """The oracle as it runs (through the kernel when it is built), and
    forced onto its numpy reference."""
    if not request.param:
        monkeypatch.setattr(fastro, "_kernel", False)
    return default_ro


class TestRandomOracles:
    def test_deterministic(self, oracle, rng):
        rows = rng.integers(0, 1 << 63, size=(5, 3), dtype=np.uint64)
        assert (oracle.mask(rows, 4) == oracle.mask(rows, 4)).all()

    def test_row_sensitivity(self, oracle):
        rows = np.zeros((2, 2), dtype=np.uint64)
        rows[1, 0] = 1
        out = oracle.mask(rows, 2)
        assert (out[0] != out[1]).any()

    def test_domain_separation(self, oracle, rng):
        rows = rng.integers(0, 1 << 63, size=(3, 2), dtype=np.uint64)
        assert (oracle.mask(rows, 2, domain=1) != oracle.mask(rows, 2, domain=2)).any()

    def test_output_shape(self, oracle, rng):
        rows = rng.integers(0, 1 << 63, size=(4, 6, 3), dtype=np.uint64)
        assert oracle.mask(rows, 5).shape == (4, 6, 5)

    def test_invalid_out_words(self):
        with pytest.raises(CryptoError):
            default_ro.mask(np.zeros((1, 2), dtype=np.uint64), 0)

    @pytest.mark.parametrize("domain", [-1, 2**32, 2**32 + 3])
    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "reference"])
    def test_invalid_domain(self, domain, kernel, monkeypatch):
        # The counter word is j | domain << 32: a wider domain would alias.
        if not kernel:
            monkeypatch.setattr(fastro, "_kernel", False)
        with pytest.raises(CryptoError, match="domain"):
            default_ro.mask(np.zeros((1, 2), dtype=np.uint64), 2, domain)

    def test_hash_bytes_lengths(self):
        out = hash_bytes(b"seed", 100)
        assert len(out) == 100
        assert hash_bytes(b"seed", 100) == out

    def test_hash_bytes_domains(self):
        assert hash_bytes(b"x", 16, 1) != hash_bytes(b"x", 16, 2)


class TestOneSipHashOracle:
    """Kernel and numpy reference are one function: the path a host takes
    changes no byte."""

    def test_one_object_under_every_name(self):
        assert fastro.fast_ro is default_ro
        assert default_ro.name == "siphash24"

    def test_protocol_identical_across_ro_backends(self, test_group, monkeypatch):
        """Sharded triplets hashed through the numpy reference: the shares
        and per-stream totals of the run that hashes through the kernel."""
        ring, scheme = Ring(16), FragmentScheme.from_bits((2, 2))
        rng = np.random.default_rng(5)
        w = rng.integers(*scheme.weight_range, size=(6, 5), dtype=np.int64, endpoint=True)
        r = ring.sample(rng, (5, 2))
        plan = ShardPlan(shards=2, workers=2, chunk_ots=64)
        config = TripletConfig(ring=ring, scheme=scheme, m=6, n=5, o=2, group=test_group)

        def run():
            stats = {"server": {}, "client": {}}
            u, v = _both(
                lambda chan: parallel_triplets_server(
                    chan, w, config, plan, seed=21, stats_out=stats["server"]
                ),
                lambda chan: parallel_triplets_client(
                    chan, r, config, plan, seed=22, stats_out=stats["client"]
                ),
                make_channel_pair(timeout_s=60.0),
            )
            return u, v, stats

        u_a, v_a, stats_a = run()
        monkeypatch.setattr(fastro, "_kernel", False)
        u_b, v_b, stats_b = run()
        assert (u_a == u_b).all() and (v_a == v_b).all()
        assert (ring.add(u_a, v_a) == ring.matmul(ring.reduce(w), r)).all()
        for side in ("server", "client"):
            assert stats_a[side]["stream_totals"] == stats_b[side]["stream_totals"]

    def test_secure_predict_identical_under_forced_fallback(self, test_group, monkeypatch):
        model = mnist_mlp(hidden=8, input_dim=16, classes=4)
        qmodel = quantize_model(model, FragmentScheme.from_bits((2, 2)), Ring(32))
        x = np.random.default_rng(0).random((2, 16))
        kernel = secure_predict(qmodel, x, group=test_group, seed=0)
        monkeypatch.setattr(fastro, "_kernel", False)
        fallback = secure_predict(qmodel, x, group=test_group, seed=0)
        assert (kernel.logits_int == fallback.logits_int).all()
        assert (kernel.total_bytes, kernel.rounds) == (fallback.total_bytes, fallback.rounds)
        assert fallback.client_trace["root"]["attrs"]["ro_kernel"] is False


class TestPrg:
    def test_seed_length_enforced(self):
        with pytest.raises(CryptoError):
            Prg(b"short")

    def test_deterministic_stream(self):
        seed = bytes(range(16))
        assert (Prg(seed).bits(100) == Prg(seed).bits(100)).all()
        assert Prg(seed).bytes(32) == Prg(seed).bytes(32)

    def test_streams_continue(self):
        seed = bytes(range(16))
        prg = Prg(seed)
        first, second = prg.bits(64), prg.bits(64)
        combined = Prg(seed).bits(128)
        assert (np.concatenate([first, second]) == combined).all()

    def test_independent_seeds(self):
        a = Prg(bytes(16)).bits(256)
        b = Prg(bytes([1] + [0] * 15)).bits(256)
        assert (a != b).any()

    def test_bits_are_bits(self):
        bits = Prg(bytes(range(16))).bits(1000)
        assert set(np.unique(bits)) <= {0, 1}
        assert 300 < bits.sum() < 700  # roughly balanced

    def test_words_count(self):
        assert Prg(bytes(range(16))).words(17).shape == (17,)

    def test_negative_counts_rejected(self):
        prg = Prg(bytes(16))
        with pytest.raises(CryptoError):
            prg.bits(-1)
        with pytest.raises(CryptoError):
            prg.words(-1)

    def test_expand_helper(self):
        assert (expand_to_bits(bytes(16), 64) == Prg(bytes(16)).bits(64)).all()

    @pytest.mark.parametrize("count", [1, 7, 64, 100, 1000])
    def test_packed_bits_matches_bits(self, count):
        seed = bytes(range(16))
        packed = Prg(seed).packed_bits(count)
        assert packed.shape == ((count + 63) // 64,)
        assert (packed == pack_bits_to_words(Prg(seed).bits(count))).all()

    def test_packed_bits_advances_stream_like_bits(self):
        seed = bytes(range(16))
        a, b = Prg(seed), Prg(seed)
        a.packed_bits(37)
        b.bits(37)
        assert (a.bits(100) == b.bits(100)).all()


def _seeds(k):
    return [bytes([i] * 16) for i in range(1, k + 1)]


class TestBatchPrg:
    """The vectorized multi-key engine must be byte-identical to list[Prg]."""

    def test_matches_prg_columns(self):
        seeds = _seeds(8)
        batch = BatchPrg(seeds)
        out = batch.packed_bits(300)
        for j, seed in enumerate(seeds):
            assert (out[j] == Prg(seed).packed_bits(300)).all(), f"stream {j}"

    def test_matches_prg_across_ragged_calls(self):
        # Odd sizes exercise the cached-half-word accounting that numpy's
        # Generator keeps between integer draws.
        seeds = _seeds(5)
        batch = BatchPrg(seeds)
        prgs = [Prg(s) for s in seeds]
        for count in (13, 7, 130, 1, 64, 100, 3, 65):
            got = batch.packed_bits(count)
            for j, prg in enumerate(prgs):
                assert (got[j] == prg.packed_bits(count)).all(), (count, j)

    def test_interchangeable_with_bits_stream(self):
        # A session may mix packed and unpacked draws; streams must agree.
        seeds = _seeds(3)
        batch = BatchPrg(seeds)
        prgs = [Prg(s) for s in seeds]
        batch.packed_bits(77)
        first = [p.bits(77) for p in prgs]
        got = batch.packed_bits(200)
        for j, prg in enumerate(prgs):
            assert (got[j] == pack_bits_to_words(prg.bits(200))).all()

    def test_tail_bits_are_zero(self):
        out = BatchPrg(_seeds(4)).packed_bits(70)
        assert (out[:, -1] >> np.uint64(6) == 0).all()

    def test_zero_count(self):
        assert BatchPrg(_seeds(2)).packed_bits(0).shape == (2, 0)

    def test_seed_validation(self):
        with pytest.raises(CryptoError):
            BatchPrg([])
        with pytest.raises(CryptoError):
            BatchPrg([b"short"])
        with pytest.raises(CryptoError):
            BatchPrg([bytes(16), bytes(15)])

    def test_negative_count_rejected(self):
        with pytest.raises(CryptoError):
            BatchPrg(_seeds(2)).packed_bits(-1)

    def test_seeds_property(self):
        seeds = _seeds(3)
        assert BatchPrg(seeds).seeds == tuple(seeds)
