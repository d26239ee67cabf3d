"""The random oracle and the PRG."""

import numpy as np
import pytest

from repro import mnist_mlp, quantize_model, secure_predict
from repro.core.triplets import TripletConfig
from repro.crypto import fastro
from repro.crypto import prg as prg_mod
from repro.crypto.hash_ro import default_ro, hash_bytes
from repro.crypto.prg import BatchPrg, Prg, _philox_blocks_chunked
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

    def test_negative_counts_rejected(self):
        prg = Prg(bytes(16))
        with pytest.raises(CryptoError):
            prg.bits(-1)
        with pytest.raises(CryptoError):
            prg.packed_bits(-1)

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


def _keys(k, seed=0):
    local = np.random.default_rng(seed)
    return (
        local.integers(0, 1 << 64, size=k, dtype=np.uint64, endpoint=False),
        local.integers(0, 1 << 64, size=k, dtype=np.uint64, endpoint=False),
    )


class TestKernelPhiloxMatchesReference:
    """The compiled Philox4x64-10 is ``_philox_blocks`` word for word, and
    a ``BatchPrg`` draws the same streams through either."""

    @pytest.mark.parametrize(
        "first, blocks", [(1, 1), (1, 3), (7, 4096), (1, 4097), (2**40 + 5, 9)]
    )
    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "reference"])
    def test_counter_ranges(self, first, blocks, kernel, monkeypatch):
        if not kernel:
            monkeypatch.setattr(fastro, "_kernel", False)
        key0, key1 = _keys(5, seed=blocks)
        counters = np.arange(first, first + blocks, dtype=np.uint64)
        want = _philox_blocks_chunked(key0, key1, counters)
        got = prg_mod._philox(key0, key1, first, blocks)
        assert got.shape == (5, 4 * blocks) and (got == want).all()

    # 96, 42 592 and 93 600 are draws the CNN's layers make; the others
    # are ragged (count % 64 != 0) or leave a cached high half-word.
    @pytest.mark.parametrize(
        "counts",
        [(96,), (42_592,), (93_600,), (13, 7, 130, 1, 64, 100, 3, 65), (96, 42_592, 93_600, 33)],
    )
    def test_batch_prg_draws(self, counts, monkeypatch):
        seeds = _seeds(6)
        kernel_prg, reference_prg = BatchPrg(seeds), BatchPrg(seeds)
        kernel_draws = [kernel_prg.packed_bits(count) for count in counts]
        monkeypatch.setattr(fastro, "_kernel", False)
        for count, got in zip(counts, kernel_draws):
            assert (got == reference_prg.packed_bits(count)).all(), count


def _hand_built_pads(rows, offsets, first, width, domain):
    """``default_ro.mask`` of the rows ``(row_i ^ offset_j) || first + i``."""
    m, words = rows.shape
    msg = np.empty((m, offsets.shape[0], words + 1), dtype=np.uint64)
    msg[:, :, :words] = rows[:, None, :] ^ offsets[None, :, :]
    msg[:, :, words] = (np.arange(m, dtype=np.uint64) + np.uint64(first % (1 << 64)))[:, None]
    return default_ro.mask(msg, width, domain)


class TestFusedPadsMatchHashInputs:
    """``default_ro.pads`` hashes exactly the rows the KK13 sender and
    receiver used to build, through the kernel and the reference."""

    @pytest.mark.parametrize("n_values", [2, 4, 16])
    @pytest.mark.parametrize("width", [1, 2, 183])
    def test_sender_offsets(self, n_values, width, oracle, rng):
        words = {2: 2, 4: 3, 16: 4}[n_values]
        rows = rng.integers(0, 1 << 64, size=(70, words), dtype=np.uint64, endpoint=False)
        offsets = rng.integers(0, 1 << 64, size=(n_values, words), dtype=np.uint64, endpoint=False)
        first = (5 << 32) + 77
        got = oracle.pads(rows, offsets, first, width, domain=3)
        assert got.shape == (70, n_values, width)
        assert (got == _hand_built_pads(rows, offsets, first, width, 3)).all()

    def test_zero_offset_is_the_receiver_pad(self, oracle, rng):
        rows = rng.integers(0, 1 << 64, size=(9, 3), dtype=np.uint64, endpoint=False)
        got = oracle.pads(rows, np.zeros((1, 3), dtype=np.uint64), 2**33, 2, 5)[:, 0]
        index = (np.arange(9, dtype=np.uint64) + np.uint64(2**33))[:, None]
        assert (got == default_ro.mask(np.hstack([rows, index]), 2, 5)).all()

    def test_many_blocks_and_index_wrap(self, oracle, monkeypatch, rng):
        # small blocks on both paths; the OT index wraps past 2**64 mid-call
        monkeypatch.setattr(fastro, "_ROW_BLOCK_WORDS", 24)
        monkeypatch.setattr(fastro, "_PAD_BLOCK_WORDS", 100)
        rows = rng.integers(0, 1 << 64, size=(50, 3), dtype=np.uint64, endpoint=False)
        offsets = rng.integers(0, 1 << 64, size=(4, 3), dtype=np.uint64, endpoint=False)
        first = (1 << 64) - 20
        got = oracle.pads(rows, offsets, first, 2, domain=3)
        assert (got == _hand_built_pads(rows, offsets, first, 2, 3)).all()

    def test_checks(self):
        rows, offsets = np.zeros((2, 3), dtype=np.uint64), np.zeros((4, 3), dtype=np.uint64)
        with pytest.raises(CryptoError, match="out_words"):
            default_ro.pads(rows, offsets, 0, 0)
        with pytest.raises(CryptoError, match="domain"):
            default_ro.pads(rows, offsets, 0, 1, domain=2**32)
        with pytest.raises(CryptoError, match="first"):
            default_ro.pads(rows, offsets, 1 << 64, 1)
        with pytest.raises(CryptoError, match="offsets"):
            default_ro.pads(rows, np.zeros((4, 2), dtype=np.uint64), 0, 1)
        with pytest.raises(CryptoError, match="offsets"):
            default_ro.pads(rows, np.zeros((0, 3), dtype=np.uint64), 0, 1)
