"""Memory-bounded streaming execution: chunked lowering equivalence.

Chunking (``Im2colSpec.chunk_cols``) is a *local* execution strategy:
columns of the lowered operand are independent and the ring arithmetic
is exact, so any column partition must produce byte-identical shares,
values and secure logits, and every leg's traced traffic must match the
Table-1 closed forms with zero slack.  The sweeps here pin that across
chunk sizes {1, 7, an exact divisor, > n_positions}.  What chunking does
change is peak memory: :class:`TestLayerRss` measures it per conv layer.

Default geometry is reduced (tier-1 budget); set ``ABNN2_SERVE_SOAK=1``
for the full sweep and the RSS legs the CI soak leg runs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.matmul import SecureMatmulServer
from repro.core.protocol import ModelMeta, secure_predict
from repro.core.triplets import BlockedShare, TripletConfig
from repro.errors import ConfigError
from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
from repro.nn.lowering import (
    Im2colSpec,
    PoolSpec,
    column_blocks,
    lower_shares,
    lower_shares_block,
)
from repro.nn.model import Sequential, vgg_cifar, vgg_imagenet
from repro.nn.data import synthetic_images
from repro.nn.quantize import quantize_model, set_chunk_cols
from repro.perf.costmodel import linear_working_set_bytes
from repro.perf.report import check_conformance
from repro.perf.trace import peak_rss_bytes, reset_peak_rss
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme
from repro.utils.ring import Ring

SOAK = bool(os.environ.get("ABNN2_SERVE_SOAK"))

CHUNKS = [None, 1, 7, 10**6]


def _conv_net():
    return Sequential(
        [
            Conv2d(2, 3, 3, seed=3),
            ReLU(),
            Conv2d(3, 2, 3, seed=4),
            ReLU(),
            Flatten(),
            Dense(2 * 2 * 2, 5, seed=5),
        ]
    )


def _quantize(chunk=None):
    return quantize_model(
        _conv_net(),
        TABLE2_SCHEMES["4(2,2)"],
        Ring(32),
        frac_bits=5,
        input_shape=(2, 6, 6),
        chunk_cols=chunk,
    )


# --------------------------------------------------------------------- #
# block lowering primitives
# --------------------------------------------------------------------- #
class TestColumnBlocks:
    def test_partition_covers_exactly(self):
        assert list(column_blocks(10, 3)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert list(column_blocks(10, None)) == [(0, 10)]
        assert list(column_blocks(10, 100)) == [(0, 10)]
        assert list(column_blocks(0, 4)) == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            list(column_blocks(10, 0))
        with pytest.raises(ConfigError):
            list(column_blocks(-1, 2))


class TestBlockLowering:
    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, 1000])
    def test_im2col_blocks_equal_full(self, rng, ring32, chunk):
        spec = Im2colSpec(2, 6, 6, 3, 1)
        batch = 3
        act = ring32.sample(rng, (2 * 6 * 6, batch))
        full = lower_shares(spec, act)
        total = batch * spec.n_positions
        parts = [
            lower_shares_block(spec, act, lo, hi)
            for lo, hi in column_blocks(total, chunk)
        ]
        assert (np.concatenate(parts, axis=1) == full).all()

    def test_block_bounds_validated(self, rng, ring32):
        spec = Im2colSpec(1, 4, 4, 3, 1)
        act = ring32.sample(rng, (16, 1))
        with pytest.raises(ConfigError):
            lower_shares_block(spec, act, 2, 1)
        with pytest.raises(ConfigError):
            lower_shares_block(spec, act, 0, spec.n_positions + 1)


# --------------------------------------------------------------------- #
# BlockedShare
# --------------------------------------------------------------------- #
class TestBlockedShare:
    def test_columns_any_range(self, rng, ring32):
        full = ring32.sample(rng, (4, 20))
        share = BlockedShare.from_array(full, chunk=6)
        assert share.shape == (4, 20)
        assert share.n_blocks == 4
        for lo, hi in [(0, 20), (0, 6), (6, 12), (3, 15), (5, 6), (19, 20), (7, 7)]:
            assert (share.columns(lo, hi) == full[:, lo:hi]).all()
        assert (share.materialize() == full).all()

    def test_inside_block_is_zero_copy(self, rng, ring32):
        full = ring32.sample(rng, (2, 12))
        share = BlockedShare.from_array(full, chunk=4)
        view = share.columns(1, 3)
        assert view.base is not None  # a view into the block, not a copy

    def test_validation(self, ring32):
        with pytest.raises(ConfigError):
            BlockedShare([])
        with pytest.raises(ConfigError):
            BlockedShare([ring32.zeros((2, 3)), ring32.zeros((3, 3))])
        share = BlockedShare([ring32.zeros((2, 3))])
        with pytest.raises(ConfigError):
            share.columns(-1, 2)
        with pytest.raises(ConfigError):
            share.columns(2, 5)


# --------------------------------------------------------------------- #
# index overflow guards (satellite b)
# --------------------------------------------------------------------- #
class TestOverflowGuards:
    def test_im2col_overflow_names_dimension(self):
        with pytest.raises(ConfigError, match="in_channels"):
            Im2colSpec(2**22, 2**21, 2**21, 3, 1)

    def test_im2col_chunk_validation(self):
        with pytest.raises(ConfigError):
            Im2colSpec(1, 4, 4, 3, 1, chunk_cols=0)
        spec = Im2colSpec(1, 4, 4, 3, 1, chunk_cols=2)
        assert spec.chunk_cols == 2

    def test_pool_overflow_names_dimension(self):
        with pytest.raises(ConfigError, match="channels"):
            PoolSpec(2**22, 2**21, 2**21, 2)


# --------------------------------------------------------------------- #
# engine-level: online_block == online columns
# --------------------------------------------------------------------- #
class TestEngineBlocks:
    def _engine(self, rng, ring, m=3, n=4, o=11):
        config = TripletConfig(
            ring=ring,
            scheme=FragmentScheme.ternary(),
            m=m,
            n=n,
            o=o,
            group=None,
        )
        w = ring.sample(rng, (m, n))
        engine = SecureMatmulServer(None, w, config)
        u = ring.sample(rng, (m, o))
        engine.preload(u)
        return engine, config, u

    def test_online_block_matches_online(self, rng, ring32):
        engine, config, _u = self._engine(rng, ring32)
        z0 = ring32.sample(rng, config.r_shape)
        full = engine.online(z0)
        for chunk in (1, 2, 5, 11, 100):
            parts = [
                engine.online_block(z0[:, lo:hi], lo, hi)
                for lo, hi in column_blocks(config.o, chunk)
            ]
            assert (np.concatenate(parts, axis=1) == full).all()

    def test_online_block_validates(self, rng, ring32):
        engine, config, _u = self._engine(rng, ring32)
        z0 = ring32.sample(rng, config.r_shape)
        with pytest.raises(ConfigError):
            engine.online_block(z0[:, 0:2], 0, 3)  # width mismatch
        with pytest.raises(ConfigError):
            engine.online_block(z0[:, 0:2], 10, 12)  # out of range

    def test_blocked_u_preload_and_columns(self, rng, ring32):
        engine, config, u = self._engine(rng, ring32)
        blocked = BlockedShare.from_array(u, chunk=3)
        engine.preload(blocked)
        assert (engine.u == u).all()
        assert (engine.u_columns(2, 7) == u[:, 2:7]).all()


# --------------------------------------------------------------------- #
# protocol-level: secure logits byte-identical across chunkings
# --------------------------------------------------------------------- #
class TestSecureEquivalence:
    def test_chunked_logits_byte_identical(self, test_group):
        rng = np.random.default_rng(77)
        x = rng.random((2, 2 * 6 * 6))
        baseline = None
        chunks = CHUNKS + [4, 16] if SOAK else CHUNKS
        for chunk in chunks:
            model = _quantize(chunk)
            report = secure_predict(model, x, group=test_group, seed=21)
            if baseline is None:
                baseline = report.logits_int
                expected = model.forward_int(model.encoder.encode(x.T))
                assert (baseline == expected).all()
            assert (report.logits_int == baseline).all(), f"chunk={chunk}"
            assert check_conformance(report.client_trace) == [], f"chunk={chunk}"


# --------------------------------------------------------------------- #
# per-layer RSS: chunked <= budget < unchunked (soak only)
# --------------------------------------------------------------------- #
#: The three conv layers of ``vgg_imagenet(base=8, side=130)`` at batch 2,
#: each streamed in 512-column blocks.
RSS_SIDE, RSS_BASE, RSS_BATCH, RSS_CHUNK = 130, 8, 2, 512
#: Allocator and interpreter headroom over the closed-form chunked working set.
RSS_SLACK_BYTES = 4 * 1024 * 1024
#: A layer is gated only when its unchunked closed form exceeds the budget
#: by this factor, so the gate is provable rather than borderline.
GATE_MARGIN = 1.5


def _layer_rss_worker(payload: dict) -> dict:
    """One conv layer's server linear pass: its RSS delta and output checksum.

    Builds the weights, the activation share and the preloaded ``U``
    first, then resets the RSS high-water mark, so the delta is the
    transient working set of lowering + matmul alone.  Both legs draw
    the same ``U``; the chunked leg re-slices it into bank blocks.
    """
    ring = Ring(32)
    spec = Im2colSpec(payload["c_in"], payload["side"], payload["side"], 3, 1)
    chunk = payload["chunk_cols"]
    total = RSS_BATCH * spec.n_positions
    m = payload["c_out"]
    rng = np.random.default_rng(20260817)
    w = ring.reduce(rng.integers(-3, 4, size=(m, spec.patch_len)))
    activation = ring.sample(rng, (spec.in_channels * spec.height * spec.width, RSS_BATCH))
    config = TripletConfig(
        ring=ring, scheme=FragmentScheme.ternary(), m=m, n=spec.patch_len, o=total,
        group=None,
    )
    engine = SecureMatmulServer(None, w, config)
    u_full = ring.sample(rng, (m, total))
    if chunk is None:
        engine.preload(u_full)
    else:
        engine.preload(
            BlockedShare(
                [np.ascontiguousarray(u_full[:, lo:hi]) for lo, hi in column_blocks(total, chunk)]
            )
        )
        del u_full

    reset = reset_peak_rss()
    rss_before = peak_rss_bytes()
    if chunk is None:
        out = engine.online(lower_shares(spec, activation))
    else:
        out = ring.zeros((m, total))
        for lo, hi in column_blocks(total, chunk):
            out[:, lo:hi] = engine.online_block(
                lower_shares_block(spec, activation, lo, hi), lo, hi
            )
    return {
        "delta": peak_rss_bytes() - rss_before,
        "reset": reset,
        "checksum": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest(),
    }


def _in_fresh_child(payload: dict) -> dict:
    """Run one leg in its own spawned process, so no leg's peak hides in
    another's RSS history."""
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(_layer_rss_worker, payload).result()


class TestLayerRss:
    @pytest.mark.skipif(not SOAK, reason="per-layer RSS legs need ABNN2_SERVE_SOAK=1")
    def test_chunked_rss_within_budget_below_unchunked_soak(self):
        mib = 1024 * 1024
        s1 = (RSS_SIDE - 2) // 2
        s2 = (s1 - 2) // 2
        layers = [
            ("conv1", 3, RSS_BASE, RSS_SIDE),
            ("conv2", RSS_BASE, 2 * RSS_BASE, s1),
            ("conv3", 2 * RSS_BASE, 4 * RSS_BASE, s2),
        ]
        failures = []
        for name, c_in, c_out, side in layers:
            spec = Im2colSpec(c_in, side, side, 3, 1)
            total = RSS_BATCH * spec.n_positions
            budget = (
                c_out * total * 8
                + linear_working_set_bytes(c_out, spec.patch_len, total, RSS_CHUNK)
                + RSS_SLACK_BYTES
            )
            gated = (
                linear_working_set_bytes(c_out, spec.patch_len, total, None)
                >= GATE_MARGIN * budget
            )
            legs = {
                leg: _in_fresh_child(
                    dict(c_in=c_in, c_out=c_out, side=side, chunk_cols=chunk)
                )
                for leg, chunk in (("unchunked", None), ("chunked", RSS_CHUNK))
            }
            chunked, unchunked = legs["chunked"]["delta"], legs["unchunked"]["delta"]
            print(
                f"{name}: unchunked delta {unchunked / mib:.1f} MiB, chunked "
                f"{chunked / mib:.1f} MiB, budget {budget / mib:.1f} MiB"
                f"{' [gated]' if gated else ''}"
            )
            if legs["chunked"]["checksum"] != legs["unchunked"]["checksum"]:
                failures.append(f"{name}: chunked output differs from unchunked")
            if gated and legs["chunked"]["reset"] and not chunked <= budget < unchunked:
                failures.append(
                    f"{name}: want chunked {chunked} <= budget {budget} < unchunked {unchunked}"
                )
        assert failures == []


# --------------------------------------------------------------------- #
# big-model zoo (tentpole part 3)
# --------------------------------------------------------------------- #
class TestBigModelZoo:
    def test_constructors_validate_geometry(self):
        with pytest.raises(ConfigError):
            vgg_cifar(side=7)
        with pytest.raises(ConfigError):
            vgg_imagenet(side=20)  # side % 4 != 2
        with pytest.raises(ConfigError):
            synthetic_images(0)

    def test_synthetic_images_shape_and_determinism(self):
        x, y = synthetic_images(6, channels=3, side=12, classes=4, seed=5)
        x2, y2 = synthetic_images(6, channels=3, side=12, classes=4, seed=5)
        assert x.shape == (6, 3 * 12 * 12) and y.shape == (6,)
        assert (x == x2).all() and (y == y2).all()
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert set(np.unique(y)).issubset(set(range(4)))

    def test_zoo_headroom_and_forward(self):
        side = 16 if not SOAK else 32
        net = vgg_cifar(base=2, side=side)
        x, _y = synthetic_images(2, side=side, seed=3)
        logits = net.forward(x.reshape(-1, 3, side, side))
        assert logits.shape == (2, 10)
        qm = quantize_model(
            net,
            TABLE2_SCHEMES["4(2,2)"],
            Ring(32),
            frac_bits=5,
            input_shape=(3, side, side),
            chunk_cols=32,
        )
        conv_layers = [l for l in qm.layers if l.conv is not None]
        assert conv_layers and all(l.conv.chunk_cols == 32 for l in conv_layers)

    @pytest.mark.skipif(not SOAK, reason="full zoo equivalence needs ABNN2_SERVE_SOAK=1")
    def test_zoo_secure_chunked_equivalence_soak(self, test_group):
        side = 18
        net = vgg_imagenet(base=2, side=side)
        rng = np.random.default_rng(9)
        x = rng.random((2, 3 * side * side))
        base = quantize_model(
            net, TABLE2_SCHEMES["4(2,2)"], Ring(32), frac_bits=5,
            input_shape=(3, side, side),
        )
        baseline = None
        for chunk in (None, 1, 7, 64, 10**6):
            report = secure_predict(
                set_chunk_cols(base, chunk), x, group=test_group, seed=31
            )
            if baseline is None:
                baseline = report.logits_int
            assert (report.logits_int == baseline).all(), f"chunk={chunk}"
            assert check_conformance(report.client_trace) == [], f"chunk={chunk}"


# --------------------------------------------------------------------- #
# model plumbing: set_chunk_cols / quantize / persist
# --------------------------------------------------------------------- #
class TestChunkPlumbing:
    def test_set_chunk_cols_shares_weights(self):
        qm = _quantize()
        qc = set_chunk_cols(qm, 9)
        convs = [l for l in qc.layers if l.conv is not None]
        assert convs and all(l.conv.chunk_cols == 9 for l in convs)
        assert all(l.conv.chunk_cols is None for l in qm.layers if l.conv)
        for a, b in zip(qm.layers, qc.layers):
            assert a.weights is b.weights  # no weight copies
        back = set_chunk_cols(qc, None)
        assert all(l.conv.chunk_cols is None for l in back.layers if l.conv)

    def test_persist_roundtrip_keeps_chunk_cols(self, tmp_path):
        from repro.nn.persist import load_meta, load_model, save_meta, save_model

        qc = _quantize(chunk=5)
        save_model(tmp_path / "m.npz", qc)
        loaded = load_model(tmp_path / "m.npz")
        assert [l.conv.chunk_cols for l in loaded.layers if l.conv] == [5, 5]
        meta = ModelMeta.from_model(qc)
        save_meta(tmp_path / "meta.json", meta)
        loaded_meta = load_meta(tmp_path / "meta.json")
        assert [l.conv.chunk_cols for l in loaded_meta.layers if l.conv] == [5, 5]

    def test_unchunked_bundle_has_no_chunk_key(self, tmp_path):
        """Old loaders must keep reading unchunked bundles: the optional
        field is omitted entirely when unset."""
        from repro.nn.persist import save_meta
        import json

        meta = ModelMeta.from_model(_quantize())
        save_meta(tmp_path / "meta.json", meta)
        doc = json.loads((tmp_path / "meta.json").read_text())
        for info in doc["layers"]:
            if info["conv"]:
                assert "chunk_cols" not in info["conv"]
