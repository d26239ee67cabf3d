"""Winograd F(2x2,3x3) backend: transforms, grouped triplets, protocol.

The contract under test (docs/PROTOCOLS.md §14): the tile backend is a
per-layer-selectable drop-in next to im2col — byte-identical logits on
the same quantized model — while drawing 2.25x fewer triplet elements
for stride-1 3x3 convolutions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matmul import SecureMatmulClient, SecureMatmulServer
from repro.core.protocol import ModelMeta, layer_triplet_config, secure_predict
from repro.core.triplets import TripletConfig
from repro.errors import ConfigError, QuantizationError
from repro.net import run_protocol
from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
from repro.nn.lowering import Im2colSpec, lift_output, lower_shares
from repro.nn.model import Sequential
from repro.nn.quantize import QuantizedDense, quantize_model
from repro.nn.winograd import (
    WINOGRAD_OUTPUT_SCALE,
    WinogradSpec,
    check_winograd_headroom,
    divide_share_by4,
    lift_tiles,
    lower_tiles,
    transform_weights,
    winograd_scheme,
)
from repro.quant.fragments import FragmentScheme
from repro.quant.schemes import quantize_for_scheme
from repro.utils.ring import Ring


def _conv_via_winograd(spec, w_int, x_ring, ring):
    """The full integer tile pipeline: lower -> grouped matmul -> lift -> /4."""
    operand = lower_tiles(spec, x_ring, ring)
    wt = ring.reduce(transform_weights(spec, w_int))
    oc = w_int.shape[0]
    prod = ring.zeros((16 * oc, operand.shape[1]))
    for g in range(16):
        prod[g * oc : (g + 1) * oc] = ring.matmul(
            wt[g * oc : (g + 1) * oc],
            operand[g * spec.in_channels : (g + 1) * spec.in_channels],
        )
    lifted = lift_tiles(spec, oc, prod, ring)
    return ring.reduce(ring.to_signed(lifted) >> np.int64(2))


def _conv_via_im2col(ispec, w_int, x_ring, ring):
    prod = ring.matmul(ring.reduce(w_int), lower_shares(ispec, x_ring))
    return lift_output(ispec, w_int.shape[0], prod)


class TestWinogradSpec:
    def test_geometry(self):
        spec = WinogradSpec(2, 8, 8)
        assert (spec.out_h, spec.out_w) == (6, 6)
        assert (spec.tiles_h, spec.tiles_w) == (3, 3)
        assert spec.n_tiles == 9
        assert (spec.pad_h, spec.pad_w) == (8, 8)

    def test_odd_output_pads(self):
        spec = WinogradSpec(1, 7, 6)  # out 5x4 -> tiles 3x2
        assert spec.n_tiles == 6
        assert spec.pad_h == 8 and spec.pad_w == 6

    def test_eligibility(self):
        assert WinogradSpec.supports(Im2colSpec(1, 8, 8, kernel=3, stride=1))
        assert not WinogradSpec.supports(Im2colSpec(1, 8, 8, kernel=3, stride=2))
        assert not WinogradSpec.supports(Im2colSpec(1, 8, 8, kernel=2, stride=1))
        with pytest.raises(ConfigError):
            WinogradSpec.from_im2col(Im2colSpec(1, 8, 8, kernel=3, stride=2))
        with pytest.raises(ConfigError):
            WinogradSpec(1, 2, 5)


class TestTransforms:
    @pytest.mark.parametrize("h,w,ci,oc", [(8, 8, 2, 3), (7, 5, 1, 2), (3, 3, 3, 1)])
    def test_matches_plaintext_conv(self, h, w, ci, oc, rng):
        """Integer tile pipeline == direct conv, exactly, any geometry."""
        ring = Ring(32)
        spec = WinogradSpec(ci, h, w)
        ispec = Im2colSpec(ci, h, w, kernel=3, stride=1)
        w_int = rng.integers(-4, 5, size=(oc, ci * 9))
        x = ring.sample(rng, (spec.in_features, 3))
        # keep activations small enough that 4*conv fits the ring headroom
        x = ring.reduce(x & np.uint64(0xFFF))
        got = _conv_via_winograd(spec, w_int, x, ring)
        want = _conv_via_im2col(ispec, w_int, x, ring)
        assert (got == want).all()

    def test_lowering_is_additive(self, rng):
        """B^T d B on shares: the security-critical commutation."""
        ring = Ring(32)
        spec = WinogradSpec(2, 6, 6)
        z = ring.sample(rng, (spec.in_features, 2))
        z1 = ring.sample(rng, (spec.in_features, 2))
        z0 = ring.sub(z, z1)
        left = ring.add(lower_tiles(spec, z0, ring), lower_tiles(spec, z1, ring))
        assert (left == lower_tiles(spec, z, ring)).all()

    def test_lifting_is_additive(self, rng):
        ring = Ring(32)
        spec = WinogradSpec(1, 6, 6)
        shape = (16 * 3, 2 * spec.n_tiles)
        p = ring.sample(rng, shape)
        p1 = ring.sample(rng, shape)
        p0 = ring.sub(p, p1)
        left = ring.add(
            lift_tiles(spec, 3, p0, ring), lift_tiles(spec, 3, p1, ring)
        )
        assert (left == lift_tiles(spec, 3, p, ring)).all()

    def test_lift_rejects_zero_width(self):
        ring = Ring(32)
        spec = WinogradSpec(1, 6, 6)
        with pytest.raises(ConfigError, match="no columns"):
            lift_tiles(spec, 2, np.zeros((32, 0), dtype=np.uint64), ring)

    def test_transform_weights_shape_and_scale(self, rng):
        spec = WinogradSpec(2, 6, 6)
        w_int = rng.integers(-1, 2, size=(3, 18))
        wt = transform_weights(spec, w_int)
        assert wt.shape == (48, 2)
        # G2 = 2G: transformed weights are 4x the rational G g G^T form,
        # so the flat-kernel tile point (G row (1,1,1)) is the kernel sum.
        g = w_int.reshape(3, 2, 3, 3)
        p = 4 * 1 + 1  # tile point (a=1, b=1): rows (1,1,1) both sides
        assert (wt[p * 3 : (p + 1) * 3].T == g.sum(axis=(2, 3)).T).all()
        with pytest.raises(ConfigError):
            transform_weights(spec, w_int[:, :17])


class TestDivideBy4:
    @pytest.mark.parametrize("bits", [32, 64])
    def test_exact_on_small_values(self, bits, rng):
        """u + v = 4Z with |Z| << 2^l: division is exact w.h.p. (the
        failure probability at |Z| <= 2^12 is ~2^-18 per element, so a
        fixed-seed batch of 2000 is deterministically clean)."""
        ring = Ring(bits)
        z = rng.integers(-(2**12), 2**12, size=2000)
        m = ring.reduce(4 * z)
        v = ring.sample(rng, m.shape)
        u = ring.sub(m, v)
        got = ring.add(
            divide_share_by4(ring, u, party=0), divide_share_by4(ring, v, party=1)
        )
        assert (got == ring.reduce(z)).all()

    def test_wrap_failure_signature(self):
        """When the share split fails to wrap, the error is exactly the
        carry constant 2^(l-2) — the SecureML truncation failure class."""
        ring = Ring(8)
        z = np.arange(1, 32)  # positive: v=0 gives a non-wrapping split
        m = ring.reduce(4 * z)
        u, v = m, np.zeros_like(m)
        got = ring.add(
            divide_share_by4(ring, u, party=0), divide_share_by4(ring, v, party=1)
        )
        diff = ring.sub(got, ring.reduce(z))
        assert set(np.unique(diff)) <= {np.uint64(0), np.uint64(3 * 2**6)}

    def test_validation(self):
        ring = Ring(32)
        with pytest.raises(ConfigError):
            divide_share_by4(ring, np.zeros(1, dtype=np.uint64), party=2)
        with pytest.raises(ConfigError):
            divide_share_by4(Ring(2), np.zeros(1, dtype=np.uint64), party=0)


class TestHeadroom:
    def test_winograd_scheme_widens(self):
        base = FragmentScheme.ternary()
        wide = winograd_scheme(base)
        lo, hi = wide.weight_range
        assert lo <= -9 and hi >= 9  # covers 9 * max|w|
        assert wide.signed

    def test_check_refuses_narrow_ring(self):
        with pytest.raises(ConfigError, match="ring bits"):
            check_winograd_headroom(16, FragmentScheme.ternary(), 4, 6)
        check_winograd_headroom(32, FragmentScheme.ternary(), 4, 6)

    def test_quantize_model_refuses_narrow_ring(self, wino_net):
        with pytest.raises(ConfigError):
            quantize_model(
                wino_net,
                FragmentScheme.ternary(),
                Ring(16),
                frac_bits=6,
                input_shape=(1, 8, 8),
                linear_backend="winograd",
            )


class TestGroupedTriplets:
    def test_block_diagonal_product(self, test_group, rng):
        """U + V must equal the blockwise product, not the dense one."""
        ring = Ring(32)
        scheme = winograd_scheme(FragmentScheme.ternary())
        config = TripletConfig(
            ring=ring, scheme=scheme, m=2, n=3, o=4, groups=16, group=test_group
        )
        lo, hi = scheme.weight_range
        w = rng.integers(lo, hi + 1, size=config.w_shape)
        r = ring.sample(rng, config.r_shape)

        def server_fn(chan):
            engine = SecureMatmulServer(chan, w, config, seed=1)
            engine.offline()
            return engine

        def client_fn(chan):
            engine = SecureMatmulClient(chan, config, np.random.default_rng(5), r_mat=r, seed=2)
            engine.offline()
            return engine

        result = run_protocol(server_fn, client_fn)
        z0 = ring.sample(rng, config.r_shape)
        y = ring.add(result.server.online(z0), result.client.online())
        expect = ring.zeros(config.out_shape)
        for g in range(16):
            expect[g * 2 : (g + 1) * 2] = ring.matmul(
                ring.reduce(w[g * 2 : (g + 1) * 2]),
                ring.add(z0, r)[g * 3 : (g + 1) * 3],
            )
        assert (y == expect).all()

    def test_sharded_draw_matches_sequential(self, test_group, rng):
        """The exec engine must honor the grouped (tile) triplet shape."""
        from repro.core.triplets import (
            generate_triplets_client,
            generate_triplets_server,
        )
        from repro.exec import (
            ShardPlan,
            parallel_triplets_client,
            parallel_triplets_server,
        )

        ring = Ring(32)
        scheme = winograd_scheme(FragmentScheme.ternary())
        config = TripletConfig(
            ring=ring, scheme=scheme, m=2, n=2, o=3, groups=16, group=test_group
        )
        lo, hi = scheme.weight_range
        w = rng.integers(lo, hi + 1, size=config.w_shape)
        r = ring.sample(rng, config.r_shape)
        plan = ShardPlan(shards=2, workers=2)

        seq = run_protocol(
            lambda ch: generate_triplets_server(ch, w, config, seed=1),
            lambda ch: generate_triplets_client(
                ch, r, config, np.random.default_rng(4), seed=2
            ),
        )
        par = run_protocol(
            lambda ch: parallel_triplets_server(ch, w, config, plan, seed=1),
            lambda ch: parallel_triplets_client(ch, r, config, plan, seed=2),
        )
        assert par.server.shape == config.out_shape
        expect = ring.zeros(config.out_shape)
        for g in range(16):
            expect[g * 2 : (g + 1) * 2] = ring.matmul(
                ring.reduce(w[g * 2 : (g + 1) * 2]), r[g * 2 : (g + 1) * 2]
            )
        assert (ring.add(seq.server, seq.client) == expect).all()
        assert (ring.add(par.server, par.client) == expect).all()


@pytest.fixture(scope="module")
def wino_net():
    return Sequential(
        [
            Conv2d(1, 2, kernel_size=3, seed=4),
            ReLU(),
            Conv2d(2, 3, kernel_size=3, seed=5),
            ReLU(),
            Flatten(),
            Dense(3 * 4 * 4, 4, seed=6),
        ]
    )


@pytest.fixture(scope="module")
def wino_inputs():
    rng = np.random.default_rng(77)
    return rng.uniform(0, 1, size=(2, 64))


def _quantize(net, backend, ring_bits=32):
    return quantize_model(
        net,
        FragmentScheme.ternary(),
        Ring(ring_bits),
        frac_bits=6,
        input_shape=(1, 8, 8),
        linear_backend=backend,
    )


class TestQuantizedBackend:
    def test_eligible_layers_marked(self, wino_net):
        qm = _quantize(wino_net, "winograd")
        assert [layer.backend for layer in qm.layers] == [
            "winograd", "winograd", "im2col",
        ]

    def test_ineligible_geometry_stays_im2col(self):
        net = Sequential(
            [Conv2d(1, 2, kernel_size=3, stride=2, seed=0), ReLU(), Flatten(),
             Dense(2 * 9, 3, seed=1)]
        )
        qm = quantize_model(
            net, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8),
            linear_backend="winograd",
        )
        assert [layer.backend for layer in qm.layers] == ["im2col", "im2col"]

    def test_unknown_backend_rejected(self, wino_net):
        with pytest.raises(QuantizationError):
            quantize_model(
                wino_net, FragmentScheme.ternary(), Ring(32),
                input_shape=(1, 8, 8), linear_backend="fft",
            )

    def test_dense_layer_refuses_winograd(self, rng):
        tensor = quantize_for_scheme(rng.normal(size=(3, 4)), FragmentScheme.ternary())
        with pytest.raises(QuantizationError):
            QuantizedDense(
                weights=tensor, bias_int=np.zeros(3, dtype=np.int64),
                truncate_bits=0, backend="winograd",
            )

    def test_forward_int_byte_identical(self, wino_net, wino_inputs):
        qi = _quantize(wino_net, "im2col")
        qw = _quantize(wino_net, "winograd")
        x_ring = qi.encoder.encode(np.asarray(wino_inputs).T)
        assert (qi.forward_int(x_ring) == qw.forward_int(x_ring)).all()

    def test_meta_carries_backend(self, wino_net):
        meta = ModelMeta.from_model(_quantize(wino_net, "winograd"))
        assert [layer.backend for layer in meta.layers] == ["winograd", "winograd", "im2col"]

    def test_layer_refuses_unknown_backend(self, rng):
        tensor = quantize_for_scheme(rng.normal(size=(3, 4)), FragmentScheme.ternary())
        with pytest.raises(QuantizationError, match="unknown linear backend"):
            QuantizedDense(
                weights=tensor, bias_int=np.zeros(3, dtype=np.int64),
                truncate_bits=0, backend="fft",
            )

    def test_meta_grouped_dimensions(self, wino_net):
        meta = ModelMeta.from_model(_quantize(wino_net, "winograd"))
        layer0 = meta.layers[0]
        assert layer0.matmul_groups == 16
        assert layer0.matmul_cols == 1  # C_in per tile point
        assert layer0.batch_multiplier() == 9  # 3x3 tiles on a 6x6 map
        assert layer0.ot_scheme.name != layer0.scheme.name
        config = layer_triplet_config(Ring(32), layer0, 2)
        assert config.rows == 32 and config.r_shape == (16, 18)
        # the 2.25x: 16 elements per tile vs 9 per position * 4 positions
        im2col_elements = 2 * 9 * 36 * 2
        wino_elements = config.rows * config.n * config.o
        assert im2col_elements / wino_elements == 2.25


class TestSecureWinograd:
    def test_secure_equals_plaintext_and_im2col(
        self, wino_net, wino_inputs, test_group
    ):
        qw = _quantize(wino_net, "winograd")
        qi = _quantize(wino_net, "im2col")
        rep_w = secure_predict(qw, wino_inputs, group=test_group, seed=11)
        rep_i = secure_predict(qi, wino_inputs, group=test_group, seed=11)
        expect = qw.forward_int(qw.encoder.encode(np.asarray(wino_inputs).T))
        assert (rep_w.logits_int == expect).all()
        assert (rep_w.logits_int == rep_i.logits_int).all()


class TestPersistence:
    def test_model_and_meta_roundtrip_backend(self, wino_net, tmp_path):
        from repro.nn.persist import load_meta, load_model, save_meta, save_model

        qw = _quantize(wino_net, "winograd")
        save_model(tmp_path / "m.npz", qw)
        loaded = load_model(tmp_path / "m.npz")
        assert [l.backend for l in loaded.layers] == [
            l.backend for l in qw.layers
        ]
        meta = ModelMeta.from_model(qw)
        save_meta(tmp_path / "meta.json", meta)
        loaded_meta = load_meta(tmp_path / "meta.json")
        assert [l.backend for l in loaded_meta.layers] == [
            l.backend for l in meta.layers
        ]

    def test_old_meta_without_backend_defaults_im2col(self, wino_net, tmp_path):
        import json

        from repro.nn.persist import load_meta, save_meta

        meta = ModelMeta.from_model(_quantize(wino_net, "im2col"))
        save_meta(tmp_path / "meta.json", meta)
        doc = json.loads((tmp_path / "meta.json").read_text())
        for info in doc["layers"]:
            info.pop("backend")
        (tmp_path / "old.json").write_text(json.dumps(doc))
        loaded = load_meta(tmp_path / "old.json")
        assert all(l.backend == "im2col" for l in loaded.layers)

    def test_fingerprint_distinguishes_backends(self, wino_net):
        from repro.serve.persist import model_fingerprint

        assert model_fingerprint(_quantize(wino_net, "im2col")) != (
            model_fingerprint(_quantize(wino_net, "winograd"))
        )
