"""Secure convolution: im2col lowering on shares + end-to-end conv nets."""

import numpy as np
import pytest

from repro.core.protocol import ModelMeta, secure_predict
from repro.errors import ConfigError, QuantizationError
from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
from repro.nn.lowering import Im2colSpec, conv_bias_vector, lift_output, lower_shares
from repro.nn.winograd import WinogradSpec, lower_tiles
from repro.nn.model import Sequential
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


@pytest.fixture
def spec():
    return Im2colSpec(in_channels=2, height=6, width=6, kernel=3, stride=1)


class TestIm2colSpec:
    def test_geometry(self, spec):
        assert (spec.out_h, spec.out_w) == (4, 4)
        assert spec.n_positions == 16
        assert spec.in_features == 72
        assert spec.patch_len == 18

    def test_strided(self):
        s = Im2colSpec(1, 8, 8, kernel=3, stride=2)
        assert (s.out_h, s.out_w) == (3, 3)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            Im2colSpec(1, 2, 2, kernel=3, stride=1)
        with pytest.raises(ConfigError):
            Im2colSpec(0, 4, 4, kernel=1, stride=1)

    def test_diagnostics_name_the_offending_parameter(self):
        """Split messages: each failure mode cites the parameter at fault."""
        with pytest.raises(ConfigError, match="kernel 5 does not fit"):
            Im2colSpec(1, 4, 4, kernel=5, stride=1)
        with pytest.raises(ConfigError, match="kernel 3 does not fit a 8x2"):
            Im2colSpec(1, 8, 2, kernel=3, stride=1)

    def test_stride_gaps_need_opt_in(self):
        """stride > kernel skips input columns: rejected unless opted in."""
        with pytest.raises(ConfigError, match="allow_gaps"):
            Im2colSpec(1, 8, 8, kernel=2, stride=3)
        spec = Im2colSpec(1, 8, 8, kernel=2, stride=3, allow_gaps=True)
        assert (spec.out_h, spec.out_w) == (3, 3)

    def test_gather_indices_bounds(self, spec):
        idx = spec.gather_indices()
        assert idx.shape == (spec.patch_len, spec.n_positions)
        assert idx.min() >= 0 and idx.max() < spec.in_features


class TestLowerLift:
    def test_matches_float_im2col(self, spec, rng):
        """Lowered shares must agree with the reference float im2col."""
        from repro.nn.layers import im2col

        batch = 3
        x = rng.integers(0, 100, size=(spec.in_features, batch)).astype(np.uint64)
        lowered = lower_shares(spec, x)
        assert lowered.shape == (spec.patch_len, spec.n_positions * batch)
        # reference: float path, image-major columns
        imgs = x.T.reshape(batch, spec.in_channels, spec.height, spec.width)
        cols, _, _ = im2col(imgs.astype(np.float64), spec.kernel, spec.kernel, spec.stride)
        ref = np.concatenate([cols[b].T for b in range(batch)], axis=1)
        assert (lowered == ref.astype(np.uint64)).all()

    def test_lowering_is_additive(self, spec, rng):
        """im2col commutes with secret sharing: the security-critical fact."""
        ring = Ring(32)
        z = ring.sample(rng, (spec.in_features, 2))
        z1 = ring.sample(rng, (spec.in_features, 2))
        z0 = ring.sub(z, z1)
        left = ring.add(lower_shares(spec, z0), lower_shares(spec, z1))
        assert (left == lower_shares(spec, z)).all()

    def test_lift_inverts_product_layout(self, spec, rng):
        oc, batch = 5, 2
        product = rng.integers(0, 1000, size=(oc, batch * spec.n_positions)).astype(np.uint64)
        lifted = lift_output(spec, oc, product)
        assert lifted.shape == (oc * spec.n_positions, batch)
        # channel 2, position 7, image 1:
        assert lifted[2 * spec.n_positions + 7, 1] == product[2, 1 * spec.n_positions + 7]

    def test_shape_validation(self, spec):
        with pytest.raises(ConfigError):
            lower_shares(spec, np.zeros((3, 1), dtype=np.uint64))
        with pytest.raises(ConfigError):
            lift_output(spec, 4, np.zeros((4, 7), dtype=np.uint64))

    def test_conv_bias_vector(self, spec):
        out = conv_bias_vector(spec, np.array([1, 2]))
        assert out.shape == (2 * spec.n_positions,)
        assert (out[: spec.n_positions] == 1).all()

    def test_conv_bias_vector_validates_length(self, spec):
        with pytest.raises(ConfigError, match="2 channels, layer expects 3"):
            conv_bias_vector(spec, np.array([1, 2]), out_channels=3)
        with pytest.raises(ConfigError, match="1-D"):
            conv_bias_vector(spec, np.array([[1, 2]]), out_channels=2)
        out = conv_bias_vector(spec, np.array([1, 2]), out_channels=2)
        assert out.shape == (2 * spec.n_positions,)

    def test_lift_rejects_zero_width_product(self, spec):
        """A batched round sliced to zero client columns must surface as
        a typed ConfigError, not a bare reshape failure."""
        with pytest.raises(ConfigError, match="no columns"):
            lift_output(spec, 4, np.zeros((4, 0), dtype=np.uint64))


class TestBackendProperties:
    """Both lowerings commute with additive sharing over random
    non-square geometries (the Winograd input transform is kept for the
    end-to-end probe only)."""

    def test_im2col_additive_random_geometries(self):
        ring = Ring(32)
        rng = np.random.default_rng(2024)
        for _ in range(25):
            c, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h, w = int(rng.integers(k, k + 5)), int(rng.integers(k, k + 5))
            stride = int(rng.integers(1, k + 1))
            spec = Im2colSpec(c, h, w, kernel=k, stride=stride)
            batch = int(rng.integers(1, 4))
            z = ring.sample(rng, (spec.in_features, batch))
            z1 = ring.sample(rng, (spec.in_features, batch))
            z0 = ring.sub(z, z1)
            left = ring.add(lower_shares(spec, z0), lower_shares(spec, z1))
            assert (left == lower_shares(spec, z)).all()

    def test_im2col_additive_with_gaps(self):
        ring = Ring(32)
        rng = np.random.default_rng(7)
        spec = Im2colSpec(2, 9, 7, kernel=2, stride=3, allow_gaps=True)
        z = ring.sample(rng, (spec.in_features, 2))
        z1 = ring.sample(rng, (spec.in_features, 2))
        z0 = ring.sub(z, z1)
        left = ring.add(lower_shares(spec, z0), lower_shares(spec, z1))
        assert (left == lower_shares(spec, z)).all()

    def test_winograd_additive_random_geometries(self):
        """The tile input transform commutes with sharing."""
        ring = Ring(32)
        rng = np.random.default_rng(4096)
        for _ in range(25):
            c = int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            spec = WinogradSpec(c, h, w)
            batch = int(rng.integers(1, 4))
            z = ring.sample(rng, (spec.in_features, batch))
            z1 = ring.sample(rng, (spec.in_features, batch))
            z0 = ring.sub(z, z1)
            left = ring.add(
                lower_tiles(spec, z0, ring), lower_tiles(spec, z1, ring)
            )
            assert (left == lower_tiles(spec, z, ring)).all()


@pytest.fixture(scope="module")
def conv_model():
    return Sequential(
        [
            Conv2d(1, 3, kernel_size=3, seed=1),
            ReLU(),
            Conv2d(3, 4, kernel_size=3, stride=2, seed=2),
            ReLU(),
            Flatten(),
            Dense(4 * 2 * 2, 5, seed=3),
        ]
    )


@pytest.fixture(scope="module")
def conv_inputs():
    rng = np.random.default_rng(9)
    return rng.uniform(0, 1, size=(3, 1, 8, 8))


class TestQuantizedConvModel:
    def test_integer_path_matches_float(self, conv_model, conv_inputs):
        qm = quantize_model(
            conv_model,
            FragmentScheme.from_bits((2, 2, 2, 2)),
            Ring(32),
            frac_bits=8,
            input_shape=(1, 8, 8),
        )
        flat = conv_inputs.reshape(conv_inputs.shape[0], -1)
        got = qm.logits_float(flat)
        expect = conv_model.forward(conv_inputs)
        assert np.abs(got - expect).max() < 0.5

    def test_conv_requires_input_shape(self, conv_model):
        with pytest.raises(QuantizationError):
            quantize_model(conv_model, FragmentScheme.ternary(), Ring(32))

    def test_channel_mismatch_detected(self):
        model = Sequential([Conv2d(3, 2, kernel_size=2, seed=0)])
        with pytest.raises(QuantizationError):
            quantize_model(
                model, FragmentScheme.ternary(), Ring(32), input_shape=(1, 4, 4)
            )

    def test_meta_carries_conv_geometry(self, conv_model):
        qm = quantize_model(
            conv_model, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8)
        )
        meta = ModelMeta.from_model(qm)
        assert meta.layers[0].conv is not None
        assert meta.layers[0].matmul_cols == 9  # 1 * 3 * 3
        assert meta.layers[0].batch_multiplier() == 36  # 6x6 positions
        assert meta.layers[2].conv is None

    def test_secure_conv_prediction(self, conv_model, conv_inputs, test_group):
        ring = Ring(32)
        qm = quantize_model(
            conv_model,
            FragmentScheme.from_bits((2, 2)),
            ring,
            frac_bits=6,
            input_shape=(1, 8, 8),
        )
        flat = conv_inputs.reshape(conv_inputs.shape[0], -1)
        report = secure_predict(qm, flat, group=test_group)
        assert (report.predictions == qm.predict(flat)).all()
        ref = ring.to_signed(qm.forward_int(qm.encoder.encode(flat.T)))
        got = ring.to_signed(report.logits_int)
        assert np.abs(got - ref).max() <= 512  # share-local truncation slack

    def test_secure_conv_ternary_exact(self, conv_model, conv_inputs, test_group):
        ring = Ring(32)
        qm = quantize_model(
            conv_model, FragmentScheme.ternary(), ring, frac_bits=6, input_shape=(1, 8, 8)
        )
        flat = conv_inputs.reshape(conv_inputs.shape[0], -1)
        report = secure_predict(qm, flat, group=test_group)
        expect = qm.forward_int(qm.encoder.encode(flat.T))
        assert (report.logits_int == expect).all()
