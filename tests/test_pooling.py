"""Secure pooling: share-local average pooling, the only pooling."""

import numpy as np
import pytest

from repro.core.pooling import avgpool_exact, avgpool_share
from repro.core.protocol import ModelMeta, secure_predict
from repro.errors import ConfigError, QuantizationError
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU
from repro.nn.lowering import PoolSpec, gather_windows
from repro.nn.model import Sequential
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


@pytest.fixture
def spec_avg():
    return PoolSpec(channels=2, height=4, width=4, kernel=2)


class TestPoolSpec:
    def test_geometry(self, spec_avg):
        assert spec_avg.out_features == 2 * 2 * 2
        assert spec_avg.window == 4
        assert spec_avg.avg_shift_bits == 2

    def test_avg_needs_pow2(self):
        with pytest.raises(ConfigError):
            PoolSpec(channels=1, height=9, width=9, kernel=3)

    def test_tiling_check(self):
        with pytest.raises(ConfigError):
            PoolSpec(channels=1, height=5, width=4, kernel=2)

    def test_gather_indices_cover_input_once(self, spec_avg):
        idx = spec_avg.gather_indices()
        flat = np.sort(idx.reshape(-1))
        assert (flat == np.arange(spec_avg.in_features)).all()


class TestAvgPool:
    def test_share_local_correctness(self, spec_avg, rng):
        ring = Ring(32)
        values = ring.reduce(rng.integers(0, 1 << 16, size=(spec_avg.in_features, 3)))
        s1 = ring.sample(rng, values.shape)
        s0 = ring.sub(values, s1)
        pooled0 = avgpool_share(ring, spec_avg, s0, party=0)
        pooled1 = avgpool_share(ring, spec_avg, s1, party=1)
        got = ring.to_signed(ring.add(pooled0, pooled1))
        expect = ring.to_signed(avgpool_exact(ring, spec_avg, values))
        assert np.abs(got - expect).max() <= 1  # truncation ulp

    def test_exact_reference(self, spec_avg, rng):
        ring = Ring(32)
        values = ring.reduce(rng.integers(0, 256, size=(spec_avg.in_features, 1)))
        got = ring.to_signed(avgpool_exact(ring, spec_avg, values))
        windows = gather_windows(spec_avg, values)
        expect = windows.astype(np.int64).sum(axis=1) >> 2
        assert (got == expect).all()

def _pooled_model():
    return Sequential(
        [
            Conv2d(1, 4, kernel_size=3, seed=1),
            ReLU(),
            AvgPool2d(2),
            Flatten(),
            Dense(4 * 3 * 3, 5, seed=2),
        ]
    )


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def x(self):
        return np.random.default_rng(9).uniform(0, 1, size=(3, 64))

    def test_quantize_detects_pool(self):
        qm = quantize_model(
            _pooled_model(), FragmentScheme.ternary(), Ring(32),
            input_shape=(1, 8, 8),
        )
        assert qm.layers[0].pool == PoolSpec(channels=4, height=6, width=6, kernel=2)
        assert qm.layers[0].out_features == 4 * 3 * 3
        meta = ModelMeta.from_model(qm)
        assert meta.layers[0].pool == qm.layers[0].pool
        assert meta.layers[0].relu_features == 4 * 36

    def test_pool_without_relu_rejected(self):
        model = Sequential(
            [Conv2d(1, 2, kernel_size=3, seed=0), AvgPool2d(2), ReLU(), Flatten(),
             Dense(2 * 3 * 3, 4, seed=1)]
        )
        with pytest.raises(QuantizationError):
            quantize_model(model, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8))

    def test_pool_after_last_layer_rejected(self):
        model = Sequential(
            [Conv2d(1, 2, kernel_size=3, seed=0), ReLU(), AvgPool2d(2)]
        )
        with pytest.raises(QuantizationError):
            quantize_model(model, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8))

    def test_secure_avgpool_close(self, x, test_group):
        ring = Ring(32)
        qm = quantize_model(
            _pooled_model(), FragmentScheme.ternary(), ring,
            frac_bits=6, input_shape=(1, 8, 8),
        )
        report = secure_predict(qm, x, group=test_group)
        expect = ring.to_signed(qm.forward_int(qm.encoder.encode(x.T)))
        got = ring.to_signed(report.logits_int)
        assert np.abs(got - expect).max() <= 64
        assert (report.predictions == qm.predict(x)).all()

    def test_persistence_roundtrip_with_pool(self, x, tmp_path):
        from repro.nn.persist import load_model, save_model

        qm = quantize_model(
            _pooled_model(), FragmentScheme.ternary(), Ring(32),
            input_shape=(1, 8, 8),
        )
        save_model(tmp_path / "m.npz", qm)
        restored = load_model(tmp_path / "m.npz")
        assert restored.layers[0].pool == qm.layers[0].pool
        assert (restored.predict(x) == qm.predict(x)).all()
