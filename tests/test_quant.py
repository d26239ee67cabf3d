"""Quantization: fragment schemes, quantizers, fixed-point encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quant.fixed_point import FixedPointEncoder
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme, FragmentSpec
from repro.quant.headroom import input_bound_int, relu_widths
from repro.quant.schemes import (
    quantize_binary,
    quantize_for_scheme,
    quantize_symmetric,
    quantize_ternary,
)
from repro.utils.ring import Ring


class TestFragmentScheme:
    def test_table2_schemes_exist(self):
        assert len(TABLE2_SCHEMES) == 15

    @pytest.mark.parametrize("name,scheme", sorted(TABLE2_SCHEMES.items()))
    def test_digits_compose_roundtrip(self, name, scheme, rng):
        lo, hi = scheme.weight_range
        weights = rng.integers(lo, hi + 1, size=200)
        assert (scheme.compose(scheme.digits(weights)) == weights).all()

    def test_gamma_counts(self):
        assert TABLE2_SCHEMES["8(2,2,2,2)"].gamma == 4
        assert TABLE2_SCHEMES["8(1,...,1)"].gamma == 8
        assert TABLE2_SCHEMES["8(4,4)"].gamma == 2
        assert TABLE2_SCHEMES["ternary"].gamma == 1
        assert TABLE2_SCHEMES["binary"].gamma == 1

    def test_max_n(self):
        assert TABLE2_SCHEMES["8(2,2,2,2)"].max_n == 4
        assert TABLE2_SCHEMES["8(3,3,2)"].max_n == 8
        assert TABLE2_SCHEMES["ternary"].max_n == 3

    def test_signed_range_symmetric_schemes(self):
        assert TABLE2_SCHEMES["8(2,2,2,2)"].weight_range == (-128, 127)
        assert TABLE2_SCHEMES["4(2,2)"].weight_range == (-8, 7)
        assert TABLE2_SCHEMES["3(2,1)"].weight_range == (-4, 3)

    def test_special_ranges(self):
        assert FragmentScheme.binary().weight_range == (0, 1)
        assert FragmentScheme.ternary().weight_range == (-1, 1)

    def test_ternary_digit_mapping(self):
        scheme = FragmentScheme.ternary()
        digits = scheme.digits(np.array([-1, 0, 1]))
        assert digits[:, 0].tolist() == [2, 0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(QuantizationError):
            TABLE2_SCHEMES["4(2,2)"].digits(np.array([100]))

    def test_mixed_radix_groups(self):
        scheme = TABLE2_SCHEMES["8(3,3,2)"]
        ns = [f.n_values for f in scheme.fragments]
        assert ns == [8, 8, 4]

    def test_invalid_bit_widths(self):
        with pytest.raises(QuantizationError):
            FragmentScheme.from_bits(())
        with pytest.raises(QuantizationError):
            FragmentScheme.from_bits((2, 0))

    def test_fragment_spec_validation(self):
        with pytest.raises(QuantizationError):
            FragmentSpec(1, (0,))
        with pytest.raises(QuantizationError):
            FragmentSpec(2, (0,))

    @given(
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        signed=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property_any_scheme(self, widths, signed):
        scheme = FragmentScheme.from_bits(tuple(widths), signed=signed)
        lo, hi = scheme.weight_range
        rng = np.random.default_rng(sum(widths))
        weights = rng.integers(lo, hi + 1, size=64)
        assert (scheme.compose(scheme.digits(weights)) == weights).all()

    def test_unsigned_scheme_range(self):
        scheme = FragmentScheme.from_bits((2, 2), signed=False)
        assert scheme.weight_range == (0, 15)


class TestQuantizers:
    def test_symmetric_power_of_two_scale(self, rng):
        w = rng.normal(scale=0.2, size=(16, 16))
        q = quantize_symmetric(w, FragmentScheme.from_bits((2, 2, 2, 2)))
        assert q.shift is not None
        assert q.scale == pytest.approx(2.0**-q.shift)
        lo, hi = q.scheme.weight_range
        assert q.ints.min() >= lo and q.ints.max() <= hi

    def test_symmetric_error_shrinks_with_bitwidth(self, rng):
        w = rng.normal(scale=0.2, size=(32, 32))
        err8 = quantize_symmetric(w, FragmentScheme.from_bits((2, 2, 2, 2))).quantization_error(w)
        err4 = quantize_symmetric(w, FragmentScheme.from_bits((2, 2))).quantization_error(w)
        err3 = quantize_symmetric(w, FragmentScheme.from_bits((2, 1))).quantization_error(w)
        assert err8 < err4 < err3

    def test_symmetric_rejects_unsigned_scheme(self, rng):
        with pytest.raises(QuantizationError):
            quantize_symmetric(rng.normal(size=4), FragmentScheme.binary())

    def test_ternary_values(self, rng):
        w = rng.normal(size=100)
        q = quantize_ternary(w)
        assert set(np.unique(q.ints)) <= {-1, 0, 1}
        assert q.scale > 0

    def test_binary_values(self, rng):
        w = rng.normal(size=100)
        q = quantize_binary(w)
        assert set(np.unique(q.ints)) <= {0, 1}

    def test_dispatch(self, rng):
        w = rng.normal(size=10)
        assert quantize_for_scheme(w, FragmentScheme.binary()).scheme.name == "binary"
        assert quantize_for_scheme(w, FragmentScheme.ternary()).scheme.name == "ternary"
        assert quantize_for_scheme(w, FragmentScheme.from_bits((2, 2))).shift is not None

    def test_zero_weights(self):
        q = quantize_symmetric(np.zeros(5), FragmentScheme.from_bits((2, 2)))
        assert (q.ints == 0).all()


class TestSignedOneBitScheme:
    """Signed 1-bit covers ``[-1, 0]``: no positive weight, so no
    symmetric grid.  It is refused with a typed error that names the
    schemes which do carry 1- and 2-level weights."""

    def test_quantize_refuses_before_arithmetic(self, rng):
        from repro.nn.model import mnist_mlp
        from repro.nn.quantize import quantize_model

        scheme = FragmentScheme.from_bits((1,))
        with pytest.raises(QuantizationError, match="'binary' or 'ternary'"):
            quantize_for_scheme(rng.normal(size=(3, 4)), scheme)
        with pytest.raises(QuantizationError, match="'binary' or 'ternary'"):
            quantize_model(mnist_mlp(hidden=4, input_dim=8, classes=2), scheme, Ring(32))

    def test_cli_train_refuses_before_training(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.npz"
        assert main(["train", "--out", str(out), "--scheme", "1(1)", "--epochs", "1"]) == 1
        captured = capsys.readouterr()
        assert "training" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and "'binary'" in err[0] and "'ternary'" in err[0]
        assert not out.exists()


class TestFixedPoint:
    def test_roundtrip(self, ring32):
        enc = FixedPointEncoder(ring32, 8)
        values = np.array([0.0, 1.5, -2.25, 100.0, -0.00390625])
        got = enc.decode(enc.encode(values))
        assert np.allclose(got, values, atol=2.0**-8)

    def test_negative_encoding_twos_complement(self, ring32):
        enc = FixedPointEncoder(ring32, 4)
        assert int(enc.encode(-1.0)) == (1 << 32) - 16

    def test_overflow_rejected(self):
        enc = FixedPointEncoder(Ring(16), 8)
        with pytest.raises(QuantizationError):
            enc.encode(200.0)  # 200 * 256 > 2^15

    def test_extra_scale(self, ring32):
        enc = FixedPointEncoder(ring32, 8)
        got = enc.decode(enc.encode(4.0), extra_scale=2.0)
        assert got == pytest.approx(2.0)

    def test_invalid_frac_bits(self, ring32):
        with pytest.raises(QuantizationError):
            FixedPointEncoder(ring32, 32)
        with pytest.raises(QuantizationError):
            FixedPointEncoder(ring32, -1)

    @given(value=st.floats(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, value):
        enc = FixedPointEncoder(Ring(32), 10)
        assert abs(float(enc.decode(enc.encode(value))) - value) <= 2.0**-10 / 2 + 1e-9


class TestReluWidths:
    """The closed-form bound pass behind each layer's public ``relu_bits``."""

    W0, B0 = np.array([[3, -2], [1, 1]]), np.array([44, -9])  # A0 = 5 * 16 + 44
    W1 = np.array([[2, 2]])

    def _layers(self, pooled):
        return [(self.W0, self.B0, 2, pooled), (self.W1, np.zeros(1), 0, False), (self.W1, [0], 0, False)]

    def test_closed_form(self):
        assert input_bound_int(4) == 16
        # A0 = 124 (7 bits) -> m0 = 8; B1 = 124 >> 2 = 31; A1 = 4 * 31 = 124;
        # the logits width comes last: B2 = 124, A2 = 496 (9 bits) -> 10
        assert relu_widths(self._layers(False), 32, 4) == [8, 8, 10]
        # after an average pool B1 = 32, so A1 = 128 needs one more bit
        # (and A2 = 512 one more again)
        assert relu_widths(self._layers(True), 32, 4) == [8, 9, 11]

    def test_clamped_to_ring_and_shift(self):
        assert relu_widths(self._layers(True), 8, 4) == [8, 8, 8]
        zero = [(np.zeros((1, 2), dtype=np.int64), [0], 3, False), (self.W1, [0], 0, False)]
        # keeps a sign bit above the shift; the all-zero logits need 1 bit
        assert relu_widths(zero, 32, 4) == [4, 1]

    def test_holds_on_a_quantized_model(self):
        """Every hidden pre-activation of a real model stays inside its
        width on inputs at the bound's corners."""
        from repro.nn.model import mnist_mlp
        from repro.nn.quantize import quantize_model

        qm = quantize_model(
            mnist_mlp(seed=2, hidden=12, input_dim=20), FragmentScheme.from_bits((2, 2)), Ring(32)
        )
        x = np.random.default_rng(0).choice([-1.0, 1.0], size=(20, 64))
        acts = qm.encoder.encode(x)
        for layer in qm.layers[:-1]:
            y = qm.ring.to_signed(
                qm.ring.add(qm.ring.matmul(qm.ring.reduce(layer.w_int), acts),
                            qm.ring.reduce(layer.bias_int)[:, None])
            )
            assert np.abs(y).max() < 2 ** (layer.relu_bits - 1)
            acts = qm.ring.reduce(np.maximum(y >> layer.truncate_bits, 0))
