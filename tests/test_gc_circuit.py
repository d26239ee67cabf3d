"""Boolean circuit templates and word-level builders (plaintext semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gc.builder import (
    add_words,
    and_broadcast,
    reconstruct_sub_template,
    relu_template,
    sign_template,
    sub_words,
    zero_wire,
)
from repro.gc.circuit import Circuit
from repro.perf.costmodel import relu_and_gates, relu_half_gates
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.ring import Ring


def _two_input_circuit(bits, op):
    circ = Circuit()
    x = circ.garbler_input(bits)
    y = circ.evaluator_input(bits)
    circ.mark_outputs(op(circ, x, y))
    circ.validate()
    return circ


def _eval_words(circ, bits, x_vals, y_vals):
    ring = Ring(bits)
    gx = int_to_bits(ring.reduce(x_vals), bits)
    ey = int_to_bits(ring.reduce(y_vals), bits)
    out = circ.eval_plain(gx, ey)
    return ring.reduce(bits_to_int(out))


class TestGatePrimitives:
    def test_xor_and_inv(self):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        (b,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.xor(a, b), circ.and_(a, b), circ.inv(a), circ.or_(a, b)])
        for av in (0, 1):
            for bv in (0, 1):
                out = circ.eval_plain([[av]], [[bv]])[0]
                assert out.tolist() == [av ^ bv, av & bv, 1 - av, av | bv]

    def test_validate_catches_undefined_wire(self):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        circ.gates.append(type(circ.gates)() if False else None)  # placeholder
        circ.gates.pop()
        bad = circ.xor(a, 57)  # wire 57 never defined
        circ.mark_outputs([bad])
        with pytest.raises(ConfigError):
            circ.validate()

    def test_validate_catches_undriven_output(self):
        circ = Circuit()
        circ.garbler_input(1)
        circ.mark_outputs([99])
        with pytest.raises(ConfigError):
            circ.validate()

    def test_eval_input_count_checked(self):
        circ = Circuit()
        circ.garbler_input(2)
        with pytest.raises(ConfigError):
            circ.eval_plain([[1]], [[]])

    def test_zero_wire(self):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        circ.mark_outputs([zero_wire(circ, a)])
        for v in (0, 1):
            assert circ.eval_plain([[v]], [[]])[0, 0] == 0


class TestAdders:
    @given(
        x=st.integers(0, 2**16 - 1),
        y=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_matches_ring(self, x, y):
        circ = _two_input_circuit(16, add_words)
        got = int(np.asarray(_eval_words(circ, 16, x, y)).reshape(-1)[0])
        assert got == (x + y) % (1 << 16)

    @given(x=st.integers(0, 2**16 - 1), y=st.integers(0, 2**16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sub_matches_ring(self, x, y):
        circ = _two_input_circuit(16, sub_words)
        got = int(np.asarray(_eval_words(circ, 16, x, y)).reshape(-1)[0])
        assert got == (x - y) % (1 << 16)

    def test_add_and_count(self):
        for bits in (1, 8, 32):
            circ = _two_input_circuit(bits, add_words)
            assert circ.and_count == bits - 1

    def test_sub_and_count(self):
        circ = _two_input_circuit(32, sub_words)
        assert circ.and_count == 31

    def test_width_mismatch_raises(self):
        circ = Circuit()
        x = circ.garbler_input(4)
        y = circ.evaluator_input(5)
        with pytest.raises(ConfigError):
            add_words(circ, x, y)


class TestMux:
    def test_and_broadcast(self):
        circ = Circuit()
        (bit,) = circ.garbler_input(1)
        x = circ.evaluator_input(4)
        circ.mark_outputs(and_broadcast(circ, bit, x))
        out = int(bits_to_int(circ.eval_plain([[0]], int_to_bits(np.uint64(15), 4)[None, :]))[0])
        assert out == 0


class TestTemplates:
    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_relu_template_semantics(self, bits, rng):
        ring = Ring(bits)
        circ = relu_template(bits)
        n = 64
        y = ring.sample(rng, n)
        y1 = ring.sample(rng, n)
        y0 = ring.sub(y, y1)
        z1 = ring.sample(rng, n)
        g = np.concatenate([int_to_bits(y1, bits), int_to_bits(z1, bits)], axis=1)
        out = ring.reduce(bits_to_int(circ.eval_plain(g, int_to_bits(y0, bits))))
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (out == ring.sub(relu, z1)).all()

    def test_relu_and_count(self):
        assert relu_template(32).and_count == 3 * 32 - 2 == 94

    def test_full_width_is_the_paper_circuit_gate_for_gate(self):
        """At width l and shift 0: add, mask every bit, subtract, no row."""
        legacy = Circuit()
        y0, y1, z1 = legacy.evaluator_input(16), legacy.garbler_input(16), legacy.garbler_input(16)
        y = add_words(legacy, y0, y1)
        masked = and_broadcast(legacy, legacy.inv(y[-1]), y)
        legacy.mark_outputs(sub_words(legacy, masked, z1))
        circ = relu_template(16)
        assert circ.gates == legacy.gates and circ.outputs == legacy.outputs
        assert circ.row_wire is None

    @pytest.mark.parametrize("ring_bits,width,shift", [(32, 13, 3), (32, 24, 8), (8, 5, 4), (32, 32, 5)])
    def test_narrowed_and_counts_match_the_cost_model(self, ring_bits, width, shift):
        k = width - shift
        relu = relu_template(width, shift, ring_bits)
        rebuild = reconstruct_sub_template(width, shift, ring_bits)
        assert relu.and_count == (width - 1) + 2 * k - 1
        assert relu.and_count == relu_and_gates(ring_bits, width, shift)
        assert rebuild.and_count == relu_and_gates(ring_bits, width, shift, "reconstruct")
        assert sign_template(width).and_count == relu_and_gates(ring_bits, width, 0, "sign")
        assert len(relu.evaluator_inputs) == width and len(relu.outputs) == k
        assert relu.row_wire is not None and rebuild.row_wire is not None

    @pytest.mark.parametrize(
        "out_bits,width,shift", [(32, 13, 3), (8, 3, 2), (4, 8, 2), (2, 2, 1), (1, 1, 0)]
    )
    def test_table_rows_match_the_cost_model(self, out_bits, width, shift):
        """Ciphertexts per instance: two per AND less one per half gate,
        narrowed, at and above the output ring, and at degenerate widths."""
        for kind, circ, f in (
            ("relu", relu_template(width, shift, out_bits), shift),
            ("reconstruct", reconstruct_sub_template(width, shift, out_bits), shift),
            ("sign", sign_template(width), 0),
        ):
            assert circ.and_count == relu_and_gates(out_bits, width, f, kind)
            assert circ.table_rows == 2 * circ.and_count - relu_half_gates(
                out_bits, width, f, kind
            )

    def test_sign_template(self, rng):
        ring = Ring(16)
        circ = sign_template(16)
        assert circ.and_count == 15
        y = ring.reduce(np.array([5, -5, 0, 30000, -30000]))
        y1 = ring.sample(rng, 5)
        y0 = ring.sub(y, y1)
        out = circ.eval_plain(int_to_bits(y1, 16), int_to_bits(y0, 16))
        assert out[:, 0].tolist() == [1, 0, 1, 1, 0]

    def test_reconstruct_sub_template(self, rng):
        ring = Ring(16)
        circ = reconstruct_sub_template(16)
        assert circ.and_count == 2 * 16 - 2
        y = ring.sample(rng, 10)
        y1 = ring.sample(rng, 10)
        z1 = ring.sample(rng, 10)
        g = np.concatenate([int_to_bits(y1, 16), int_to_bits(z1, 16)], axis=1)
        out = ring.reduce(bits_to_int(circ.eval_plain(g, int_to_bits(ring.sub(y, y1), 16))))
        assert (out == ring.sub(y, z1)).all()
