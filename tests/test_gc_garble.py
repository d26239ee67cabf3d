"""Half-gates garbling vs plaintext circuit semantics."""

import itertools

import numpy as np
import pytest

from repro.errors import ConfigError, CryptoError, ProtocolError
from repro.gc.builder import add_words, relu_template
from repro.gc.circuit import Circuit
from repro.gc.evaluate import decode_outputs, evaluate
from repro.gc.garble import garble
from repro.perf.costmodel import relu_half_gates
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.ring import Ring


def _garbled_run(circ, g_bits, e_bits, rng):
    """Garble + evaluate; bit matrices are (n_wires_owned, n_inst)."""
    n_inst = g_bits.shape[1] if g_bits.size else e_bits.shape[1]
    gcirc = garble(circ, n_inst, rng, garbler_bits=g_bits)
    e_labels = gcirc.encode(circ.evaluator_inputs, e_bits)
    out_labels = evaluate(circ, gcirc.tables, e_labels)
    return decode_outputs(out_labels, gcirc.output_decode_bits())


def _all_combinations(n_garbler, n_evaluator):
    """Every input combination as one instance: ``(g_bits, e_bits)``."""
    combos = np.array(
        list(itertools.product((0, 1), repeat=n_garbler + n_evaluator)), dtype=np.uint8
    ).T
    return combos[:n_garbler].copy(), combos[n_garbler:].copy()


class TestGarbledEquivalence:
    def test_single_gates(self, rng):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        (b,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.and_(a, b), circ.xor(a, b), circ.inv(b)])
        # all four input combinations as four instances
        g = np.array([[0, 0, 1, 1]], dtype=np.uint8)
        e = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        got = _garbled_run(circ, g, e, rng)
        expect = circ.eval_plain(g.T, e.T).T
        assert (got == expect).all()

    def test_adder_many_instances(self, rng):
        ring = Ring(12)
        circ = Circuit()
        x = circ.garbler_input(12)
        y = circ.evaluator_input(12)
        circ.mark_outputs(add_words(circ, x, y))
        n = 100
        xv, yv = ring.sample(rng, n), ring.sample(rng, n)
        got = ring.reduce(
            bits_to_int(
                _garbled_run(
                    circ, int_to_bits(xv, 12).T.copy(), int_to_bits(yv, 12).T.copy(), rng
                ).T
            )
        )
        assert (got == ring.add(xv, yv)).all()

    def test_relu_template_garbled(self, rng):
        ring = Ring(16)
        circ = relu_template(16)
        n = 40
        y, y1, z1 = ring.sample(rng, n), ring.sample(rng, n), ring.sample(rng, n)
        y0 = ring.sub(y, y1)
        g_bits = np.concatenate([int_to_bits(y1, 16), int_to_bits(z1, 16)], axis=1).T.copy()
        e_bits = int_to_bits(y0, 16).T.copy()
        got = ring.reduce(bits_to_int(_garbled_run(circ, g_bits, e_bits, rng).T))
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (got == ring.sub(relu, z1)).all()


class TestGarblerKnownWires:
    """A garbler bit costs no label: hidden negations, garbler half gates
    and gates computed in the clear."""

    def test_half_gate_and_hidden_negation_every_combination(self, rng):
        circ = Circuit()
        (g,) = circ.garbler_input(1)
        (a,) = circ.evaluator_input(1)
        outs = [circ.and_(a, g), circ.and_(g, a), circ.xor(a, g), circ.xor(g, a)]
        circ.mark_outputs(outs)
        assert circ.table_rows == 2  # one ciphertext per half gate
        g_bits, e_bits = _all_combinations(1, 1)
        gcirc = garble(circ, 4, rng, garbler_bits=g_bits)
        assert gcirc.tables.shape == (2, 4, 2)
        e_labels = gcirc.encode(circ.evaluator_inputs, e_bits)
        out_labels = evaluate(circ, gcirc.tables, e_labels)
        got = decode_outputs(out_labels, gcirc.output_decode_bits())
        assert (got == circ.eval_plain(g_bits.T, e_bits.T).T).all()
        # hidden negation: the FALSE label is a's, flipped by g·R, and the
        # evaluator just copies its label of a
        flip = g_bits[0][:, None].astype(np.uint64) * gcirc.offset
        for xor_out in outs[2:]:
            assert (gcirc.label0[xor_out] == gcirc.label0[a] ^ flip).all()
        assert (out_labels[2] == e_labels[0]).all() and (out_labels[3] == e_labels[0]).all()
        # each output label is one of the two legitimate ones
        for i, wire in enumerate(outs):
            active = gcirc.label0[wire] ^ got[i][:, None].astype(np.uint64) * gcirc.offset
            assert (out_labels[i] == active).all()

    def test_gates_over_garbler_known_wires_computed_in_the_clear(self, rng):
        circ = Circuit()
        g1, g2 = circ.garbler_input(2)
        (a,) = circ.evaluator_input(1)
        both = circ.and_(g1, g2)
        either = circ.xor(g1, g2)
        neither = circ.inv(circ.or_(g1, g2))
        circ.mark_outputs([circ.and_(a, both), circ.xor(a, either), circ.and_(neither, a)])
        known = circ.garbler_known()
        assert known[[both, either, neither]].all() and not known[circ.outputs].any()
        # the two clear ANDs cost nothing, the two half gates one row each
        assert circ.and_count == 2 + 2 and circ.table_rows == 2
        g_bits, e_bits = _all_combinations(2, 1)
        got = _garbled_run(circ, g_bits, e_bits, rng)
        assert (got == circ.eval_plain(g_bits.T, e_bits.T).T).all()

    def test_garbler_known_output_is_refused(self, rng):
        circ = Circuit()
        g = circ.garbler_input(2)
        (a,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.and_(a, g[0]), circ.inv(g[1])])
        with pytest.raises(ConfigError, match="garbler computes alone"):
            circ.garbler_known()
        with pytest.raises(ConfigError):
            garble(circ, 2, rng)
        with pytest.raises(ConfigError):
            evaluate(circ, np.zeros((1, 2, 2), dtype=np.uint64), np.zeros((1, 2, 2), dtype=np.uint64))

    def test_garbler_known_row_wire_is_refused(self, rng):
        circ = Circuit()
        g = circ.garbler_input(2)
        (a,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.xor(a, g[0])])
        circ.row_wire = circ.and_(g[0], g[1])
        with pytest.raises(ConfigError):
            garble(circ, 2, rng)

    def test_default_garbler_bits(self, rng):
        """``garble(circuit, n, rng)`` runs on all-zero garbler bits."""
        circ = relu_template(8)
        gcirc = garble(circ, 3, rng)
        e_bits = np.zeros((8, 3), dtype=np.uint8)
        out = evaluate(circ, gcirc.tables, gcirc.encode(circ.evaluator_inputs, e_bits))
        # y = 0 + 0, z1 = 0: z0 = ReLU(0) - 0 = 0
        assert (decode_outputs(out, gcirc.output_decode_bits()) == 0).all()

    def test_garbler_bit_shape_checked(self, rng):
        with pytest.raises(CryptoError):
            garble(relu_template(8), 3, rng, garbler_bits=np.zeros((16, 2), dtype=np.uint8))


class TestGarbledMaterial:
    def _simple(self):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        (b,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.and_(a, b)])
        return circ

    def test_offset_lsb_is_one(self, rng):
        gcirc = garble(self._simple(), 4, rng)
        assert gcirc.offset[0] & np.uint64(1) == 1

    def test_table_count_matches_and_count(self, rng):
        circ = relu_template(8)
        gcirc = garble(circ, 3, rng)
        # two rows per AND, one for each of the two garbler half gates
        assert relu_half_gates(8) == 2
        assert gcirc.tables.shape[0] == circ.table_rows == 2 * circ.and_count - 2

    def test_encode_shape_check(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 4, rng)
        with pytest.raises(CryptoError):
            gcirc.encode(circ.evaluator_inputs, np.zeros((1, 3), dtype=np.uint8))

    def test_labels_differ_by_offset(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 2, rng)
        zero = gcirc.encode(circ.evaluator_inputs, np.zeros((1, 2), dtype=np.uint8))
        one = gcirc.encode(circ.evaluator_inputs, np.ones((1, 2), dtype=np.uint8))
        assert ((zero ^ one) == gcirc.offset).all()

    def test_zero_instances_rejected(self, rng):
        with pytest.raises(CryptoError):
            garble(self._simple(), 0, rng)

    def test_evaluate_table_count_checked(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 2, rng)
        e = gcirc.encode(circ.evaluator_inputs, np.zeros((1, 2), dtype=np.uint8))
        with pytest.raises(ProtocolError):
            evaluate(circ, gcirc.tables[:0], e)

    def test_decode_shape_checked(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 2, rng)
        e = gcirc.encode(circ.evaluator_inputs, np.zeros((1, 2), dtype=np.uint8))
        out = evaluate(circ, gcirc.tables, e)
        with pytest.raises(ProtocolError):
            decode_outputs(out, np.zeros((5, 5), dtype=np.uint8))

    def test_wrong_label_gives_wrong_output(self, rng):
        # Flipping an input label must corrupt the decoded output
        # (sanity check that the tables bind to the labels).
        circ = self._simple()
        gcirc = garble(circ, 1, rng, garbler_bits=np.ones((1, 1), dtype=np.uint8))
        e1 = gcirc.encode(circ.evaluator_inputs, np.ones((1, 1), dtype=np.uint8))
        ok = decode_outputs(evaluate(circ, gcirc.tables, e1), gcirc.output_decode_bits())
        assert ok[0, 0] == 1
        corrupted = e1 ^ np.uint64(2)  # flip a non-select bit
        bad_labels = evaluate(circ, gcirc.tables, corrupted)
        # The output label is (overwhelmingly) not the legitimate one.
        legit0 = gcirc.label0[circ.outputs[0]]
        legit1 = legit0 ^ gcirc.offset
        assert (bad_labels[0] != legit0).any() and (bad_labels[0] != legit1).any()
