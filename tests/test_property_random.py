"""Property-based tests: random circuits and random schemes.

These complement the targeted tests with structure-agnostic coverage:
any random DAG of gates must garble to the same function it evaluates in
the clear, and any random fragment decomposition must produce correct
triplets.  Hypothesis drives the structure; crypto randomness is seeded
per example for reproducibility.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.circuit import Circuit
from repro.gc.evaluate import decode_outputs, evaluate
from repro.gc.garble import garble
from repro.quant.fragments import FragmentScheme


@st.composite
def random_circuits(draw):
    """A random well-formed circuit with both parties' inputs."""
    n_garbler = draw(st.integers(1, 4))
    n_evaluator = draw(st.integers(1, 4))
    circ = Circuit()
    wires = circ.garbler_input(n_garbler) + circ.evaluator_input(n_evaluator)
    n_gates = draw(st.integers(1, 25))
    for _ in range(n_gates):
        op = draw(st.sampled_from(["xor", "and", "inv", "or"]))
        a = draw(st.sampled_from(wires))
        if op == "inv":
            wires.append(circ.inv(a))
        else:
            b = draw(st.sampled_from(wires))
            wires.append(getattr(circ, {"xor": "xor", "and": "and_", "or": "or_"}[op])(a, b))
    # The evaluator learns outputs through labels: none may be a wire the
    # garbler computes alone (the evaluator's inputs always qualify).
    known = circ.garbler_known()
    labelled = [w for w in wires if not known[w]]
    n_outputs = draw(st.integers(1, min(4, len(labelled))))
    circ.mark_outputs(
        draw(st.lists(st.sampled_from(labelled), min_size=n_outputs, max_size=n_outputs))
    )
    circ.validate()
    return circ


class TestRandomCircuits:
    @given(circ=random_circuits(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_garbled_matches_plain(self, circ, seed):
        rng = np.random.default_rng(seed)
        n_inst = 4
        g_bits = rng.integers(0, 2, size=(len(circ.garbler_inputs), n_inst), dtype=np.uint8)
        e_bits = rng.integers(0, 2, size=(len(circ.evaluator_inputs), n_inst), dtype=np.uint8)

        gcirc = garble(circ, n_inst, rng, garbler_bits=g_bits)
        out_labels = evaluate(circ, gcirc.tables, gcirc.encode(circ.evaluator_inputs, e_bits))
        got = decode_outputs(out_labels, gcirc.output_decode_bits())
        expect = circ.eval_plain(g_bits.T, e_bits.T).T
        assert (got == expect).all()


class TestRandomSchemes:
    @given(
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        signed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_value_tables_cover_range_exactly(self, widths, signed, seed):
        """Every representable weight has exactly one digit vector, and the
        digit vectors enumerate the full cartesian product."""
        scheme = FragmentScheme.from_bits(tuple(widths), signed=signed)
        lo, hi = scheme.weight_range
        all_weights = np.arange(lo, hi + 1)
        digits = scheme.digits(all_weights)
        assert (scheme.compose(digits) == all_weights).all()
        # distinct weights -> distinct digit vectors
        seen = {tuple(row) for row in digits.reshape(-1, scheme.gamma)}
        assert len(seen) == all_weights.size

    @given(
        widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_fragment_products_sum_locally(self, widths, seed):
        """The OT decomposition identity w*r = sum_k vt_k[digit_k] * r
        holds in the ring for random weights and operands."""
        from repro.utils.ring import Ring

        scheme = FragmentScheme.from_bits(tuple(widths))
        ring = Ring(32)
        rng = np.random.default_rng(seed)
        lo, hi = scheme.weight_range
        w = rng.integers(lo, hi + 1, size=16)
        r = ring.sample(rng, 16)
        digits = scheme.digits(w)
        total = ring.zeros(16)
        for k in range(scheme.gamma):
            contribution = ring.reduce(scheme.values(k))[digits[:, k]]
            total = ring.add(total, ring.mul(contribution, r))
        assert (total == ring.mul(ring.reduce(w), r)).all()
