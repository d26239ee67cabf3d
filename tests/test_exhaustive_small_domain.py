"""Exhaustive small-domain correctness sweeps.

Two protocol components are small enough to verify over their *entire*
input domain rather than by sampling:

* the GC ReLU layer for ring widths l <= 6 — every (y0, y1) share pair,
  i.e. all ``4**l`` combinations at once as one batched run;
* the narrowed, exactly truncating GC ReLU in ``Ring(8)`` — every share
  ``y0``, every value ``|y| < 2^(m-1)`` and every ``1 <= f < m <= 7``;
* the same ReLU from an ``m``-bit input ring into an output ring below,
  at and above its ``k = m - f`` output bits;
* fragment digit encoding for every Table 2 scheme (eta <= 8) — every
  representable weight round-trips through ``digits``/``compose`` with
  in-range digits and a unique digit vector.
"""

import numpy as np
import pytest

from repro.core.relu import relu_layer_client, relu_layer_server
from repro.gc.protocol import GcSessions
from repro.net import run_protocol
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring


def _run_relu_shares(ring, y0, y1, z1, variant, group):
    def server_fn(chan):
        sessions = GcSessions(chan, "evaluator", group=group, seed=1)
        return relu_layer_server(chan, y0, sessions, ring, variant)

    def client_fn(chan):
        sessions = GcSessions(chan, "garbler", group=group, seed=2)
        return relu_layer_client(
            chan, y1, z1, sessions, ring, np.random.default_rng(9), variant
        )

    return run_protocol(server_fn, client_fn).server


class TestReluExhaustive:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 6])
    def test_oblivious_all_share_pairs(self, bits, test_group, rng):
        """ReLU(y0 + y1) is correct for EVERY share pair of an l-bit ring."""
        ring = Ring(bits)
        domain = np.arange(1 << bits, dtype=np.uint64)
        # all (y0, y1) combinations, flattened into one batched GC run
        y0 = np.repeat(domain, 1 << bits)
        y1 = np.tile(domain, 1 << bits)
        z1 = ring.sample(rng, y0.shape)
        z0 = _run_relu_shares(ring, y0, y1, z1, "oblivious", test_group)
        y = ring.add(y0, y1)
        expected = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (ring.add(z0, z1) == expected).all()

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_optimized_all_share_pairs(self, bits, test_group, rng):
        ring = Ring(bits)
        domain = np.arange(1 << bits, dtype=np.uint64)
        y0 = np.repeat(domain, 1 << bits)
        y1 = np.tile(domain, 1 << bits)
        z1 = ring.sample(rng, y0.shape)
        z0 = _run_relu_shares(ring, y0, y1, z1, "optimized", test_group)
        y = ring.add(y0, y1)
        expected = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (ring.add(z0, z1) == expected).all()


class TestNarrowReluExhaustive:
    #: every (m, f) with 0 <= f < m <= 7 (f = 0 is a float-scale layer's
    #: narrowed ReLU), and the full-width circuit (8, 0)
    SHAPES = [(m, f) for m in range(1, 8) for f in range(0, m)] + [(8, 0)]

    @pytest.mark.parametrize("variant", ["oblivious", "optimized"])
    def test_every_share_value_width_and_shift(self, variant, test_group, rng):
        """z0 + z1 == ReLU(y >> f) exactly, for every y0 and every y the
        public width m admits, with each party feeding m bits."""
        ring = Ring(8)
        cases = []
        for m, f in self.SHAPES:
            values = np.arange(-(1 << (m - 1)) + 1, 1 << (m - 1))
            y = ring.reduce(np.tile(values, 256))
            y0 = np.repeat(np.arange(256, dtype=np.uint64), values.size)
            z1 = ring.sample(rng, y.shape)
            cases.append((m, f, y, y0, ring.sub(y, y0), z1))

        def server_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=1)
            return [
                relu_layer_server(chan, y0, sessions, ring, variant, m, f)
                for m, f, _, y0, _, _ in cases
            ]

        def client_fn(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=2)
            own = np.random.default_rng(9)
            for m, f, _, _, y1, z1 in cases:
                relu_layer_client(chan, y1, z1, sessions, ring, own, variant, m, f)

        z0s = run_protocol(server_fn, client_fn).server
        for (m, f, y, _, _, z1), z0 in zip(cases, z0s):
            expected = ring.reduce(np.maximum(ring.to_signed(y) >> f, 0))
            assert (ring.add(z0, z1) == expected).all(), (m, f)


class TestReluOutputRingExhaustive:
    """The ReLU between two layers of their own rings: the input shares
    live in ``Ring(m)`` (the layer's width) and the output shares in the
    next layer's ring of ``l'`` bits, below (``l' < k``: only the low bits
    are kept), at (``l' = k``: no row wire) and above (``l' > k``: the
    row table delivers the high bits) the circuit's ``k = m - f`` bits."""

    #: every (m, f) with 0 <= f < m for m in {3, 5}, each against three
    #: output rings around k (never below 1 bit)
    SHAPES = [
        (m, f, out)
        for m in (3, 5)
        for f in range(m)
        for out in sorted({max(1, m - f - 1), m - f, m - f + 2})
    ]

    @pytest.mark.parametrize("variant", ["oblivious", "optimized"])
    def test_every_share_value_shift_and_output_ring(self, variant, test_group, rng):
        cases = []
        for m, f, out in self.SHAPES:
            ring, out_ring = Ring(m), Ring(out)
            values = np.arange(-(1 << (m - 1)) + 1, 1 << (m - 1))
            y = ring.reduce(np.tile(values, 1 << m))
            y0 = np.repeat(np.arange(1 << m, dtype=np.uint64), values.size)
            z1 = out_ring.sample(rng, y.shape)
            cases.append((ring, out_ring, f, y, y0, ring.sub(y, y0), z1))

        def server_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=1)
            return [
                relu_layer_server(chan, y0, sessions, ring, variant, ring.bits, f, out_ring)
                for ring, out_ring, f, _, y0, _, _ in cases
            ]

        def client_fn(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=2)
            own = np.random.default_rng(9)
            for ring, out_ring, f, _, _, y1, z1 in cases:
                relu_layer_client(
                    chan, y1, z1, sessions, ring, own, variant, ring.bits, f, out_ring
                )

        z0s = run_protocol(server_fn, client_fn).server
        for (ring, out_ring, f, y, _, _, z1), z0 in zip(cases, z0s):
            expected = out_ring.reduce(np.maximum(ring.to_signed(y) >> f, 0))
            assert (out_ring.add(z0, z1) == expected).all(), (ring.bits, f, out_ring.bits)


class TestFragmentExhaustive:
    @pytest.mark.parametrize("scheme_name", sorted(TABLE2_SCHEMES))
    def test_every_weight_round_trips(self, scheme_name):
        scheme = TABLE2_SCHEMES[scheme_name]
        lo, hi = scheme.weight_range
        weights = np.arange(lo, hi + 1, dtype=np.int64)
        digits = scheme.digits(weights)
        assert digits.shape == (weights.size, scheme.gamma)
        # every digit is a valid OT choice index for its fragment
        for idx, frag in enumerate(scheme.fragments):
            column = digits[:, idx]
            assert column.min() >= 0
            assert column.max() < frag.n_values
        # encoding is injective over the full range
        assert len({tuple(row) for row in digits}) == weights.size
        # and compose() inverts it exactly
        assert (scheme.compose(digits) == weights).all()

    @pytest.mark.parametrize("scheme_name", sorted(TABLE2_SCHEMES))
    def test_range_is_contiguous_and_covers_eta_bits(self, scheme_name):
        scheme = TABLE2_SCHEMES[scheme_name]
        lo, hi = scheme.weight_range
        assert hi - lo + 1 == (
            np.prod([frag.n_values for frag in scheme.fragments])
            if scheme_name != "ternary"
            else 3
        )
        if scheme.signed and scheme_name != "ternary":
            assert lo == -(1 << (scheme.eta - 1))
            assert hi == (1 << (scheme.eta - 1)) - 1

    def test_out_of_range_weight_rejected(self):
        from repro.errors import QuantizationError

        scheme = TABLE2_SCHEMES["4(2,2)"]
        _lo, hi = scheme.weight_range
        with pytest.raises(QuantizationError):
            scheme.digits(np.array([hi + 1]))
