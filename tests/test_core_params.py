"""(N, gamma) scheme selection and the Table 1 cost formulas."""

import pytest

from repro.core.params import (
    comm_bits_per_weight,
    enumerate_costs,
    optimal_scheme,
    ot_count_per_weight,
    scheme_for,
)
from repro.errors import ConfigError


class TestCostFormulas:
    def test_one_batch_formula(self):
        # l(N-1) + 2k per fragment.
        assert comm_bits_per_weight((2,), 32, 1) == 32 * 3 + 256
        assert comm_bits_per_weight((2, 2), 32, 1) == 2 * (32 * 3 + 256)

    def test_multi_batch_formula(self):
        # o*l*N + 2k per fragment.
        assert comm_bits_per_weight((2,), 32, 8) == 8 * 32 * 4 + 256

    def test_ot_count(self):
        assert ot_count_per_weight((2, 2, 2, 2)) == 4
        assert ot_count_per_weight((4, 4)) == 2


class TestPaperOrdering:
    """Table 2's comm ordering must fall out of the analytic model."""

    def test_eta8_batch1_ordering(self):
        # Paper (batch 1, l=32): (3,3,2)=18.47MB < (2,2,2,2)=19.52 < (4,4)=20.72 < (1,..1)=32.42
        costs = {
            widths: comm_bits_per_weight(widths, 32, 1)
            for widths in [(1,) * 8, (2, 2, 2, 2), (3, 3, 2), (4, 4)]
        }
        assert costs[(3, 3, 2)] < costs[(2, 2, 2, 2)] < costs[(4, 4)] < costs[(1,) * 8]

    def test_eta8_multibatch_prefers_small_n(self):
        # Paper (batch 128): (2,2,2,2)=936MB < (3,3,2)=1163 < (4,4)=1851.
        costs = {
            widths: comm_bits_per_weight(widths, 32, 128)
            for widths in [(2, 2, 2, 2), (3, 3, 2), (4, 4)]
        }
        assert costs[(2, 2, 2, 2)] < costs[(3, 3, 2)] < costs[(4, 4)]

    def test_two_bit_fragments_beat_one_bit(self):
        # The paper's headline: (2,2,...) beats 1-out-of-2 OT everywhere.
        for eta in (4, 6, 8):
            two = comm_bits_per_weight((2,) * (eta // 2), 32, 1)
            one = comm_bits_per_weight((1,) * eta, 32, 1)
            assert two < one


class TestOptimalScheme:
    def test_comm_optimal_eta8_batch1(self):
        scheme = optimal_scheme(8, ring_bits=32, batch=1)
        widths = tuple((f.n_values - 1).bit_length() for f in scheme.fragments)
        assert sorted(widths, reverse=True) == [3, 3, 2]

    def test_comm_optimal_batch128_uses_two_bit(self):
        scheme = optimal_scheme(8, ring_bits=32, batch=128)
        widths = tuple((f.n_values - 1).bit_length() for f in scheme.fragments)
        assert widths == (2, 2, 2, 2)

    def test_ots_objective_minimizes_gamma(self):
        scheme = optimal_scheme(8, ring_bits=32, batch=1, objective="ots")
        assert scheme.gamma == 2  # (4,4) is the fewest fragments

    def test_result_covers_eta(self):
        for eta in range(1, 13):
            assert optimal_scheme(eta).eta == eta

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            optimal_scheme(0)
        with pytest.raises(ConfigError):
            optimal_scheme(4, objective="magic")

    def test_enumerate_costs_sorted(self):
        rows = enumerate_costs(6, ring_bits=32, batch=1)
        comms = [r["comm_bits"] for r in rows]
        assert comms == sorted(comms)
        assert {tuple(r["bit_widths"]) for r in rows} >= {(2, 2, 2), (3, 3), (1, 1, 1, 1, 1, 1)}

    @pytest.mark.parametrize("eta", [0, 17])
    def test_enumerate_costs_checks_eta(self, eta):
        """Same range as optimal_scheme: eta 0 has no composition to rank,
        and the composition count grows ~1.9x per bit past 16."""
        with pytest.raises(ConfigError, match="eta must be in"):
            enumerate_costs(eta)


class TestSchemeFor:
    def test_lookup(self):
        assert scheme_for("8(2,2,2,2)").gamma == 4
        assert scheme_for("ternary").max_n == 3

    def test_unknown(self):
        with pytest.raises(ConfigError):
            scheme_for("17(5,5,5)")
