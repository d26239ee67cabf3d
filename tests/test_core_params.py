"""(N, gamma) scheme selection, the Table 1 cost formulas, and the
per-layer wire split the protocol runs."""

import itertools

import numpy as np
import pytest

from repro.core.params import (
    bit_widths,
    comm_bits_per_weight,
    enumerate_costs,
    optimal_scheme,
    ot_count_per_weight,
    scheme_for,
    wire_split,
)
from repro.errors import ConfigError
from repro.nn.persist import scheme_from_dict, scheme_to_dict
from repro.perf.costmodel import abnn2_comm_bits_radices
from repro.quant.fragments import FragmentScheme


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


# --------------------------------------------------------------------- #
# the split the protocol runs (wire_split)
# --------------------------------------------------------------------- #
def _all_compositions(eta: int) -> list[tuple[int, ...]]:
    """Every composition of eta into parts of 1..4 bits, built here
    independently of the module's own enumeration."""
    out = []
    for parts in range(1, eta + 1):
        for widths in itertools.product(range(1, 5), repeat=parts):
            if sum(widths) == eta:
                out.append(widths)
    return out


def _wire_bits(widths, o, ring_bits) -> int:
    return abnn2_comm_bits_radices([1 << b for b in widths], 1, 1, o, ring_bits)


def _widths(scheme) -> tuple[int, ...]:
    return tuple((f.n_values - 1).bit_length() for f in scheme.fragments)


WIRE_OS = (1, 2, 8, 121, 169, 900)
WIRE_LS = (6, 13, 22, 32)


class TestWireSplit:
    @pytest.mark.parametrize("eta", range(1, 9))
    def test_split_is_the_wire_argmin(self, eta):
        candidates = _all_compositions(eta)
        for declared in {(2,) * (eta // 2) + (1,) * (eta % 2), (1,) * eta, candidates[-1]}:
            scheme = FragmentScheme.from_bits(declared)
            for o in WIRE_OS:
                for ring_bits in WIRE_LS:
                    chosen = _widths(wire_split(scheme, o, ring_bits))
                    best = min(_wire_bits(c, o, ring_bits) for c in candidates)
                    assert _wire_bits(chosen, o, ring_bits) == best, (declared, o, ring_bits)
                    # among the cheapest, the fewest radix groups, and the
                    # declared split whenever it is one of those
                    tied = [c for c in candidates if _wire_bits(c, o, ring_bits) == best]
                    fewest = min(len(set(c)) for c in tied)
                    assert len(set(chosen)) == fewest
                    if declared in tied and len(set(declared)) == fewest:
                        assert chosen == declared

    def test_binary_fragments_once_o_l_exceeds_64(self):
        fig4 = scheme_for("8(2,2,2,2)")
        assert _widths(wire_split(fig4, 1, 22)) == (2, 2, 2, 2)
        assert _widths(wire_split(fig4, 3, 22)) == (1,) * 8  # o * l = 66
        assert _widths(wire_split(fig4, 8, 22)) == (1,) * 8
        assert _widths(wire_split(scheme_for("4(2,2)"), 169, 32)) == (1,) * 4

    def test_ties_keep_the_declared_split(self):
        # o * l = 64: (2,2,2,2) and binary both cost 3072 bits per weight
        for o, ring_bits in ((2, 32), (8, 8)):
            assert _wire_bits((2, 2, 2, 2), o, ring_bits) == _wire_bits((1,) * 8, o, ring_bits)
            fig4 = scheme_for("8(2,2,2,2)")
            assert wire_split(fig4, o, ring_bits) is fig4
            binary8 = scheme_for("8(1,...,1)")
            assert wire_split(binary8, o, ring_bits) is binary8

    def test_binary_and_ternary_pass_through(self):
        for name in ("binary", "ternary"):
            scheme = scheme_for(name)
            for o in WIRE_OS:
                for ring_bits in WIRE_LS:
                    assert wire_split(scheme, o, ring_bits) is scheme
        assert bit_widths(scheme_for("binary")) == (1,)
        assert bit_widths(scheme_for("ternary")) is None

    def test_persisted_schemes(self):
        sliced = scheme_from_dict(scheme_to_dict(FragmentScheme.from_bits((3, 3, 2))))
        assert bit_widths(sliced) == (3, 3, 2)
        resplit = wire_split(sliced, 8, 22)
        assert _widths(resplit) == (1,) * 8 and resplit.signed
        # a value table that is not a bit slice is run as declared
        odd = scheme_from_dict(
            {"name": "custom", "eta": 2, "signed": True,
             "fragments": [{"n_values": 4, "values": [0, 1, -1, 2]}]}
        )
        assert bit_widths(odd) is None
        assert wire_split(odd, 900, 32) is odd

    @pytest.mark.parametrize("signed", [True, False])
    def test_digits_round_trip_under_every_resplit(self, signed):
        for eta in range(1, 9):
            declared = FragmentScheme.from_bits((2,) * (eta // 2) + (1,) * (eta % 2), signed)
            lo, hi = declared.weight_range
            weights = np.arange(lo, hi + 1, dtype=np.int64)
            for o in WIRE_OS:
                for ring_bits in WIRE_LS:
                    split = wire_split(declared, o, ring_bits)
                    assert split.eta == eta and split.signed == signed
                    assert split.weight_range == (lo, hi)
                    assert (split.compose(split.digits(weights)) == weights).all()


class TestOneSplitPerLayer:
    def test_parties_and_dealer_derive_the_same_split(self, test_group, monkeypatch):
        from repro.core.protocol import ModelMeta, layer_triplet_config, secure_predict
        from repro.nn.model import mnist_mlp
        from repro.nn.quantize import quantize_model
        from repro.perf.trace import iter_spans
        from repro.serve import dealer
        from repro.utils.ring import Ring

        qmodel = quantize_model(
            mnist_mlp(seed=7, hidden=8, input_dim=16), scheme_for("8(2,2,2,2)"), Ring(32),
            frac_bits=6,
        )
        meta = ModelMeta.from_model(qmodel)
        batch = 4
        expected = [
            [f.n_values for f in wire_split(layer.scheme, batch, meta.layer_ring(i).bits).fragments]
            for i, layer in enumerate(meta.layers)
        ]
        assert [2] * 8 in expected  # some layer is re-split at this batch

        x = np.random.default_rng(4).uniform(0, 1, size=(batch, 16))
        report = secure_predict(qmodel, x, group=test_group, seed=5)
        for trace in (report.server_trace, report.client_trace):
            spans = [s for _, s in iter_spans(trace) if s["name"] == "triplets"]
            assert [s["attrs"]["frag_n_values"] for s in spans] == expected

        dealt = []

        def recording(*args, **kwargs):
            config = layer_triplet_config(*args, **kwargs)
            dealt.append([f.n_values for f in config.scheme.fragments])
            return config

        monkeypatch.setattr(dealer, "layer_triplet_config", recording)
        dealer.dealer_offline_round(qmodel, batch, seed=1, group=test_group)
        assert dealt == expected
