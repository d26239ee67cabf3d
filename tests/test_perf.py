"""Cost models: Table 1 closed forms and the baselines' comm models."""

import pytest

from repro.crypto.codes import code_length
from repro.errors import ConfigError
from repro.perf.costmodel import (
    abnn2_comm_bits,
    abnn2_ot_count,
    gc_relu_comm_bits,
    kk13_code_bits,
    minionn_comm_model_mb,
    network_offline_comm_bits,
    secureml_comm_bits,
    secureml_ot_count,
)
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme

MB = 1024 * 1024
FIG4_LAYERS = [(128, 784), (128, 128), (10, 128)]


def _paper_bits(name: str, batch: int, layers=FIG4_LAYERS, ring_bits: int = 32) -> int:
    """The paper's Table 1 figure (2 kappa = 256 U bits per OT): the model
    plus the ``256 - c(N)`` columns per OT the running protocol drops and,
    for the M-Batch rows (``batch > 1``), the ``o l`` bits of message 0 it
    does not send."""
    scheme = TABLE2_SCHEMES[name]
    dropped = sum(256 - kk13_code_bits(frag.n_values) for frag in scheme.fragments)
    if batch > 1:
        dropped += scheme.gamma * batch * ring_bits
    return network_offline_comm_bits(layers, scheme, batch, ring_bits) + dropped * sum(
        m * n for m, n in layers
    )


class TestSecureMlModel:
    def test_table1_formulas(self):
        # l = 64: #OT per mult = 64*65/128 = 32.5
        assert secureml_ot_count(1, 1, 1, 64) == pytest.approx(32.5)
        assert secureml_comm_bits(1, 1, 1, 64) == pytest.approx(64 * 65 * 3)

    def test_scales_with_batch(self):
        assert secureml_comm_bits(2, 3, 4, 32) == 4 * secureml_comm_bits(2, 3, 1, 32)


class TestAbnn2Model:
    def test_ot_count_table1(self):
        scheme = TABLE2_SCHEMES["8(2,2,2,2)"]
        assert abnn2_ot_count(scheme, 128, 784) == 4 * 128 * 784

    def test_one_batch_formula(self):
        # N = 2 runs KK13 on IKNP's 128-column repetition code.
        scheme = FragmentScheme.binary()
        got = abnn2_comm_bits(scheme, 1, 1, 1, 32)
        assert got == 32 * 1 + 128

    def test_multi_batch_formula(self):
        # N - 1 messages of o elements at every o: o l (N - 1) + c(N).
        assert abnn2_comm_bits(FragmentScheme.binary(), 1, 1, 8, 32) == 8 * 32 * 1 + 128
        assert abnn2_comm_bits(FragmentScheme.ternary(), 1, 1, 8, 32) == 8 * 32 * 2 + 192

    def test_code_bits_closed_form_matches_the_code(self):
        assert [kk13_code_bits(n) for n in range(2, 257)] == [
            code_length(n) for n in range(2, 257)
        ]
        with pytest.raises(ConfigError):
            kk13_code_bits(1)

    def test_table2_binary_batch1_magnitude(self):
        # Paper: binary, batch 1, l=32 -> 4.06 MB offline for the Fig-4 net.
        assert 3.3 <= _paper_bits("binary", 1) / 8 / MB <= 5.0
        # The running protocol's 128-column code sends less.
        bits = network_offline_comm_bits(FIG4_LAYERS, FragmentScheme.binary(), 1, 32)
        assert bits < _paper_bits("binary", 1)

    def test_table2_2222_batch1_magnitude(self):
        # Paper: (2,2,2,2), batch 1 -> 19.52 MB.
        assert 17.0 <= _paper_bits("8(2,2,2,2)", 1) / 8 / MB <= 23.0

    def test_table2_orderings(self):
        """The comm orderings of Table 2 hold in the model."""

        def mb(name, batch):
            return network_offline_comm_bits(FIG4_LAYERS, TABLE2_SCHEMES[name], batch, 32)

        # batch 1, the paper's 2 kappa rows: (3,3,2) < (2,2,2,2) < (4,4) < (1,...,1)
        assert (
            _paper_bits("8(3,3,2)", 1)
            < _paper_bits("8(2,2,2,2)", 1)
            < _paper_bits("8(4,4)", 1)
            < _paper_bits("8(1,...,1)", 1)
        )
        # at c(N), the N = 2 and N = 4 codes shrink: (2,2,2,2) < (3,3,2) <
        # (1,...,1) < (4,4)
        assert mb("8(2,2,2,2)", 1) < mb("8(3,3,2)", 1) < mb("8(1,...,1)", 1) < mb("8(4,4)", 1)
        # batch 128, the paper's N-message rows: (2,2,2,2) < (1,...,1) <
        # (3,3,2) < (4,4)
        assert (
            _paper_bits("8(2,2,2,2)", 128)
            < _paper_bits("8(1,...,1)", 128)
            < _paper_bits("8(3,3,2)", 128)
            < _paper_bits("8(4,4)", 128)
        )
        # N - 1 messages per OT: a binary fragment's single message beats
        # any wider fragment's, so (1,...,1) < (2,2,2,2) < (3,3,2) < (4,4)
        assert (
            mb("8(1,...,1)", 128)
            < mb("8(2,2,2,2)", 128)
            < mb("8(3,3,2)", 128)
            < mb("8(4,4)", 128)
        )
        # smaller eta is always cheaper; ternary < any multi-bit; binary cheapest
        assert mb("binary", 1) < mb("ternary", 1) < mb("3(2,1)", 1) < mb("4(2,2)", 1)

    def test_secureml_comparison_ratio(self):
        """Table 3's comm gap: ~4x for 8-bit, ~20x+ for ternary at l=64."""
        m, n = 128, 1000
        sm = secureml_comm_bits(m, n, 1, 64)
        ab8 = _paper_bits("8(2,2,2,2)", 1, [(m, n)], 64)
        ab_ternary = _paper_bits("ternary", 1, [(m, n)], 64)
        assert 3.0 < sm / ab8 < 8.0
        assert 15.0 < sm / ab_ternary < 40.0
        # the running protocol's c(N) rows only widen the gap
        assert abnn2_comm_bits(TABLE2_SCHEMES["8(2,2,2,2)"], m, n, 1, 64) < ab8


class TestGcModel:
    def test_scales_linearly(self):
        assert gc_relu_comm_bits(32, 10) == 10 * gc_relu_comm_bits(32, 1)

    def test_grows_with_width(self):
        assert gc_relu_comm_bits(64, 1) > gc_relu_comm_bits(32, 1)


class TestMinionnModel:
    def test_anchors(self):
        assert minionn_comm_model_mb(1) == pytest.approx(18.1)
        assert minionn_comm_model_mb(128) == pytest.approx(1621.3)

    def test_monotone(self):
        assert minionn_comm_model_mb(64) < minionn_comm_model_mb(128)

    def test_invalid_batch(self):
        with pytest.raises(ConfigError):
            minionn_comm_model_mb(0)

