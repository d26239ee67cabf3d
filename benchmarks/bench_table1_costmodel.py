"""Table 1 — OT complexity of SecureML vs ABNN2 (analytic, verified).

The paper's Table 1 is a formula table; this bench evaluates the
formulas at representative sizes, *verifies them against measured
protocol traffic*, and records the ratios the rest of the evaluation
depends on.
"""

import numpy as np
import pytest

from conftest import paper_n_message_bits, random_weights
from repro.baselines.secureml import (
    SecureMlConfig,
    secureml_triplets_client,
    secureml_triplets_server,
)
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.net import run_protocol
from repro.perf.costmodel import (
    abnn2_comm_bits,
    abnn2_ot_count,
    secureml_comm_bits,
    secureml_ot_count,
)
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring

M, N, O = 16, 32, 4
RING = Ring(32)


def test_table1_formula_summary(benchmark):
    """Evaluate and record Table 1 at (m, n, o) = (16, 32, 4), l = 32."""

    def compute():
        scheme = TABLE2_SCHEMES["8(2,2,2,2)"]
        return {
            "secureml_ots": secureml_ot_count(M, N, O, RING.bits),
            "secureml_comm_bits": secureml_comm_bits(M, N, O, RING.bits),
            "abnn2_ots": abnn2_ot_count(scheme, M, N),
            "abnn2_comm_bits": abnn2_comm_bits(scheme, M, N, O, RING.bits),
            "abnn2_o1_comm_bits": abnn2_comm_bits(scheme, M, N, 1, RING.bits),
            "paper_mbatch_comm_bits": paper_n_message_bits(scheme, M, N, O, RING.bits),
            "paper_mbatch_o8_comm_bits": paper_n_message_bits(scheme, M, N, 8, RING.bits),
        }

    info = benchmark.pedantic(compute, rounds=1, iterations=1)
    benchmark.extra_info.update(info)
    # ABNN2 does fewer OTs and moves fewer bits at every batch width.
    assert info["abnn2_ots"] < info["secureml_ots"]
    assert info["abnn2_comm_bits"] < info["paper_mbatch_comm_bits"] < info["secureml_comm_bits"]
    assert info["abnn2_o1_comm_bits"] < info["secureml_comm_bits"] / O


@pytest.mark.parametrize("o", [1, 8])
def test_table1_model_matches_measured_abnn2(benchmark, o, bench_group, bench_rng):
    """The N - 1 message comm formula must match the wire within base-OT
    slack, below the paper's N-message (M-Batch) form by ``o l`` per OT."""
    scheme = TABLE2_SCHEMES["8(2,2,2,2)"]
    w = random_weights(scheme, (M, N), bench_rng)
    r = RING.sample(bench_rng, (N, o))
    config = TripletConfig(ring=RING, scheme=scheme, m=M, n=N, o=o, group=bench_group)

    def run():
        return run_protocol(
            lambda ch: generate_triplets_server(ch, w, config, seed=1),
            lambda ch: generate_triplets_client(ch, r, config, np.random.default_rng(2), seed=3),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    predicted = abnn2_comm_bits(scheme, M, N, o, RING.bits) / 8
    paper = paper_n_message_bits(scheme, M, N, o, RING.bits) / 8
    benchmark.extra_info["measured_bytes"] = result.total_bytes
    benchmark.extra_info["predicted_bytes"] = predicted
    benchmark.extra_info["paper_n_message_bytes"] = paper
    assert 0 <= result.total_bytes - predicted < 20_000
    assert paper - predicted == scheme.gamma * M * N * o * RING.bits / 8
    assert result.total_bytes < paper


def test_table1_model_matches_measured_secureml(benchmark, bench_group, bench_rng):
    """SecureML's measured traffic sits in the formula's ballpark."""
    w = bench_rng.integers(-1000, 1000, size=(8, 16))
    r = RING.sample(bench_rng, (16, 1))
    config = SecureMlConfig(ring=RING, m=8, n=16, o=1, group=bench_group)

    def run():
        return run_protocol(
            lambda ch: secureml_triplets_server(ch, w, config, seed=1),
            lambda ch: secureml_triplets_client(ch, r, config, seed=2),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    predicted = secureml_comm_bits(8, 16, 1, RING.bits) / 8
    benchmark.extra_info["measured_bytes"] = result.total_bytes
    benchmark.extra_info["predicted_bytes"] = predicted
    # Two counting differences cancel only partially: the formula counts
    # both message halves where our COT sends one correction (we run
    # cheaper), but it also assumes SecureML's 128-bit RO packing of
    # several short messages into one extension instance, which we do
    # not implement (we run dearer: a full kappa-bit column per weight
    # bit).  At l = 32 the net effect is ~1.5x the model; at l = 64 —
    # Table 3's setting — measured traffic drops *below* the model, so
    # the Table 3 comparison shapes are conservative.
    assert 0.4 * predicted < result.total_bytes < 1.7 * predicted
