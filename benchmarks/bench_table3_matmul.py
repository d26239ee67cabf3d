"""Table 3 — offline matrix multiplication vs SecureML.

Paper setting: a 128 x d quantized matrix against a d-vector, ring
Z_{2^64}, one batch; LAN and a 9 MB/s / 72 ms RTT WAN; schemes binary,
ternary, 8(2,2,2,2) against SecureML's per-bit COT offline phase.
``d`` defaults to {100, 250} (``REPRO_BENCH_FULL=1`` for the paper's
{100, 500, 1000}).

Shapes that must reproduce (asserted on the measured runs):

* communication: SecureML ~25x / ~20x / ~4x above binary / ternary /
  8-bit ABNN2;
* projected WAN time: ABNN2 faster by an order of magnitude for
  binary/ternary.
"""

import numpy as np
import pytest

from conftest import dims_for_table3, random_weights
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
from repro.net.netsim import LAN, WAN_SECUREML
from repro.perf.costmodel import kk13_code_bits
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring

RING = Ring(64)
M = 128
SCHEME_NAMES = ["binary", "ternary", "8(2,2,2,2)"]

#: Paper's d=1000 row (LAN s, WAN s, comm MB) for cross-reference.
PAPER_D1000 = {
    "binary": (2.69, 12.74, 78.13),
    "ternary": (3.24, 16.58, 93.76),
    "8(2,2,2,2)": (15.39, 75.01, 437.51),
    "SecureML": (7.9, 463.2, 1945.6),
}


def _run_abnn2(scheme_name, d, group, rng):
    scheme = TABLE2_SCHEMES[scheme_name]
    w = random_weights(scheme, (M, d), rng)
    r = RING.sample(rng, (d, 1))
    config = TripletConfig(ring=RING, scheme=scheme, m=M, n=d, o=1, group=group)
    return run_protocol(
        lambda ch: generate_triplets_server(ch, w, config, seed=1),
        lambda ch: generate_triplets_client(ch, r, config, np.random.default_rng(2), seed=3),
        timeout_s=1200,
    )


def _run_secureml(d, group, rng):
    w = rng.integers(-(1 << 20), 1 << 20, size=(M, d))
    r = RING.sample(rng, (d, 1))
    config = SecureMlConfig(ring=RING, m=M, n=d, o=1, group=group)
    return run_protocol(
        lambda ch: secureml_triplets_server(ch, w, config, seed=1),
        lambda ch: secureml_triplets_client(ch, r, config, seed=2),
        timeout_s=1200,
    )


@pytest.mark.parametrize("d", dims_for_table3())
@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
def test_table3_abnn2(benchmark, scheme_name, d, bench_group, bench_rng):
    result = benchmark.pedantic(
        lambda: _run_abnn2(scheme_name, d, bench_group, bench_rng), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {
            "scheme": scheme_name,
            "d": d,
            "comm_MB": round(result.total_bytes / 2**20, 2),
            "LAN_s": round(LAN.estimate_s(result.wall_time_s, result.total_bytes, result.rounds), 3),
            "WAN_s": round(
                WAN_SECUREML.estimate_s(result.wall_time_s, result.total_bytes, result.rounds), 3
            ),
            "paper_d1000": PAPER_D1000.get(scheme_name),
        }
    )


@pytest.mark.parametrize("d", dims_for_table3())
def test_table3_secureml(benchmark, d, bench_group, bench_rng):
    result = benchmark.pedantic(lambda: _run_secureml(d, bench_group, bench_rng), rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "d": d,
            "comm_MB": round(result.total_bytes / 2**20, 2),
            "LAN_s": round(LAN.estimate_s(result.wall_time_s, result.total_bytes, result.rounds), 3),
            "WAN_s": round(
                WAN_SECUREML.estimate_s(result.wall_time_s, result.total_bytes, result.rounds), 3
            ),
            "paper_d1000": PAPER_D1000["SecureML"],
        }
    )


def test_table3_shapes(bench_group, bench_rng):
    """The comparison ratios the paper reports, on live runs at d=100."""
    d = 100
    secureml = _run_secureml(d, bench_group, bench_rng)
    results = {name: _run_abnn2(name, d, bench_group, bench_rng) for name in SCHEME_NAMES}

    # Paper: comm ~25x / ~20x / ~4x below SecureML.  The paper charges
    # 2 kappa = 256 U bits per OT; the running protocol sends c(N), so the
    # ratios are taken on the paper's basis, adding back
    # gamma * m * n * (256 - c(N)) bits, and the live ratio (fewer ABNN2
    # bytes) must be at least as large.
    def paper_bytes(name):
        scheme = TABLE2_SCHEMES[name]
        dropped = sum(256 - kk13_code_bits(frag.n_values) for frag in scheme.fragments)
        return results[name].total_bytes + dropped * M * d // 8

    ratios = {}
    for name in SCHEME_NAMES:
        ratios[name] = secureml.total_bytes / paper_bytes(name)
        assert secureml.total_bytes / results[name].total_bytes >= ratios[name]
    assert 10 < ratios["binary"] < 50
    assert 8 < ratios["ternary"] < 45
    assert 2 < ratios["8(2,2,2,2)"] < 10

    # Projected WAN: ABNN2 binary/ternary at least ~8x faster.
    def wan(res):
        return WAN_SECUREML.estimate_s(res.wall_time_s, res.total_bytes, res.rounds)

    assert wan(secureml) / wan(results["binary"]) > 8
    assert wan(secureml) / wan(results["ternary"]) > 6
    assert wan(secureml) / wan(results["8(2,2,2,2)"]) > 1.5
