"""Ablations for the design choices DESIGN.md calls out.

Not a paper table — these isolate the paper's individual optimizations:

1. **one-batch C-OT trick** (Section 4.1.3) at o = 1: the measured
   bytes against Table 1's N-message closed form, which the protocol no
   longer runs (pad 0 is the share at every batch width);
2. **multi-batch OT reuse** (Section 4.1.2) at o = 8 vs repeating the
   o = 1 protocol o times, and against the N-message closed form;
3. **optimized ReLU** (Section 4.2) vs the oblivious Algorithm-2 ReLU;
4. **fragment radix sweep** at fixed eta (the (N, gamma) trade-off),
   and the protocol's per-layer wire split against measured bytes.
"""

import numpy as np
import pytest

from conftest import paper_n_message_bits, random_weights
from repro.core.params import bit_widths, enumerate_costs, wire_split
from repro.core.protocol import secure_predict
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.net import run_protocol
from repro.perf.costmodel import abnn2_comm_bits
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring

RING = Ring(32)
MB = 1024 * 1024


def _triplets(scheme, m, n, o, group, rng):
    w = random_weights(scheme, (m, n), rng)
    r = RING.sample(rng, (n, o))
    config = TripletConfig(ring=RING, scheme=scheme, m=m, n=n, o=o, group=group)
    return run_protocol(
        lambda ch: generate_triplets_server(ch, w, config, seed=1),
        lambda ch: generate_triplets_client(ch, r, config, np.random.default_rng(2), seed=3),
        timeout_s=1200,
    )


def _extension_bytes(scheme, m, n, o, measured):
    """Measured bytes past the model: the base-OT set-up and framing."""
    return measured - abnn2_comm_bits(scheme, m, n, o, RING.bits) / 8


def test_ablation_one_batch_trick(benchmark, bench_group, bench_rng):
    """Section 4.1.3: N-1 messages instead of N at o = 1."""
    scheme = FragmentScheme.from_bits((2, 2))
    m, n = 64, 128

    one = benchmark.pedantic(
        lambda: _triplets(scheme, m, n, 1, bench_group, bench_rng), rounds=1, iterations=1
    )
    paper = paper_n_message_bits(scheme, m, n, 1, RING.bits) / 8
    benchmark.extra_info.update(
        {
            "one_batch_MB": round(one.total_bytes / MB, 3),
            "n_message_form_at_o1_MB": round(paper / MB, 3),
            "saving": round(1 - one.total_bytes / paper, 3),
        }
    )
    # Model: (l*(N-1) + c(N)) vs (l*N + c(N)) per OT -> ~9% for N=4, l=32;
    # the measured bytes sit on the N - 1 form, up to base OTs and framing.
    assert 0 <= _extension_bytes(scheme, m, n, 1, one.total_bytes) < 20_000
    assert one.total_bytes < paper


def test_ablation_multi_batch_reuse(benchmark, bench_group, bench_rng):
    """Section 4.1.2: one OT carrying o products vs o separate runs."""
    scheme = FragmentScheme.from_bits((2, 2))
    m, n, o = 32, 64, 8

    def run():
        multi = _triplets(scheme, m, n, o, bench_group, bench_rng)
        singles_bytes = sum(
            _triplets(scheme, m, n, 1, bench_group, bench_rng).total_bytes
            for _ in range(o)
        )
        return multi, singles_bytes

    multi, singles_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    paper = paper_n_message_bits(scheme, m, n, o, RING.bits) / 8
    benchmark.extra_info.update(
        {
            "multi_batch_MB": round(multi.total_bytes / MB, 3),
            "repeated_one_batch_MB": round(singles_bytes / MB, 3),
            "n_message_form_at_o8_MB": round(paper / MB, 3),
        }
    )
    # Reuse shares the c(N)-bit OT-extension overhead across the batch,
    # and pad 0 as the share saves o*l bits per OT on the N-message form.
    assert multi.total_bytes < singles_bytes
    assert 0 <= _extension_bytes(scheme, m, n, o, multi.total_bytes) < 20_000
    assert multi.total_bytes < paper


def test_ablation_relu_variant(benchmark, quantized_fig4, fig4_dataset, bench_group):
    """Section 4.2's optimized ReLU vs the oblivious Algorithm 2."""
    qmodel = quantized_fig4["ternary"]
    x = fig4_dataset.test_x[:2]

    def run():
        oblivious = secure_predict(
            qmodel, x, relu_variant="oblivious", group=bench_group, timeout_s=2400
        )
        optimized = secure_predict(
            qmodel, x, relu_variant="optimized", group=bench_group, timeout_s=2400
        )
        return oblivious, optimized

    oblivious, optimized = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "oblivious_online_MB": round(oblivious.online_bytes / MB, 3),
            "optimized_online_MB": round(optimized.online_bytes / MB, 3),
        }
    )
    assert (optimized.predictions == oblivious.predictions).all()
    # With trained ReLU layers a large fraction of neurons are negative,
    # so the optimized variant must transmit less during the online phase.
    assert optimized.online_bytes < oblivious.online_bytes


@pytest.mark.parametrize("eta", [4, 8])
def test_ablation_fragment_radix(benchmark, eta, bench_group, bench_rng):
    """The (N, gamma) sweep: measured traffic tracks the cost model.

    Candidates are ranked by what the wire costs
    (:func:`repro.perf.costmodel.abnn2_comm_bits`: ``c(N)`` U bits, not
    the paper's ``2 kappa`` that :func:`repro.core.params.enumerate_costs`
    keeps), so the best two and the worst must also measure in that order.
    At ``o = 1`` and ``o = 8`` the split the protocol runs
    (:func:`repro.core.params.wire_split` of the declared ``(2, ..., 2)``)
    must measure cheapest among the three best-priced candidates and the
    worst.
    """
    m, n = 32, 64
    compositions = [tuple(row["bit_widths"]) for row in enumerate_costs(eta, ring_bits=32, batch=1)]

    def ranked(o):
        return sorted(
            compositions,
            key=lambda widths: abnn2_comm_bits(FragmentScheme.from_bits(widths), m, n, o, 32),
        )

    declared = FragmentScheme.from_bits((2,) * (eta // 2))
    chosen = {o: bit_widths(wire_split(declared, o, RING.bits)) for o in (1, 8)}
    candidates = {o: {chosen[o], *ranked(o)[:3], ranked(o)[-1]} for o in (1, 8)}

    def run():
        return {
            o: {
                widths: _triplets(
                    FragmentScheme.from_bits(widths), m, n, o, bench_group, bench_rng
                ).total_bytes
                for widths in sorted(candidates[o])
            }
            for o in (1, 8)
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"o{o} {widths}": v for o, row in measured.items() for widths, v in row.items()}
    )
    # The analytically-best composition must also measure best.
    best, second, *_ = ranked(1)
    worst = ranked(1)[-1]
    assert measured[1][best] <= measured[1][second] <= measured[1][worst]
    # The protocol's own choice is the cheapest candidate on the wire.
    for o in (1, 8):
        assert measured[o][chosen[o]] == min(measured[o].values()), (o, measured[o])
