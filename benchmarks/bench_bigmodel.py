#!/usr/bin/env python
"""Memory-bounded streaming execution on ImageNet-class conv layers.

Two parts, one gate set:

* **Part A — equivalence + conformance.**  A VGG-style conv net
  (:func:`repro.nn.model.vgg_imagenet` at test-tractable side) runs the
  full two-party prediction once per chunking leg — unchunked, then
  ``Im2colSpec.chunk_cols`` in {1, 7, an exact divisor, > n_positions}.
  Chunking is a local
  execution strategy: every leg's ``logits_int`` must be byte-identical
  to the unchunked baseline, and the traced per-layer offline traffic
  must match the Table-1 closed forms with **zero slack**
  (:func:`repro.perf.report.check_conformance` empty).  The baseline
  leg's traced layer spans are projected onto the paper's LAN/WAN link
  profiles.

* **Part B — per-layer RSS ceilings.**  Every conv layer of the
  full-size network runs its server-side linear pass twice in a fresh
  child process (:func:`_run_in_fresh_child`): once materializing the
  whole lowered patch matrix, once streaming it in
  ``CHUNK``-column blocks against a blocked ``U``
  (:class:`repro.core.triplets.BlockedShare`).  The child resets the
  kernel RSS high-water mark (:func:`repro.perf.trace.reset_peak_rss`)
  after building its inputs, so the reported delta is the transient
  working set of the pass alone.  Gate, for every layer whose
  closed-form unchunked working set
  (:func:`repro.perf.costmodel.linear_working_set_bytes`) provably
  exceeds the budget:

      chunked_delta  <=  budget  <  unchunked_delta

  where ``budget = output_bytes + chunked_working_set + SLACK``.  Both
  legs must also report the same sha256 over the output share bytes —
  the streaming path changes peak memory, never values.

Emits ``BENCH_bigmodel.json`` and exits non-zero on any gate failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_bigmodel.py            # full
    PYTHONPATH=src python benchmarks/bench_bigmodel.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.matmul import SecureMatmulServer
from repro.core.protocol import secure_predict
from repro.core.triplets import BlockedShare, TripletConfig
from repro.crypto.group import MODP_TEST
from repro.net.netsim import LAN, WAN_QUOTIENT, WAN_SECUREML
from repro.nn.lowering import Im2colSpec, column_blocks, lower_shares, lower_shares_block
from repro.nn.model import vgg_imagenet
from repro.nn.quantize import quantize_model, set_chunk_cols
from repro.perf.costmodel import linear_working_set_bytes, lowered_operand_bytes
from repro.perf.report import check_conformance, conformance_rows
from repro.perf.trace import iter_spans, peak_rss_bytes, reset_peak_rss
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme
from repro.utils.ring import Ring

SEED = 20260808
TIMEOUT_S = 600.0
NETWORKS = (LAN, WAN_SECUREML, WAN_QUOTIENT)

#: Column-block width of the streamed legs (Part B) and the divisor leg
#: of Part A.  1024 columns keep the per-block working set a few MB for
#: every layer of the full-size network.
CHUNK = 1024
QUICK_CHUNK = 512

#: Allocator/interpreter headroom added to the closed-form chunked
#: working set when deriving each layer's RSS budget.  Children are
#: fresh processes running pure numpy, so the noise is small; the gate
#: only fires on layers whose unchunked form exceeds the budget by
#: ``GATE_MARGIN`` to keep it provable rather than borderline.
SLACK_BYTES = 8 * 1024 * 1024
QUICK_SLACK_BYTES = 4 * 1024 * 1024
GATE_MARGIN = 1.5


def make_workloads(quick: bool):
    """(equivalence geometry, per-layer geometry) for this mode.

    Part A runs a whole network end to end, so it uses a small side;
    Part B drives single layers and can afford the ImageNet-class map.
    """
    if quick:
        return dict(side=18, base=4, batch=2), dict(side=130, base=8, batch=2)
    return dict(side=34, base=4, batch=2), dict(side=226, base=16, batch=2)


def conv_geometry(side: int, base: int) -> list[dict]:
    """The three conv layers of :func:`vgg_imagenet` at this scale."""
    s1 = (side - 2) // 2
    s2 = (s1 - 2) // 2
    return [
        dict(name="conv1", c_in=3, c_out=base, side=side),
        dict(name="conv2", c_in=base, c_out=2 * base, side=s1),
        dict(name="conv3", c_in=2 * base, c_out=4 * base, side=s2),
    ]


# --------------------------------------------------------------------- #
# Part A: equivalence + conformance legs
# --------------------------------------------------------------------- #
def run_equivalence(geom: dict, quick: bool) -> tuple[dict, list[dict], bool]:
    scheme = TABLE2_SCHEMES["4(2,2)"]
    shape = (3, geom["side"], geom["side"])
    net = vgg_imagenet(seed=1, base=geom["base"], side=geom["side"])
    rng = np.random.default_rng(SEED)
    x = rng.random((geom["batch"], int(np.prod(shape))))

    base = quantize_model(net, scheme, Ring(32), frac_bits=5, input_shape=shape)
    n_pos = base.layers[0].conv.n_positions
    divisor = next(c for c in range(min(64, n_pos), 0, -1) if n_pos % c == 0)
    chunk_legs = [None, 7, divisor] if quick else [None, 1, 7, divisor, 10**6]

    results = {}
    rows = []
    baseline = None
    identical = True
    for chunk in chunk_legs:
        name = f"im2col-chunk{chunk}"
        report = secure_predict(
            set_chunk_cols(base, chunk), x, group=MODP_TEST, seed=SEED
        )
        failures = check_conformance(report.client_trace)
        if baseline is None:
            baseline = report.logits_int
        same = bool((report.logits_int == baseline).all())
        identical = identical and same and not failures
        rows.append(
            {
                "leg": name,
                "identical_logits": same,
                "conformance_failures": failures,
                "offline_bytes": report.offline_bytes,
                "online_bytes": report.online_bytes,
            }
        )
        print(
            f"  {name}: logits {'identical' if same else 'DIFFER'}, "
            f"conformance failures {len(failures)}"
        )
        results[name] = report

    layer_rows = layer_comm_rows(results["im2col-chunkNone"].client_trace)
    return {"rows": rows, "divisor_chunk": divisor}, layer_rows, identical


def layer_comm_rows(trace: dict) -> list[dict]:
    """Measured vs predicted offline traffic per layer, with projections."""
    predicted = {
        row.path: row for row in conformance_rows(trace) if row.kind == "triplets"
    }
    rows = []
    for path, span in iter_spans(trace):
        row = predicted.get(path)
        if row is None:
            continue
        total = span["total"]
        nbytes = total["sent_bytes"] + total["recv_bytes"]
        rows.append(
            {
                "span": path,
                "measured_bytes": nbytes,
                "core_bytes": row.core_bits // 8,
                "predicted_bytes": (row.predicted_bits or 0) // 8,
                "conforms": row.ok,
                "projections_s": {
                    net.name: round(
                        net.estimate_s(span["duration_s"], nbytes, total["rounds"]), 4
                    )
                    for net in NETWORKS
                },
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Part B: per-layer RSS legs (child process workers)
# --------------------------------------------------------------------- #
def _run_in_fresh_child(worker, payload):
    """``worker(payload)`` in its own process, so each leg starts from a
    clean RSS history and one leg's peak cannot hide in another's."""
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(worker, payload).result()


def _layer_rss_worker(payload):
    """Run one conv layer's server linear pass and report its RSS delta.

    Self-contained: builds the weights, activation share and banked
    ``U`` first, resets the kernel RSS high-water mark, then runs the
    pass — so the measured peak is the transient working set of
    lowering + matmul alone.
    """
    ring = Ring(payload["ring_bits"])
    spec = Im2colSpec(
        in_channels=payload["c_in"],
        height=payload["side"],
        width=payload["side"],
        kernel=3,
        stride=1,
    )
    batch = payload["batch"]
    chunk = payload["chunk_cols"]
    total = batch * spec.n_positions
    m = payload["c_out"]
    rng = np.random.default_rng(payload["seed"])
    w = ring.reduce(rng.integers(-3, 4, size=(m, spec.patch_len)))
    activation = ring.sample(rng, (spec.in_channels * spec.height * spec.width, batch))
    config = TripletConfig(
        ring=ring,
        scheme=FragmentScheme.ternary(),
        m=m,
        n=spec.patch_len,
        o=total,
        group=MODP_TEST,
    )
    engine = SecureMatmulServer(None, w, config)  # preloaded U: no channel use
    # Both legs must consume the *same* U so their outputs are
    # byte-comparable; the chunked leg re-slices it into bank blocks
    # (all of this is pre-reset baseline, not measured working set).
    u_full = ring.sample(rng, (m, total))
    if chunk is None:
        engine.preload(u_full)
    else:
        engine.preload(
            BlockedShare(
                [
                    np.ascontiguousarray(u_full[:, lo:hi])
                    for lo, hi in column_blocks(total, chunk)
                ]
            )
        )
        del u_full

    supported = reset_peak_rss()
    rss_before = peak_rss_bytes()
    t0 = time.perf_counter()
    if chunk is None:
        out = engine.online(lower_shares(spec, activation))
    else:
        out = ring.zeros((m, total))
        for lo, hi in column_blocks(total, chunk):
            out[:, lo:hi] = engine.online_block(
                lower_shares_block(spec, activation, lo, hi), lo, hi
            )
    wall = time.perf_counter() - t0
    rss_peak = peak_rss_bytes()
    return {
        "wall_s": round(wall, 4),
        "rss_before_bytes": rss_before,
        "rss_peak_bytes": rss_peak,
        "rss_delta_bytes": rss_peak - rss_before,
        "reset_supported": supported,
        "checksum": hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest(),
    }


def run_memory_legs(geom: dict, chunk: int, slack: int) -> tuple[list[dict], list[str]]:
    failures: list[str] = []
    rows = []
    for layer in conv_geometry(geom["side"], geom["base"]):
        spec = Im2colSpec(layer["c_in"], layer["side"], layer["side"], 3, 1)
        total = geom["batch"] * spec.n_positions
        m = layer["c_out"]
        out_bytes = m * total * 8
        ws_chunked = linear_working_set_bytes(m, spec.patch_len, total, chunk)
        ws_unchunked = linear_working_set_bytes(m, spec.patch_len, total, None)
        budget = out_bytes + ws_chunked + slack
        gated = ws_unchunked >= GATE_MARGIN * budget

        legs = {}
        for leg_name, leg_chunk in (("unchunked", None), ("chunked", chunk)):
            payload = dict(
                ring_bits=32,
                c_in=layer["c_in"],
                c_out=m,
                side=layer["side"],
                batch=geom["batch"],
                chunk_cols=leg_chunk,
                seed=SEED + 9,
            )
            legs[leg_name] = _run_in_fresh_child(_layer_rss_worker, payload)

        row = {
            "layer": layer["name"],
            "m": m,
            "n": spec.patch_len,
            "total_cols": total,
            "chunk_cols": chunk,
            "budget_bytes": budget,
            "gated": gated,
            "predicted": {
                "operand_bytes": lowered_operand_bytes(spec.patch_len, total),
                "working_set_unchunked_bytes": ws_unchunked,
                "working_set_chunked_bytes": ws_chunked,
                "output_bytes": out_bytes,
            },
            "legs": legs,
        }
        rows.append(row)
        mib = 1024 * 1024
        print(
            f"  {layer['name']}: unchunked delta "
            f"{legs['unchunked']['rss_delta_bytes'] / mib:.1f} MiB, chunked "
            f"{legs['chunked']['rss_delta_bytes'] / mib:.1f} MiB, budget "
            f"{budget / mib:.1f} MiB{' [gated]' if gated else ''}"
        )

        if legs["unchunked"]["checksum"] != legs["chunked"]["checksum"]:
            failures.append(f"{layer['name']}: chunked output differs from unchunked")
        if not legs["chunked"]["reset_supported"]:
            print(f"  {layer['name']}: no RSS reset support, skipping gate")
            continue
        if gated:
            if legs["chunked"]["rss_delta_bytes"] > budget:
                failures.append(
                    f"{layer['name']}: chunked RSS delta "
                    f"{legs['chunked']['rss_delta_bytes']} exceeds budget {budget}"
                )
            if legs["unchunked"]["rss_delta_bytes"] <= budget:
                failures.append(
                    f"{layer['name']}: unchunked RSS delta "
                    f"{legs['unchunked']['rss_delta_bytes']} not above budget {budget}"
                )
    return rows, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI workload")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_bigmodel.json"), help="JSON output path"
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="write JSON but skip the gates"
    )
    args = parser.parse_args()

    equiv_geom, layer_geom = make_workloads(args.quick)
    chunk = QUICK_CHUNK if args.quick else CHUNK
    slack = QUICK_SLACK_BYTES if args.quick else SLACK_BYTES

    print(
        f"part A: vgg_imagenet side={equiv_geom['side']} base={equiv_geom['base']} "
        f"batch={equiv_geom['batch']} (two-party, per-chunk legs)"
    )
    equivalence, layer_comm, identical = run_equivalence(equiv_geom, args.quick)

    print(
        f"part B: per-layer RSS at side={layer_geom['side']} "
        f"base={layer_geom['base']} batch={layer_geom['batch']}, chunk={chunk}"
    )
    memory_rows, memory_failures = run_memory_legs(layer_geom, chunk, slack)

    result = {
        "bench": "bigmodel_streaming",
        "quick": args.quick,
        "seed": SEED,
        "equivalence_workload": equiv_geom,
        "memory_workload": layer_geom,
        "equivalence": equivalence,
        "layer_comm": layer_comm,
        "memory": {
            "chunk_cols": chunk,
            "slack_bytes": slack,
            "gate_margin": GATE_MARGIN,
            "rows": memory_rows,
        },
        "gates": {
            "identical_logits_and_conformance": identical,
            "memory_failures": memory_failures,
        },
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.no_assert:
        return 0
    ok = True
    if not identical:
        print("GATE FAIL: equivalence/conformance legs", file=sys.stderr)
        ok = False
    for failure in memory_failures:
        print(f"GATE FAIL: {failure}", file=sys.stderr)
        ok = False
    if ok:
        print("all gates passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
