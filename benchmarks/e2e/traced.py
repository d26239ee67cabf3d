"""The traced pass: one plain and one ledger prediction (or one plain and
one traced window of served sessions), reduced to the per-layer metrics,
plus the workload-independent probes.

The end-to-end numbers are never taken here: harness spans,
``ProbeChannel`` and probes are on only in this pass, and the difference
between its traced and plain predictions is ``perf.trace.overhead_frac``.
"""

from __future__ import annotations

import sys
from functools import partial

import adapters
import probes
import serving
from ledger import ProbeChannel, SpanLog, find_spans, protocol_ledger
from oneshot import Tally, timed_op
from summary import median
from workloads import Workload, draw_input, input_rng


def _net_ledger(probe: ProbeChannel, per: int = 1) -> dict:
    """The client's view of the channel, per prediction."""
    return {
        "net.recv_wait_s.offline": probe.total("recv_s", "offline") / per,
        "net.recv_wait_s.online": probe.total("recv_s", "online") / per,
        "net.send_s": probe.total("send_s") / per,
        "net.msgs": (probe.total("sent_msgs") + probe.total("recv_msgs")) / per,
        "net.bytes_c2s": probe.total("sent_bytes") / per,
        "net.bytes_s2c": probe.total("recv_bytes") / per,
    }


def _costmodel_error(workload: Workload, phases: list, measured_bytes: int) -> float:
    """Measured offline triplet bytes against ``network_offline_comm_bits``."""
    scheme = adapters.FragmentScheme.from_bits(workload.bits)
    predicted_bits = sum(
        adapters.network_offline_comm_bits(
            [(span["attrs"]["m"], span["attrs"]["n"])], scheme,
            span["attrs"]["o"], span["attrs"]["ring_bits"],
        )
        for phase in phases
        for span in find_spans(phase, "triplets")
    )
    if not predicted_bits:
        return 0.0
    return (measured_bytes - predicted_bits / 8) / (predicted_bits / 8)


def span_summary(spans: SpanLog) -> None:
    names = sorted({r["name"] for r in spans.records})
    for name in names:
        ids = spans.by_name(name)
        total = sum(spans.duration(i) for i in ids)
        own = sum(spans.self_time(i) for i in ids)
        print(f"[spans] {name:16s} n={len(ids):3d} total={total:9.4f}s self={own:9.4f}s",
              file=sys.stderr)


def oneshot(workload: Workload, qmodel, seed: int, tally: Tally, smoke: bool,
            spans: SpanLog) -> dict:
    rng = input_rng(seed, workload)
    inputs = [draw_input(rng, qmodel.input_dim, workload.batch) for _ in range(2)]
    plain = timed_op(workload, qmodel, inputs[0], tally)

    def ledger_predict(q, x, profile):
        return adapters.ledger_predict(q, x, profile, spans, ProbeChannel, "op0")

    traced = timed_op(workload, qmodel, inputs[1], tally, predict=ledger_predict)
    if plain is None or traced is None:
        raise RuntimeError("a traced-pass prediction failed; no per-layer numbers")
    op = traced[0]
    phases = [
        span for span in op.client_trace["root"]["children"]
        if span["name"] in ("offline", "online")
    ]
    metrics = protocol_ledger(phases)
    metrics.update(_net_ledger(op.probe))
    if metrics["net.bytes_c2s"] + metrics["net.bytes_s2c"] != op.wire_bytes:
        tally.consistent = False
        tally.notes.append("ProbeChannel bytes != wire_bytes")
    metrics["perf.trace.overhead_frac"] = op.wall_s / plain[0].wall_s - 1.0
    metrics["perf.costmodel.offline_bytes_rel_err"] = _costmodel_error(
        workload, phases, metrics["core.protocol.triplets_bytes"]
    )
    metrics.update(probes.run_all(smoke, with_serve_session=True))
    return metrics


def serve(workload: Workload, qmodel, server, seed: int, seconds: float,
          tally: Tally, smoke: bool, spans: SpanLog) -> dict:
    meta = adapters.model_meta(qmodel)
    plain = serving.run_window(workload, qmodel, meta, server, seed, seconds, stream=0)
    traced = serving.run_window(
        workload, qmodel, meta, server, seed, seconds, stream=1,
        wrap=partial(ProbeChannel, phase="online"), spans=spans,
    )
    tally.count(plain)
    tally.count(traced)
    sessions = [s for s in traced.sessions if s.error is None]
    if not sessions or not plain.good:
        raise RuntimeError("no served session completed; no per-layer numbers")
    # The ledger describes the prediction that opens a session (round0),
    # like the one-shot ops, which all open theirs.
    ledgers, nets = [], []
    for session in sessions:
        ledgers.append(protocol_ledger(find_spans(session.trace["root"], "round0")))
        nets.append(_net_ledger(session.probe, per=len(session.predictions)))
        sent = session.probe.total("sent_bytes") + session.probe.total("recv_bytes")
        if sent != session.probe.stats.total_bytes:
            tally.consistent = False
            tally.notes.append("ProbeChannel bytes != channel stats")
    metrics = {key: median(d[key] for d in ledgers) for key in ledgers[0]}
    metrics.update({key: median(d[key] for d in nets) for key in nets[0]})

    def warm_p50(window):
        return median(p.wall_s for s in window.sessions for p in s.predictions[1:] if p.ok)

    metrics["perf.trace.overhead_frac"] = warm_p50(traced) / warm_p50(plain) - 1.0
    metrics["perf.costmodel.offline_bytes_rel_err"] = 0.0  # nothing offline crosses this wire
    metrics.update(probes.run_all(smoke, with_serve_session=False))
    metrics.update(probes.serve_ledger(server.metrics(), sessions))
    return metrics

