"""Measured-vs-predicted reporting over exported protocol traces.

Takes a trace document written by :class:`repro.perf.trace.Tracer`
(schema ``abnn2-trace/1``) and renders the per-layer accounting table:
for every offline linear layer the traced payload bytes next to the
Table 1 closed form from :mod:`repro.perf.costmodel`, its KK13 ``U``
priced at the ``code_bits`` (``c(N)`` per fragment) the span records, for every GC ReLU
layer (either variant) the traced bytes next to
:func:`~repro.perf.costmodel.gc_relu_wire_bits` at the span's
``(l', m, f, n)``, for the input and logits share frames
:func:`~repro.perf.costmodel.share_frame_bits`, plus phase summaries
projected onto the paper's LAN/WAN link profiles via
:mod:`repro.net.netsim`.  Every span is priced at its own ring width
(``ring_bits``; a ReLU at its input width and output ring ``out_bits``),
which the table's ring column shows.

Tolerances are *derived*, not hand-waved: the wire formats pad to
64-bit words, so

* **triplets** pack each wire chunk's message elements back to back, so the slack is the exactly computable padding
  of each chunk to a word (under 64 bits per chunk) — the checker
  asserts byte equality at ``predicted + slack``;
* **share frames** are byte-exact against ``share_frame_bits``;
* **GC ReLU** is byte-exact against ``gc_relu_wire_bits``; the
  optimized variant is priced from the ``n_positive`` its span records.

The base-OT set-up (``base-ot`` spans) runs once per channel and
direction, inside whichever layer span first needs it.  It is subtracted
from that layer's row — the layer closed forms cost the *extension*
phase only — and reported as its own set-up row, byte-exact against
:func:`~repro.perf.costmodel.base_ot_setup_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.net.netsim import LAN, WAN_QUOTIENT, WAN_SECUREML, NetworkModel
from repro.perf.costmodel import (
    abnn2_comm_bits_radices,
    base_ot_setup_bits,
    client_linear_working_set_bytes,
    gc_relu_wire_bits,
    kk13_code_bits,
    linear_working_set_bytes,
    lowered_operand_bytes,
    share_frame_bits,
    triplet_working_set_bytes,
)
from repro.perf.trace import iter_spans

DEFAULT_NETWORKS: tuple[NetworkModel, ...] = (LAN, WAN_SECUREML, WAN_QUOTIENT)


def base_ot_bits(node: dict[str, Any]) -> int:
    """Total payload bits of every ``base-ot`` span in ``node``'s subtree."""
    total = 0
    for _path, span in iter_spans(node):
        if span["name"] == "base-ot":
            total += 8 * (span["total"]["sent_bytes"] + span["total"]["recv_bytes"])
    return total


def span_total_bits(node: dict[str, Any]) -> int:
    return 8 * (node["total"]["sent_bytes"] + node["total"]["recv_bytes"])


def triplet_slack_bits(
    m: int, n: int, o: int, ring_bits: int, frag_n_values: Iterable[int]
) -> tuple[int, int]:
    """(min, max) wire bits above the Table 1 form due to word packing.

    Each wire chunk packs its message elements (``(N - 1) o`` per OT)
    back to back and pads the frame to a word.  Every chunk but a radix
    group's last is a multiple of 64 OTs and fills whole words, so the
    slack is exact (min == max): the group's word padding, under 64 bits
    per radix group.
    """
    radices = list(frag_n_values)
    slack = 0
    for nv in set(radices):
        bits = m * n * radices.count(nv) * (nv - 1) * o * ring_bits
        slack += -bits % 64  # the padding to a whole word
    return slack, slack


@dataclass
class ConformanceRow:
    """One measured-vs-predicted comparison (a layer-phase span)."""

    path: str
    kind: str  # "triplets" | "relu" | "share" | "base-ot"
    detail: str
    measured_bits: int
    base_ot_bits: int
    predicted_bits: int | None
    slack_min_bits: int = 0
    slack_max_bits: int = 0
    ring: str = "-"  # the span's ring width(s), "in->out" for a ReLU

    @property
    def core_bits(self) -> int:
        """Measured bits with base-OT setup traffic stripped."""
        return self.measured_bits - self.base_ot_bits

    @property
    def ok(self) -> bool | None:
        """True/False against the model; None when the span is unmodeled."""
        if self.predicted_bits is None:
            return None
        lo = self.predicted_bits + self.slack_min_bits
        hi = self.predicted_bits + self.slack_max_bits
        return lo <= self.core_bits <= hi


def conformance_rows(trace: dict[str, Any]) -> list[ConformanceRow]:
    """Extract every comparable layer span from a trace document."""
    rows: list[ConformanceRow] = []
    for path, span in iter_spans(trace):
        attrs = span.get("attrs", {})
        if span["name"] == "triplets":
            needed = ("m", "n", "o", "ring_bits", "frag_n_values")
            if not all(key in attrs for key in needed):
                rows.append(
                    ConformanceRow(
                        path, "triplets", "missing dimensions",
                        span_total_bits(span), base_ot_bits(span), None,
                    )
                )
                continue
            m, n, o, bits = attrs["m"], attrs["n"], attrs["o"], attrs["ring_bits"]
            radices = attrs["frag_n_values"]
            # U bits per OT as the span records them (c(N) per fragment);
            # a trace without them is priced at the closed-form c(N).
            code_bits = attrs.get("code_bits") or [kk13_code_bits(nv) for nv in radices]
            lo, hi = triplet_slack_bits(m, n, o, bits, radices)
            rows.append(
                ConformanceRow(
                    path,
                    "triplets",
                    f"m={m} n={n} o={o} l={bits} N={radices} code_bits={code_bits}",
                    span_total_bits(span),
                    base_ot_bits(span),
                    abnn2_comm_bits_radices(radices, m, n, o, bits, code_bits),
                    lo,
                    hi,
                    str(bits),
                )
            )
        elif span["name"] == "relu":
            n_relus = attrs.get("n_relus")
            bits = attrs.get("ring_bits")
            # Traces that predate per-layer rings output in the input ring.
            out_bits = attrs.get("out_bits", bits)
            width, shift = attrs.get("width", bits), attrs.get("shift", 0)
            variant = attrs.get("variant", "?")
            n_positive = attrs.get("n_positive")
            detail = f"{variant} n={n_relus} l={bits} m={width} f={shift} l'={out_bits}"
            if variant == "optimized":
                detail += f" positive={n_positive}"
            modeled = n_relus is not None and out_bits is not None and (
                variant == "oblivious" or (variant == "optimized" and n_positive is not None)
            )
            rows.append(
                ConformanceRow(
                    path,
                    "relu",
                    detail,
                    span_total_bits(span),
                    base_ot_bits(span),
                    gc_relu_wire_bits(out_bits, n_relus, width, shift, variant, n_positive)
                    if modeled else None,
                    ring=f"{bits}->{out_bits}",
                )
            )
        elif span["name"] in ("input-share", "logits-share") and "elements" in attrs:
            count, bits = attrs["elements"], attrs["ring_bits"]
            rows.append(
                ConformanceRow(
                    path, "share", f"{count} elements l={bits}", span_total_bits(span),
                    base_ot_bits(span), share_frame_bits(count, bits), ring=str(bits),
                )
            )
    return rows


def setup_rows(trace: dict[str, Any]) -> list[ConformanceRow]:
    """One row per base-OT set-up handshake, against its closed form."""
    rows = []
    for path, span in iter_spans(trace):
        if span["name"] != "base-ot":
            continue
        attrs = span.get("attrs", {})
        columns, element_bytes = attrs.get("columns"), attrs.get("element_bytes")
        rows.append(
            ConformanceRow(
                path,
                "base-ot",
                f"{attrs.get('role', '?')} columns={columns} element={element_bytes} B",
                span_total_bits(span),
                0,
                None if columns is None or element_bytes is None
                else base_ot_setup_bits(columns, 8 * element_bytes),
            )
        )
    return rows


def check_conformance(trace: dict[str, Any]) -> list[str]:
    """Conformance failures, empty when every modeled span is in tolerance
    (the triplet allocation bounds of :func:`check_memory` included)."""
    failures = check_memory(trace)
    for row in conformance_rows(trace) + setup_rows(trace):
        if row.ok is False:
            lo = (row.predicted_bits or 0) + row.slack_min_bits
            hi = (row.predicted_bits or 0) + row.slack_max_bits
            failures.append(
                f"{row.path}: measured {row.core_bits} bits outside "
                f"[{lo}, {hi}] (predicted {row.predicted_bits}, {row.detail})"
            )
    return failures


# --------------------------------------------------------------------- #
# memory: measured vs predicted working sets
# --------------------------------------------------------------------- #
@dataclass
class MemoryRow:
    """One span's allocation peak next to its closed-form working set.

    ``matmul`` rows (the online linear step) are informational: their
    closed form counts only the dominant share-pipeline arrays, while the
    measured peak includes gather index tables, temporaries inside BLAS
    calls and interpreter noise; the big-model benchmark applies the hard
    RSS gate.  ``triplets`` rows (offline triplet generation) are gated:
    :func:`~repro.perf.costmodel.triplet_working_set_bytes` is an upper
    bound, and ``report --check`` fails a span that measures above it.

    The heap is the process's, and in an in-process pair one party may
    already work in the next layer's span, in either pass, while the
    other finishes the previous layer, so a triplets span is held to the
    larger of its own bound and the previous triplets span's
    (``bound_bytes``).
    """

    path: str
    detail: str
    measured_bytes: int | None  # alloc_peak_bytes; None when memory mode was off
    predicted_bytes: int | None  # closed-form working set; None when unmodeled
    operand_bytes: int | None  # full lowered operand the chunked path avoids
    kind: str = "matmul"  # "matmul" | "triplets"
    bound_bytes: int | None = None  # what a triplets span is checked against

    @property
    def ok(self) -> bool | None:
        """False when a triplets span measures above its bound, else
        True; None for informational or unmeasured rows."""
        if self.kind != "triplets" or None in (self.measured_bytes, self.bound_bytes):
            return None
        return self.measured_bytes <= self.bound_bytes


def memory_rows(trace: dict[str, Any]) -> list[MemoryRow]:
    """Every ``matmul`` and ``triplets`` span with its predicted peak
    working set.  A ``matmul`` span is priced as the trace's party runs
    it: the server multiplies (:func:`linear_working_set_bytes`), the
    client only lifts its ``V`` (:func:`client_linear_working_set_bytes`)."""
    rows: list[MemoryRow] = []
    previous = None  # the last triplets span's closed form
    client = trace.get("party") == "client"
    for path, span in iter_spans(trace):
        kind = span["name"]
        if kind not in ("matmul", "triplets"):
            continue
        attrs = span.get("attrs", {})
        measured = span.get("alloc_peak_bytes")
        predicted, operand, detail = None, None, "missing dimensions"
        if kind == "triplets":
            needed = ("m", "n", "o", "ring_bits", "frag_n_values")
            if all(key in attrs for key in needed):
                m, n, o, bits = attrs["m"], attrs["n"], attrs["o"], attrs["ring_bits"]
                radices = attrs["frag_n_values"]
                predicted = triplet_working_set_bytes(m, n, o, bits, radices)
                detail = f"m={m} n={n} o={o} l={bits} N={radices}"
            bound = predicted
            if None not in (predicted, previous) and previous > predicted:
                bound = previous
                detail += f" (checked against the previous layer's {_fmt_mem(bound)})"
            rows.append(MemoryRow(path, detail, measured, predicted, None, kind, bound))
            previous = predicted
            continue
        if client and all(key in attrs for key in ("m", "o")):
            m, o = attrs["m"], attrs["o"]
            predicted = client_linear_working_set_bytes(m, o)
            detail = f"m={m} o={o} (the client lifts V)"
        elif all(key in attrs for key in ("m", "n", "o")):
            m, n, o = attrs["m"], attrs["n"], attrs["o"]
            chunk = attrs.get("chunk_cols")
            predicted = linear_working_set_bytes(m, n, o, chunk)
            operand = lowered_operand_bytes(n, o)
            detail = f"m={m} n={n} o={o} chunk={'-' if chunk is None else chunk}"
        rows.append(MemoryRow(path, detail, measured, predicted, operand, kind))
    return rows


def check_memory(trace: dict[str, Any]) -> list[str]:
    """Triplets spans whose allocation peak exceeds the closed form."""
    return [
        f"{row.path}: allocation peak {row.measured_bytes} B above the "
        f"closed-form working set {row.bound_bytes} B ({row.detail})"
        for row in memory_rows(trace)
        if row.ok is False
    ]


def _fmt_mem(nbytes: int | None) -> str:
    if nbytes is None:
        return "-"
    if nbytes >= 1024 * 1024:
        return f"{nbytes / (1024 * 1024):.2f} MiB"
    if nbytes >= 1024:
        return f"{nbytes / 1024:.2f} KiB"
    return f"{nbytes} B"


def render_memory_report(trace: dict[str, Any]) -> str:
    """The ``python -m repro report --memory`` section."""
    out = ["memory (per-span allocation peaks vs closed-form working sets):"]
    peak_rss = trace["root"].get("attrs", {}).get("peak_rss_bytes")
    if peak_rss is not None:
        out.append(f"  process peak RSS: {_fmt_mem(peak_rss)}")
    rows = memory_rows(trace)
    if not rows:
        out.append("  (no matmul spans or triplets spans in this trace)")
        return "\n".join(out)
    out.append(
        f"  {'span':<28} {'measured':>12} {'predicted':>12} {'full operand':>13}"
        f" {'status':>7}"
    )
    for row in rows:
        status = {None: "-", True: "OK", False: "FAIL"}[row.ok]
        out.append(
            f"  {row.path:<28} {_fmt_mem(row.measured_bytes):>12}"
            f" {_fmt_mem(row.predicted_bytes):>12} {_fmt_mem(row.operand_bytes):>13}"
            f" {status:>7}"
        )
        out.append(f"      {row.detail}")
    if all(row.measured_bytes is None for row in rows):
        out.append(
            "  (measured column empty: record with ABNN2_TRACE_MEMORY=1 "
            "or Tracer(memory=True))"
        )
    return "\n".join(out)


# --------------------------------------------------------------------- #
# phase summaries + network projection
# --------------------------------------------------------------------- #
@dataclass
class PhaseRow:
    """One top-level phase (offline/online) with projected wall times."""

    name: str
    seconds: float
    payload_bytes: int
    rounds: int
    messages: int
    projections: dict[str, float]


def phase_rows(
    trace: dict[str, Any], networks: Iterable[NetworkModel] = DEFAULT_NETWORKS
) -> list[PhaseRow]:
    nets = tuple(networks)
    rows = []
    for child in trace["root"]["children"]:
        total = child["total"]
        nbytes = total["sent_bytes"] + total["recv_bytes"]
        rows.append(
            PhaseRow(
                name=child["name"],
                seconds=child["duration_s"],
                payload_bytes=nbytes,
                rounds=total["rounds"],
                messages=total["sent_msgs"] + total["recv_msgs"],
                projections={
                    net.name: net.estimate_s(child["duration_s"], nbytes, total["rounds"])
                    for net in nets
                },
            )
        )
    return rows


def _fmt_bytes(nbits: int) -> str:
    nbytes = nbits / 8
    if nbytes >= 1024 * 1024:
        return f"{nbytes / (1024 * 1024):.2f} MiB"
    if nbytes >= 1024:
        return f"{nbytes / 1024:.2f} KiB"
    return f"{nbytes:.0f} B"


def render_report(
    trace: dict[str, Any], networks: Iterable[NetworkModel] = DEFAULT_NETWORKS
) -> str:
    """The ``python -m repro report`` table, as one printable string."""
    nets = tuple(networks)
    ro_kernel = trace.get("root", {}).get("attrs", {}).get("ro_kernel", "?")
    out = [
        f"trace: schema={trace.get('schema')} party={trace.get('party') or '?'}"
        f" ro_kernel={ro_kernel}"
    ]

    out.append("")
    out.append("phases (measured compute + projected links):")
    header = f"  {'phase':<12} {'time':>9} {'payload':>12} {'rounds':>7} {'msgs':>6}"
    header += "".join(f" {net.name:>18}" for net in nets)
    out.append(header)
    for row in phase_rows(trace, nets):
        line = (
            f"  {row.name:<12} {row.seconds:>8.3f}s {_fmt_bytes(row.payload_bytes * 8):>12}"
            f" {row.rounds:>7} {row.messages:>6}"
        )
        line += "".join(f" {row.projections[net.name]:>17.3f}s" for net in nets)
        out.append(line)

    header = (
        f"  {'span':<28} {'ring':>7} {'measured':>12} {'base-OT':>10} {'core':>12}"
        f" {'predicted':>12} {'slack':>14} {'status':>7}"
    )
    for title, rows in (
        ("measured vs predicted (base-OT set-up subtracted):", conformance_rows(trace)),
        ("set-up (base OTs, once per channel and direction):", setup_rows(trace)),
    ):
        out += ["", title, header]
        for row in rows:
            if row.predicted_bits is None:
                predicted, slack, status = "-", "-", "n/a"
            else:
                predicted = _fmt_bytes(row.predicted_bits)
                slack = f"+[{row.slack_min_bits}, {row.slack_max_bits}] bit"
                status = "OK" if row.ok else "FAIL"
            out.append(
                f"  {row.path:<28} {row.ring:>7} {_fmt_bytes(row.measured_bits):>12}"
                f" {_fmt_bytes(row.base_ot_bits):>10} {_fmt_bytes(row.core_bits):>12}"
                f" {predicted:>12} {slack:>14} {status:>7}"
            )
            out.append(f"      {row.detail}")
    return "\n".join(out)
