"""Measured-vs-predicted reporting over exported protocol traces.

Takes a trace document written by :class:`repro.perf.trace.Tracer`
(schema ``abnn2-trace/1``) and renders the per-layer accounting table:
for every offline linear layer the traced payload bytes next to the
Table 1 closed form from :mod:`repro.perf.costmodel`, for every GC ReLU
layer the traced bytes next to :func:`~repro.perf.costmodel.gc_relu_wire_bits`,
plus phase summaries projected onto the paper's LAN/WAN link profiles
via :mod:`repro.net.netsim`.

Tolerances are *derived*, not hand-waved: the wire formats pad to
64-bit words, so

* **M-batch triplets** carry an exactly computable padding slack
  (``N * (64*ceil(o*l/64) - o*l)`` bits per OT) — the checker asserts
  byte equality at ``predicted + slack``;
* **1-batch triplets** pack each chunk's ciphertexts contiguously, so
  the slack is bounded by one word per chunk;
* **GC ReLU** is byte-exact against ``gc_relu_wire_bits`` (which
  documents the one constant delta: decode bits travel as bytes).

Base-OT setup traffic (``base-ot`` spans, amortized across the session)
is measured separately per span subtree and subtracted before the
comparison — the closed forms cost the *extension* phase only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.net.netsim import LAN, WAN_QUOTIENT, WAN_SECUREML, NetworkModel
from repro.perf.costmodel import (
    abnn2_comm_bits_radices,
    gc_relu_wire_bits,
    gc_stream_overhead_bits,
    linear_working_set_bytes,
    lowered_operand_bytes,
)
from repro.perf.trace import iter_spans

#: Chunking constants mirrored from :class:`repro.core.triplets.TripletConfig`
#: (kept numeric here: the report must price a trace without importing the
#: protocol stack).  ``tests/test_costmodel_conformance.py`` pins agreement.
_CHUNK_BUDGET_WORDS = 1 << 22
_MIN_CHUNK = 1024

DEFAULT_NETWORKS: tuple[NetworkModel, ...] = (LAN, WAN_SECUREML, WAN_QUOTIENT)


def _words(n_elems: int, bits: int) -> int:
    return (n_elems * bits + 63) // 64


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
    m: int, n: int, o: int, ring_bits: int, frag_n_values: Iterable[int], mode: str
) -> tuple[int, int]:
    """(min, max) wire bits above the Table 1 form due to word packing.

    Multi-batch slack is exact (min == max); one-batch slack is bounded
    by one 64-bit word per transmitted chunk.
    """
    radices = list(frag_n_values)
    if mode == "multi":
        width = _words(o, ring_bits)
        slack = sum(m * n * nv * (64 * width - o * ring_bits) for nv in radices)
        return slack, slack
    # one-batch: ciphers for each chunk are packed contiguously and the
    # chunk's packing rounds up to a word (< 64 bits of slack per chunk).
    width = _words(1, ring_bits)
    max_slack = 0
    groups: dict[int, int] = {}
    for nv in radices:
        groups[nv] = groups.get(nv, 0) + 1
    for nv, k in groups.items():
        total = m * n * k
        chunk = max(_MIN_CHUNK, _CHUNK_BUDGET_WORDS // max(1, nv * width))
        n_chunks = -(-total // chunk)
        max_slack += 64 * n_chunks
    return 0, max_slack


@dataclass
class ConformanceRow:
    """One measured-vs-predicted comparison (a layer-phase span)."""

    path: str
    kind: str  # "triplets" | "relu"
    detail: str
    measured_bits: int
    base_ot_bits: int
    predicted_bits: int | None
    slack_min_bits: int = 0
    slack_max_bits: int = 0

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
            needed = ("m", "n", "o", "ring_bits", "mode", "frag_n_values")
            if not all(key in attrs for key in needed):
                rows.append(
                    ConformanceRow(
                        path, "triplets", "missing dimensions",
                        span_total_bits(span), base_ot_bits(span), None,
                    )
                )
                continue
            m, n, o = attrs["m"], attrs["n"], attrs["o"]
            bits, mode = attrs["ring_bits"], attrs["mode"]
            radices = attrs["frag_n_values"]
            lo, hi = triplet_slack_bits(m, n, o, bits, radices, mode)
            rows.append(
                ConformanceRow(
                    path,
                    "triplets",
                    f"{mode} m={m} n={n} o={o} l={bits} N={radices}",
                    span_total_bits(span),
                    base_ot_bits(span),
                    abnn2_comm_bits_radices(radices, m, n, o, bits, mode),
                    lo,
                    hi,
                )
            )
        elif span["name"] == "relu":
            n_relus = attrs.get("n_relus")
            bits = attrs.get("ring_bits")
            variant = attrs.get("variant", "?")
            chunks = attrs.get("stream_chunks")
            if variant == "oblivious" and n_relus is not None and bits is not None:
                predicted = gc_relu_wire_bits(bits, n_relus)
                if chunks is not None:
                    # Streamed execution: same payload plus the exact
                    # chunk-framing overhead — still asserted to equality,
                    # so pipelining cannot mask an accounting regression.
                    predicted += gc_stream_overhead_bits(chunks)
            else:
                predicted = None  # the optimized ReLU's sign path is unmodeled
            detail = f"{variant} n={n_relus} l={bits}"
            if chunks is not None:
                detail += f" streamed chunks={chunks}"
            rows.append(
                ConformanceRow(
                    path,
                    "relu",
                    detail,
                    span_total_bits(span),
                    base_ot_bits(span),
                    predicted,
                )
            )
    return rows


def check_conformance(trace: dict[str, Any]) -> list[str]:
    """Conformance failures, empty when every modeled span is in tolerance."""
    failures = []
    for row in conformance_rows(trace):
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
    """One linear-layer span's allocation peak next to the closed form.

    Informational (no FAIL gate): the closed form counts only the
    dominant share-pipeline arrays, while the measured peak includes
    gather index tables, temporaries inside BLAS calls and interpreter
    noise.  The big-model benchmark applies the hard RSS gate; this
    table is for reading a trace.
    """

    path: str
    detail: str
    measured_bytes: int | None  # alloc_peak_bytes; None when memory mode was off
    predicted_bytes: int | None  # closed-form working set; None when unmodeled
    operand_bytes: int | None  # full lowered operand the chunked path avoids


def memory_rows(trace: dict[str, Any]) -> list[MemoryRow]:
    """Every ``matmul`` span with its predicted peak working set."""
    rows: list[MemoryRow] = []
    for path, span in iter_spans(trace):
        if span["name"] != "matmul":
            continue
        attrs = span.get("attrs", {})
        measured = span.get("alloc_peak_bytes")
        needed = ("m", "n", "o", "groups")
        if all(key in attrs for key in needed):
            m, n, o = attrs["m"], attrs["n"], attrs["o"]
            groups = attrs["groups"]
            chunk = attrs.get("chunk_cols")
            predicted = linear_working_set_bytes(m, n, o, groups, chunk)
            operand = lowered_operand_bytes(n, o, groups)
            detail = (
                f"m={m} n={n} o={o} groups={groups} "
                f"chunk={'-' if chunk is None else chunk}"
            )
        else:
            predicted, operand, detail = None, None, "missing dimensions"
        rows.append(MemoryRow(path, detail, measured, predicted, operand))
    return rows


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
        out.append("  (no matmul spans in this trace)")
        return "\n".join(out)
    out.append(
        f"  {'span':<28} {'measured':>12} {'predicted':>12} {'full operand':>13}"
    )
    for row in rows:
        out.append(
            f"  {row.path:<28} {_fmt_mem(row.measured_bytes):>12}"
            f" {_fmt_mem(row.predicted_bytes):>12} {_fmt_mem(row.operand_bytes):>13}"
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

    out.append("")
    out.append("measured vs predicted (base-OT setup subtracted):")
    out.append(
        f"  {'span':<28} {'measured':>12} {'base-OT':>10} {'core':>12}"
        f" {'predicted':>12} {'slack':>14} {'status':>7}"
    )
    for row in conformance_rows(trace):
        if row.predicted_bits is None:
            predicted, slack, status = "-", "-", "n/a"
        else:
            predicted = _fmt_bytes(row.predicted_bits)
            slack = f"+[{row.slack_min_bits}, {row.slack_max_bits}] bit"
            status = "OK" if row.ok else "FAIL"
        out.append(
            f"  {row.path:<28} {_fmt_bytes(row.measured_bits):>12}"
            f" {_fmt_bytes(row.base_ot_bits):>10} {_fmt_bytes(row.core_bits):>12}"
            f" {predicted:>12} {slack:>14} {status:>7}"
        )
        out.append(f"      {row.detail}")
    return "\n".join(out)
