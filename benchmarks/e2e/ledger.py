"""Outside-in tracing for the traced pass: harness spans, a channel
wrapper that times every send and every blocking recv, and the reduction
of the library's exported per-node spans into the ``core.protocol.*``
ledger.

Nothing here edits or monkey-patches ``src/``: spans are recorded around
calls the harness itself makes, :class:`ProbeChannel` wraps a channel
endpoint the same way ``ShapedChannel`` and ``FaultyChannel`` do, and the
per-node figures are read from the trace dicts the library already
returns.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from adapters import iter_spans, payload_nbytes


# --------------------------------------------------------------------- #
# harness spans
# --------------------------------------------------------------------- #
class SpanLog:
    """In-memory span records: name, start, end, parent, op id.

    Spans nest per thread; a span opened on another thread (a protocol
    party) names its parent explicitly.  Records stay in memory until
    :meth:`dump` writes them out when the benchmark ends.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.records: list[dict] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None, op: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = len(self.records)
            if op is None and parent is not None:
                op = self.records[parent]["op"]
            record = {
                "id": span_id, "name": name, "parent": parent, "op": op,
                "start": self._clock(), "end": None,
            }
            self.records.append(record)
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            record["end"] = self._clock()

    def duration(self, span_id: int) -> float:
        record = self.records[span_id]
        return record["end"] - record["start"]

    def self_time(self, span_id: int) -> float:
        """Duration minus the part of the interval child spans cover."""
        record = self.records[span_id]
        intervals = sorted(
            (max(r["start"], record["start"]), min(r["end"], record["end"]))
            for r in self.records
            if r["parent"] == span_id and r["end"] is not None
        )
        covered, cursor = 0.0, record["start"]
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration(span_id) - covered

    def by_name(self, name: str) -> list[int]:
        return [r["id"] for r in self.records if r["name"] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "abnn2-e2e-spans/1", "spans": self.records}, fh)
            fh.write("\n")


# --------------------------------------------------------------------- #
# channel wrapper
# --------------------------------------------------------------------- #
def _new_totals() -> dict:
    return {
        "send_s": 0.0, "recv_s": 0.0,
        "sent_msgs": 0, "recv_msgs": 0,
        "sent_bytes": 0, "recv_bytes": 0,
    }


class ProbeChannel:
    """Times every ``send`` and every blocking ``recv`` of one endpoint.

    Totals are kept per ``phase`` (the harness sets it before calling a
    party's ``offline()`` / ``online()``); payload bytes are counted with
    the library's own ``payload_nbytes`` so they add up to ``ChannelStats``
    exactly.  ``recv_s`` is the time the caller was blocked: waiting for
    the peer, the link delay of a shaped channel, and decoding the frame.
    The first few events keep their timestamps for handshake latencies.
    """

    KEPT_EVENTS = 8

    def __init__(self, inner, phase: str = "setup") -> None:
        self._inner = inner
        self.phase = phase
        self.totals: dict[str, dict] = {}
        self.events: list[tuple[float, str, int]] = []

    @property
    def tracer(self):
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._inner.tracer = value

    def __getattr__(self, name):
        # party, stats, timeout_s, close, drain, abort, supports_mux, ...
        return getattr(self._inner, name)

    def _record(self, kind: str, started: float, nbytes: int) -> None:
        now = time.perf_counter()
        totals = self.totals.setdefault(self.phase, _new_totals())
        if kind == "send":
            totals["send_s"] += now - started
            totals["sent_msgs"] += 1
            totals["sent_bytes"] += nbytes
        else:
            totals["recv_s"] += now - started
            totals["recv_msgs"] += 1
            totals["recv_bytes"] += nbytes
        if len(self.events) < self.KEPT_EVENTS:
            self.events.append((now, kind, nbytes))

    def send(self, obj) -> None:
        started = time.perf_counter()
        self._inner.send(obj)
        self._record("send", started, payload_nbytes(obj))

    def recv(self):
        started = time.perf_counter()
        obj = self._inner.recv()
        self._record("recv", started, payload_nbytes(obj))
        return obj

    def exchange(self, obj):
        self.send(obj)
        return self.recv()

    def total(self, key: str, phase: str | None = None):
        return sum(
            totals[key] for name, totals in self.totals.items()
            if phase is None or name == phase
        )


# --------------------------------------------------------------------- #
# the library's exported per-node spans -> core.protocol.* ledger
# --------------------------------------------------------------------- #
def find_spans(root: dict, name: str) -> list[dict]:
    """All spans called ``name`` at or below ``root``, in trace order."""
    return [span for _path, span in iter_spans(root) if span["name"] == name]


def _bytes(span: dict) -> int:
    return span["total"]["sent_bytes"] + span["total"]["recv_bytes"]


def protocol_ledger(phases: list[dict]) -> dict:
    """Sum one party's per-node spans of one prediction.

    ``phases`` are the exported ``offline`` / ``online`` phase spans (or,
    for a served prediction, its ``round{k}`` span).  ``relu_first_s`` is
    the first ReLU node, which carries the GC session set-up when the
    prediction opens the session; ``unaccounted_frac`` is the share of
    the phases' wall time no node span covers.
    """
    kinds = {"input-share": "io", "logits-share": "io"}
    kinds.update({name: name for name in ("offline", "online", "triplets", "matmul",
                                          "relu", "pool", "deal")})
    found: dict[str, list] = {kind: [] for kind in kinds.values()}
    for phase in phases:
        for _path, span in iter_spans(phase):
            if span["name"] in kinds:
                found[kinds[span["name"]]].append(span)
    seconds = {kind: [s["duration_s"] for s in spans] for kind, spans in found.items()}
    relu = seconds["relu"]
    ledger = {
        "core.protocol.offline_s": sum(seconds["offline"]),
        "core.protocol.online_s": sum(seconds["online"]),
        "core.protocol.triplets_s": sum(seconds["triplets"]),
        "core.protocol.matmul_s": sum(seconds["matmul"]),
        "core.protocol.relu_first_s": relu[0] if relu else 0.0,
        "core.protocol.relu_rest_s": sum(relu[1:]),
        "core.protocol.pool_s": sum(seconds["pool"]),
        "core.protocol.share_io_s": sum(seconds["io"]),
        "core.protocol.triplets_bytes": sum(_bytes(s) for s in found["triplets"]),
        "core.protocol.relu_bytes": sum(_bytes(s) for s in found["relu"]),
    }
    total = sum(phase["duration_s"] for phase in phases)
    nodes = ("triplets", "matmul", "relu", "pool", "io", "deal")
    covered = sum(sum(seconds[kind]) for kind in nodes)
    ledger["core.protocol.unaccounted_frac"] = (total - covered) / total if total else 0.0
    return ledger
