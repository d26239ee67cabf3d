"""Hierarchical protocol tracing: spans with comm/round accounting.

A :class:`Tracer` is a per-party, single-threaded recorder of nested
**spans**.  A span is opened with :meth:`Tracer.span` (a context
manager) or the lower-level :meth:`Tracer.start_span` /
:meth:`Tracer.end_span` pair, and accumulates, while it is the
*innermost open* span:

* wall time (``perf_counter`` based),
* payload bytes sent / received (what the paper's communication
  columns count — see :func:`repro.utils.serialization.payload_nbytes`),
* message counts per direction,
* **rounds**: the number of direction flips in this party's own
  send/recv event stream.  The first message of a span's subtree opens
  round 1.  This is provably the same convention as
  :class:`repro.net.channel.ChannelStats` (a round begins whenever the
  sending party flips): from one party's viewpoint a flip of the
  global sender is exactly a flip between that party sending and
  receiving.  ``tests/test_rounds_convention.py`` pins the agreement.

Channels cooperate via duck typing: both
:class:`repro.net.channel.Channel` and :class:`repro.net.tcp.TcpChannel`
call ``chan.tracer.record_io(...)`` after every successful send/recv
when a tracer is attached as ``chan.tracer``.  Protocol layers that may
run without a tracer use :func:`channel_span`, which degrades to a
no-op context manager.

Traces export to a schema-versioned JSON document
(:data:`TRACE_SCHEMA`); see ``docs/PROTOCOLS.md`` §10 for the span
taxonomy and the document layout.  Per-span ``self`` counters hold
traffic attributed to that span exclusive of children; ``total``
counters (self + descendants) are computed at export time.

Memory mode (``Tracer(memory=True)``, or env ``ABNN2_TRACE_MEMORY=1``)
adds per-span **allocation high-water marks** via :mod:`tracemalloc`:
each span records the peak python-heap growth observed while it was
open, relative to the heap size at its own start.  The peak is folded
into every open span — of every memory-mode tracer in the process — at
each span boundary and at export, so nested spans, and the two parties
of an in-process pair, see their own maxima even though
:func:`tracemalloc.reset_peak` is global.  The heap is the process's,
so a span's peak includes what other threads allocated while it was
open.  The exported root span additionally carries the process
``peak_rss_bytes`` (``VmHWM``).  Module-level helpers
:func:`current_rss_bytes` / :func:`peak_rss_bytes` /
:func:`reset_peak_rss` expose the OS-level counters directly for
benchmarks that measure working sets without tracemalloc overhead.

Thread model: one tracer belongs to one party thread.  Attaching the
same tracer to channels driven from two threads is unsupported.
"""

from __future__ import annotations

import json
import os
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

from repro.crypto.fastro import kernel_active
from repro.errors import ConfigError, load_errors

#: Version tag stamped into exported trace documents.
TRACE_SCHEMA = "abnn2-trace/1"

_SEND = "send"
_RECV = "recv"

#: Env var that turns on allocation tracking for every Tracer by default.
MEMORY_ENV = "ABNN2_TRACE_MEMORY"

#: The process's memory-mode tracers.  tracemalloc keeps one global peak,
#: so a fold credits it to the open spans of *every* tracer here before
#: resetting it: the two parties of an in-process pair, one tracer per
#: thread, then both see a peak, whichever reaches a span boundary first.
_MEMORY_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()
_FOLD_LOCK = threading.Lock()


# --------------------------------------------------------------------- #
# process-level memory counters
# --------------------------------------------------------------------- #
def _read_status_kb(field: str) -> int | None:
    """One ``Vm*`` line of ``/proc/self/status`` in bytes, or None."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _rusage_maxrss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def current_rss_bytes() -> int:
    """Resident set size of this process right now (``VmRSS``).

    Falls back to ``ru_maxrss`` (a *peak*, so an upper bound) on
    platforms without ``/proc``.
    """
    value = _read_status_kb("VmRSS")
    return value if value is not None else _rusage_maxrss_bytes()


def peak_rss_bytes() -> int:
    """Peak resident set size since process start or the last
    :func:`reset_peak_rss` (``VmHWM``, with ``ru_maxrss`` fallback)."""
    value = _read_status_kb("VmHWM")
    return value if value is not None else _rusage_maxrss_bytes()


def reset_peak_rss() -> bool:
    """Reset the kernel's RSS high-water mark (``VmHWM``) to the current
    RSS by writing ``5`` to ``/proc/self/clear_refs``.

    Returns True when the reset took effect; False on platforms without
    the knob (callers should then measure in a fresh subprocess, as the
    big-model benchmark does).
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


class Span:
    """One node of the trace tree.  ``self_*`` counters are exclusive of
    children; use :meth:`totals` for the inclusive view."""

    __slots__ = (
        "name",
        "attrs",
        "parent",
        "children",
        "start_s",
        "duration_s",
        "sent_bytes",
        "recv_bytes",
        "sent_msgs",
        "recv_msgs",
        "rounds",
        "alloc_base",
        "alloc_peak_bytes",
    )

    def __init__(self, name: str, attrs: dict[str, Any], parent: "Span | None") -> None:
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.children: list[Span] = []
        self.start_s = 0.0
        self.duration_s: float | None = None
        self.sent_bytes = 0
        self.recv_bytes = 0
        self.sent_msgs = 0
        self.recv_msgs = 0
        self.rounds = 0
        # Heap size when the span opened and the peak growth above it,
        # maintained by the owning tracer in memory mode (else None).
        self.alloc_base = 0
        self.alloc_peak_bytes: int | None = None

    @property
    def path(self) -> str:
        """Slash-joined ancestry, e.g. ``online/layer0/matmul``.

        The implicit root span is omitted from paths.
        """
        parts: list[str] = []
        node: Span | None = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def totals(self) -> dict[str, int]:
        """Inclusive counters: this span plus all descendants."""
        agg = {
            "sent_bytes": self.sent_bytes,
            "recv_bytes": self.recv_bytes,
            "sent_msgs": self.sent_msgs,
            "recv_msgs": self.recv_msgs,
            "rounds": self.rounds,
        }
        for child in self.children:
            sub = child.totals()
            for key in agg:
                agg[key] += sub[key]
        return agg

    def to_dict(self, now_s: float | None = None) -> dict[str, Any]:
        """JSON-ready node (see :data:`TRACE_SCHEMA` for the envelope)."""
        duration = self.duration_s
        if duration is None:
            duration = (now_s if now_s is not None else time.perf_counter()) - self.start_s
        node = {
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_s": duration,
            "self": {
                "sent_bytes": self.sent_bytes,
                "recv_bytes": self.recv_bytes,
                "sent_msgs": self.sent_msgs,
                "recv_msgs": self.recv_msgs,
                "rounds": self.rounds,
            },
            "total": self.totals(),
            "children": [child.to_dict(now_s) for child in self.children],
        }
        if self.alloc_peak_bytes is not None:
            node["alloc_peak_bytes"] = self.alloc_peak_bytes
        return node

    def __repr__(self) -> str:
        return f"Span({self.path!r}, sent={self.sent_bytes}, recv={self.recv_bytes})"


class Tracer:
    """Per-party span stack plus the channel IO hook (:meth:`record_io`)."""

    def __init__(
        self,
        party: str = "",
        clock: Callable[[], float] = time.perf_counter,
        memory: bool | None = None,
    ) -> None:
        if memory is None:
            memory = os.environ.get(MEMORY_ENV, "").lower() in ("1", "true", "yes", "on")
        self.party = party
        self._clock = clock
        self.memory = memory
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
        self.root = Span("root", {"party": party} if party else {}, parent=None)
        self.root.start_s = clock()
        self._stack: list[Span] = [self.root]
        if memory:
            self.root.alloc_base = tracemalloc.get_traced_memory()[0]
            self.root.alloc_peak_bytes = 0
            with _FOLD_LOCK:
                _MEMORY_TRACERS.add(self)
        # Direction of the last IO event seen by this tracer, across span
        # boundaries: rounds are a property of the message *stream*, so a
        # span that continues the previous direction opens no new round.
        self._last_dir: str | None = None

    def _fold_alloc_peak(self) -> None:
        """Fold the tracemalloc peak of the segment since the previous
        boundary into every open span of every memory-mode tracer, then
        reset the (global) peak.

        ``alloc_base`` and the tracemalloc peak are both absolute heap
        sizes, so ``peak - base`` is each span's growth high-water for
        this segment; the running max across segments is exactly the
        span-lifetime peak a per-span counter would have recorded.
        """
        if not self.memory or not tracemalloc.is_tracing():
            return
        with _FOLD_LOCK:
            _, peak = tracemalloc.get_traced_memory()
            for tracer in list(_MEMORY_TRACERS):
                # A copy: the owning thread may push or pop meanwhile.
                for span in list(tracer._stack):
                    growth = peak - span.alloc_base
                    if span.alloc_peak_bytes is None or growth > span.alloc_peak_bytes:
                        span.alloc_peak_bytes = max(growth, 0)
            tracemalloc.reset_peak()

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #
    def start_span(self, name: str, **attrs: Any) -> Span:
        """Open a child of the innermost open span.  Prefer :meth:`span`;
        this form exists for try/finally call sites that need the span
        object after an exception."""
        if not name:
            raise ConfigError("span name must be non-empty")
        self._fold_alloc_peak()
        span = Span(name, attrs, parent=self._stack[-1])
        span.start_s = self._clock()
        if self.memory and tracemalloc.is_tracing():
            span.alloc_base = tracemalloc.get_traced_memory()[0]
            span.alloc_peak_bytes = 0
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close ``span`` (and, defensively, anything opened under it that
        an exception left dangling)."""
        if span not in self._stack:
            raise ConfigError(f"span {span.path!r} is not open")
        self._fold_alloc_peak()
        now = self._clock()
        while True:
            top = self._stack.pop()
            if top.duration_s is None:
                top.duration_s = now - top.start_s
            if top is span:
                return span

    @contextmanager
    def resume(self, span: Span) -> Iterator[Span]:
        """``with tracer.resume(span): ...`` — re-open a closed descendant
        of the innermost open span, with the closed spans between them,
        until the block ends.

        Their counters and children keep accumulating, their durations
        add the time the block takes, and their allocation peaks are the
        larger of the openings' growths.  A phase that runs in passes
        (the offline triplets) thus keeps one span per layer.
        """
        chain = []
        node: Span | None = span
        while node is not None and node is not self._stack[-1]:
            chain.append(node)
            node = node.parent
        if node is None or not chain or any(link.duration_s is None for link in chain):
            raise ConfigError(f"span {span.path!r} is not a closed descendant of the open span")
        self._fold_alloc_peak()
        now = self._clock()
        for link in reversed(chain):
            link.start_s = now - link.duration_s
            link.duration_s = None
            if self.memory and tracemalloc.is_tracing():
                # Growth is measured from each (re-)opening: what the
                # span kept from an earlier pass is already in the base.
                link.alloc_base = tracemalloc.get_traced_memory()[0]
            self._stack.append(link)
        try:
            yield span
        finally:
            self.end_span(chain[-1])

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("offline/layer0"): ...`` — the usual entry.

        Slashes in ``name`` open one nested span per segment, so
        ``span("online/layer3/matmul")`` and three nested ``span`` calls
        produce identical trees.
        """
        parts = [p for p in name.split("/") if p]
        if not parts:
            raise ConfigError("span name must be non-empty")
        opened = []
        for part in parts[:-1]:
            opened.append(self.start_span(part))
        opened.append(self.start_span(parts[-1], **attrs))
        try:
            yield opened[-1]
        finally:
            self.end_span(opened[0])

    @property
    def current(self) -> Span:
        """The innermost open span (the root if none is open)."""
        return self._stack[-1]

    def adopt(self, child: "Tracer", name: str, **attrs: Any) -> Span:
        """Graft another tracer's span tree as one closed child span.

        A tracer is single-threaded, so the execution engine gives each
        shard worker its *own* tracer (attached to that shard's mux
        stream) and, after joining the workers, adopts the shard trees
        here in shard order.  The adopted span keeps the shard tracer's
        wall clock (creation to adoption) and root counters; ``attrs``
        overlay the shard root's attributes.
        """
        root = child.root
        now = child._clock()
        span = Span(name, {**root.attrs, **attrs}, parent=self._stack[-1])
        span.start_s = root.start_s
        span.duration_s = (
            root.duration_s if root.duration_s is not None else now - root.start_s
        )
        span.sent_bytes = root.sent_bytes
        span.recv_bytes = root.recv_bytes
        span.sent_msgs = root.sent_msgs
        span.recv_msgs = root.recv_msgs
        span.rounds = root.rounds
        span.alloc_peak_bytes = root.alloc_peak_bytes
        for sub in root.children:
            sub.parent = span
        span.children = list(root.children)
        self._stack[-1].children.append(span)
        return span

    def annotate(self, **attrs: Any) -> None:
        """Merge attributes into the root span.

        The serving layer stamps per-session facts (session id, bank
        depth, sessions served, replenish lag) into the exported trace
        document this way, so one trace file is self-describing.
        """
        self.root.attrs.update(attrs)

    # ------------------------------------------------------------------ #
    # channel hook
    # ------------------------------------------------------------------ #
    def record_io(self, direction: str, payload_bytes: int) -> None:
        """Attribute one message to the innermost open span.

        Called by channel endpoints after a successful send (``"send"``)
        or decode (``"recv"``).  A direction flip — including the very
        first message — opens a new round on the span it lands in.
        """
        span = self._stack[-1]
        if direction == _SEND:
            span.sent_bytes += payload_bytes
            span.sent_msgs += 1
        elif direction == _RECV:
            span.recv_bytes += payload_bytes
            span.recv_msgs += 1
        else:
            raise ConfigError(f"direction must be 'send' or 'recv', got {direction!r}")
        if direction != self._last_dir:
            span.rounds += 1
            self._last_dir = direction

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """The schema-versioned JSON document for this trace.

        In memory mode the export folds the outstanding allocation
        segment into every still-open span and stamps the process peak
        RSS (``VmHWM``) onto the root attributes, so the document is a
        complete memory record without requiring the caller to close
        the root explicitly.  Every export says which random-oracle
        path the process hashes through (``ro_kernel``: compiled kernel
        or, when ``False``, the ~20x slower numpy reference).
        """
        self._fold_alloc_peak()
        self.root.attrs["ro_kernel"] = kernel_active()
        if self.memory:
            self.root.attrs["peak_rss_bytes"] = peak_rss_bytes()
        return {
            "schema": TRACE_SCHEMA,
            "party": self.party,
            "root": self.root.to_dict(self._clock()),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def __repr__(self) -> str:
        return f"Tracer(party={self.party!r}, open={[s.name for s in self._stack]!r})"


def load_trace(path: str) -> dict[str, Any]:
    """Load and schema-check a trace document written by :meth:`Tracer.save`.

    A file that is not a readable trace raises one :class:`ConfigError`
    naming its path.
    """
    with load_errors(path, "trace", f"{TRACE_SCHEMA} trace"):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        schema = doc.get("schema")
        if schema != TRACE_SCHEMA:
            raise ConfigError(
                f"unsupported trace schema {schema!r} (this build reads {TRACE_SCHEMA!r})"
            )
        return doc


def channel_span(chan: Any, name: str, **attrs: Any):
    """Open ``name`` on ``chan``'s attached tracer, or do nothing.

    Sub-protocol layers (OT extension, garbled circuits, triplets) use
    this so they annotate traces when running under a traced channel and
    stay dependency-free otherwise.
    """
    tracer = getattr(chan, "tracer", None)
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)


def channel_resume(chan: Any, span: Span | None):
    """Re-open ``span``, which :func:`channel_span` opened on ``chan``
    earlier (see :meth:`Tracer.resume`), or do nothing when untraced."""
    tracer = getattr(chan, "tracer", None)
    if tracer is None or span is None:
        return nullcontext()
    return tracer.resume(span)


def annotate_span(chan: Any, **attrs: Any) -> None:
    """Merge ``attrs`` into the innermost open span of ``chan``'s tracer
    (no-op when untraced): a sub-protocol stamps facts it learns mid-way,
    such as how many neurons a revealed sign pattern made positive."""
    tracer = getattr(chan, "tracer", None)
    if tracer is not None:
        tracer.current.attrs.update(attrs)


def iter_spans(node: dict[str, Any], prefix: str = "") -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(path, span_dict)`` over an exported trace subtree.

    ``node`` is either the document (walks from its root, which is
    excluded from paths) or any span dict (its own name heads the path).
    """
    if "root" in node and "name" not in node:
        for child in node["root"]["children"]:
            yield from iter_spans(child, prefix)
        return
    path = f"{prefix}/{node['name']}" if prefix else node["name"]
    yield path, node
    for child in node.get("children", ()):
        yield from iter_spans(child, path)
