"""Tagged channel multiplexer: thread-safe sub-channels over one channel.

The execution engine (:mod:`repro.exec`) runs several independent
protocol sessions — one OT session per shard — concurrently between
the same two parties.  Opening one socket per shard would change the
deployment footprint (and the TCP handshake/session accounting), so
instead a :class:`ChannelMux` multiplexes *streams* over a single
underlying :class:`repro.net.channel.Channel` or
:class:`repro.net.tcp.TcpChannel`:

* every frame on the wire is the tuple ``(tag, stream_seq, payload)`` —
  the stream tag routes it, the per-stream sequence number pins in-order
  delivery *within* a stream no matter how frames from different streams
  interleave, and the underlying channel's own per-frame seq/CRC
  protection is untouched (a mux frame is just one ordinary message);
* each :class:`MuxChannel` quacks like a ``Channel`` (``send`` /
  ``recv`` / ``tracer`` / per-stream byte counters), so protocol layers
  (KK13/IKNP sessions, GC executions) run over a stream unchanged;
* receiving is cooperative: whichever stream's thread currently holds
  the receive lock pulls frames off the underlying channel and routes
  them — frames for *other* streams land in those streams' inboxes, so
  no dedicated demux thread is needed and a single-threaded caller
  degrades to plain sequential channel use;
* sends are serialized by a send lock; optionally (``async_depth > 0``)
  they are handed to a bounded writer thread, which is what lets a shard
  worker start hashing its next chunk while the previous chunk's blob is
  still going out — the chunk-level pipeline of the execution engine.

Determinism contract: the *per-stream* transcript (sequence of payloads
and the per-stream byte totals) depends only on what the shard protocol
sends, never on thread scheduling; only the interleaving of frames on
the underlying channel varies between runs.  ``tests/test_exec_parallel.py``
pins this with a seeded interleaving fuzz test.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any

from repro.errors import ChannelError
from repro.utils import serialization

#: Wire overhead of the mux framing per message: the ``tag`` and
#: ``stream_seq`` ints (8 payload bytes each) wrapped around the payload.
MUX_FRAME_OVERHEAD_BYTES = 16

_CLOSED = object()


class _StreamState:
    """Demux-side state of one stream: inbox plus both seq counters."""

    __slots__ = ("tag", "inbox", "send_seq", "recv_seq", "channel")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.inbox: queue.Queue = queue.Queue()
        self.send_seq = 0
        self.recv_seq = 0
        self.channel: "MuxChannel | None" = None


class MuxChannel:
    """One stream endpoint; duck-types the ``Channel`` protocol surface.

    ``tracer`` is per-stream: the execution engine attaches one tracer
    per shard worker here (the repo-wide tracer is single-threaded, so
    shards must not share the parent channel's tracer) and grafts the
    shard trees back into the parent trace after the join.
    """

    def __init__(self, mux: "ChannelMux", tag: int) -> None:
        self._mux = mux
        self.tag = tag
        self.tracer = None
        #: OT set-up; shard streams share the parent channel's
        #: (:func:`repro.exec.triplets.shard_stream`).
        self.ot_setup = None
        self._closed = False
        #: Per-stream payload-byte/message accounting (what the fuzz and
        #: determinism tests compare across worker counts).
        self.sent_bytes = 0
        self.recv_bytes = 0
        self.sent_msgs = 0
        self.recv_msgs = 0

    @property
    def party(self) -> int:
        return getattr(self._mux.chan, "party", -1)

    @property
    def stats(self):
        return getattr(self._mux.chan, "stats", None)

    @property
    def timeout_s(self) -> float:
        return self._mux.timeout_s

    def send(self, obj: Any) -> None:
        if self._closed:
            raise ChannelError("send on closed channel")
        self._mux._send(self.tag, obj)

    def recv(self) -> Any:
        if self._closed:
            raise ChannelError("recv on closed channel")
        return self._mux._recv(self.tag)

    def exchange(self, obj: Any) -> Any:
        self.send(obj)
        return self.recv()

    def close(self) -> None:
        """Close this stream locally (idempotent).

        Only this endpoint's view of the stream is closed — the mux and
        the underlying channel stay up for the other streams, and no
        close frame goes on the wire (stream lifecycle is a session-layer
        concern; e.g. the serving session's ``bye`` control message).
        Subsequent ``send``/``recv`` on this stream raise
        :class:`ChannelError` like a closed :class:`~repro.net.channel.Channel`.
        """
        self._closed = True

    def __repr__(self) -> str:
        return f"MuxChannel(tag={self.tag}, party={self.party})"


class ChannelMux:
    """Multiplexes tagged streams over one underlying channel.

    ``async_depth > 0`` starts a writer thread with a bounded queue:
    ``send`` enqueues and returns, overlapping the caller's compute with
    the wire.  Per-stream accounting and tracer attribution still happen
    at enqueue time in the *caller's* thread, so per-stream figures stay
    deterministic.  :meth:`flush` is the barrier; :meth:`close` flushes
    and joins the writer (it never closes the underlying channel, which
    the caller owns).
    """

    def __init__(self, chan: Any, async_depth: int = 0) -> None:
        self.chan = chan
        self.timeout_s = float(getattr(chan, "timeout_s", 120.0))
        self._streams: dict[int, _StreamState] = {}
        self._streams_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._error: BaseException | None = None
        self._closed = False
        self._writer: threading.Thread | None = None
        self._send_q: queue.Queue | None = None
        if async_depth > 0:
            self._send_q = queue.Queue(maxsize=async_depth)
            self._writer = threading.Thread(
                target=self._writer_loop, name="abnn2-mux-writer", daemon=True
            )
            self._writer.start()

    # ------------------------------------------------------------------ #
    def stream(self, tag: int) -> MuxChannel:
        """The sub-channel for ``tag`` (created on first use, idempotent)."""
        state = self._state(int(tag))
        if state.channel is None:
            state.channel = MuxChannel(self, int(tag))
        return state.channel

    def _state(self, tag: int) -> _StreamState:
        with self._streams_lock:
            state = self._streams.get(tag)
            if state is None:
                state = self._streams[tag] = _StreamState(tag)
            return state

    def _check_error(self) -> None:
        if self._error is not None:
            raise ChannelError(f"mux failed: {self._error}") from self._error
        if self._closed:
            raise ChannelError("mux is closed")

    # ------------------------------------------------------------------ #
    # send path
    # ------------------------------------------------------------------ #
    def _send(self, tag: int, obj: Any) -> None:
        self._check_error()
        state = self._state(tag)
        seq = state.send_seq
        state.send_seq += 1
        payload = serialization.payload_nbytes(obj)
        if self._send_q is not None:
            # Accounting first, in the calling (shard) thread: the tracer
            # is per-stream and the enqueue order *is* the stream order.
            self._record(state, "send", payload)
            self._send_q.put((tag, seq, obj))
            self._check_error()
        else:
            with self._send_lock:
                self.chan.send((tag, seq, obj))
            self._record(state, "send", payload)

    def _writer_loop(self) -> None:
        while True:
            item = self._send_q.get()
            if item is _CLOSED:
                self._send_q.task_done()
                return
            tag, seq, obj = item
            try:
                with self._send_lock:
                    self.chan.send((tag, seq, obj))
            except BaseException as exc:  # noqa: BLE001 - surfaced to callers
                if self._error is None:
                    self._error = exc
            finally:
                self._send_q.task_done()

    def flush(self) -> None:
        """Block until every enqueued async send is on the wire."""
        if self._send_q is not None:
            self._send_q.join()
        self._check_error()

    # ------------------------------------------------------------------ #
    # recv path: cooperative stealing
    # ------------------------------------------------------------------ #
    def _recv(self, tag: int) -> Any:
        state = self._state(tag)
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                return self._pop(state)
            except queue.Empty:
                pass
            if self._error is not None:
                self._check_error()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChannelError(
                    f"stream {tag} timed out after {self.timeout_s}s waiting for peer"
                )
            # Whoever gets the lock pumps the underlying channel; everyone
            # else polls its inbox, into which the pumper routes frames.
            if not self._recv_lock.acquire(timeout=min(remaining, 0.05)):
                continue
            try:
                try:
                    return self._pop(state)
                except queue.Empty:
                    pass
                self._pump_one()
            except BaseException as exc:
                if self._error is None and not isinstance(exc, queue.Empty):
                    self._error = exc
                raise
            finally:
                self._recv_lock.release()

    def _pop(self, state: _StreamState) -> Any:
        obj = state.inbox.get_nowait()
        self._record(state, "recv", serialization.payload_nbytes(obj))
        return obj

    def _pump_one(self) -> None:
        """Pull one frame off the underlying channel and route it."""
        frame = self.chan.recv()
        if (
            not isinstance(frame, tuple)
            or len(frame) != 3
            or not isinstance(frame[0], int)
            or not isinstance(frame[1], int)
        ):
            raise ChannelError(
                f"expected a (tag, seq, payload) mux frame, got {type(frame).__name__}"
            )
        tag, seq, obj = frame
        state = self._state(tag)
        if seq != state.recv_seq:
            raise ChannelError(
                f"stream {tag} sequence gap: expected frame #{state.recv_seq}, got #{seq}"
            )
        state.recv_seq += 1
        state.inbox.put(obj)

    # ------------------------------------------------------------------ #
    def _record(self, state: _StreamState, direction: str, payload: int) -> None:
        chan = state.channel
        if chan is None:
            chan = self.stream(state.tag)
        if direction == "send":
            chan.sent_bytes += payload
            chan.sent_msgs += 1
        else:
            chan.recv_bytes += payload
            chan.recv_msgs += 1
        if chan.tracer is not None:
            chan.tracer.record_io(direction, payload)

    def stream_totals(self) -> dict[int, dict[str, int]]:
        """Per-stream accounting snapshot, keyed by tag (sorted)."""
        with self._streams_lock:
            states = sorted(self._streams.items())
        out = {}
        for tag, state in states:
            chan = state.channel
            if chan is None:
                continue
            out[tag] = {
                "sent_bytes": chan.sent_bytes,
                "recv_bytes": chan.recv_bytes,
                "sent_msgs": chan.sent_msgs,
                "recv_msgs": chan.recv_msgs,
            }
        return out

    def abort(self, exc: BaseException) -> None:
        """Poison the mux: every pending/future send or recv raises.

        Used by the shard engine's fail-fast path — when one shard fails,
        the surviving shards' recv loops are parked waiting for frames
        that will never arrive, and this is what wakes them: every
        reader *waiting on the recv lock* re-checks ``_error`` each
        50 ms poll tick.  The one thread currently holding the lock is
        blocked inside the underlying ``chan.recv`` and surfaces the
        poison at its next frame or the channel timeout, whichever
        comes first.  Idempotent; the first exception wins.
        """
        if self._error is None:
            self._error = exc

    def close(self) -> None:
        """Flush and stop the writer thread (underlying channel survives)."""
        if self._closed:
            return
        self._closed = True
        if self._send_q is not None:
            self._send_q.put(_CLOSED)
            self._writer.join(timeout=self.timeout_s)

    def __enter__(self) -> "ChannelMux":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
