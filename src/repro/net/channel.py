"""In-memory duplex channels with communication accounting.

A protocol party holds one :class:`Channel` endpoint and calls
:meth:`Channel.send` / :meth:`Channel.recv` with the payload types that
:mod:`repro.utils.serialization` supports.  Both endpoints of a pair share
one :class:`ChannelStats`, which records, per direction:

* payload bytes (what the paper's communication columns count),
* framed bytes (payload + encoding overhead),
* message count,

plus the number of **communication rounds**: a round begins whenever the
sending party flips, so `k` back-to-back messages from one side cost one
round.  Round counts drive the latency term of the WAN time model.

Each queued frame carries a per-direction sequence number and a CRC32 of
its encoded bytes, mirroring the TCP transport's framing, so a lost
frame surfaces as a sequence gap and injected wire corruption (see
:mod:`repro.net.faults`) is detected identically on both transports.
Traffic is recorded only *after* a frame is actually handed to the peer,
so a failed or injected-away send never inflates the accounting.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ChannelError
from repro.utils import serialization

DEFAULT_TIMEOUT_S = 120.0


@dataclass
class ChannelStats:
    """Traffic counters shared by both endpoints of a channel pair."""

    bytes_sent: dict = field(default_factory=lambda: {0: 0, 1: 0})
    framed_bytes_sent: dict = field(default_factory=lambda: {0: 0, 1: 0})
    messages_sent: dict = field(default_factory=lambda: {0: 0, 1: 0})
    rounds: int = 0
    _last_sender: int | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_send(self, party: int, payload_bytes: int, framed_bytes: int) -> None:
        with self._lock:
            self.bytes_sent[party] += payload_bytes
            self.framed_bytes_sent[party] += framed_bytes
            self.messages_sent[party] += 1
            if self._last_sender != party:
                self.rounds += 1
                self._last_sender = party

    @property
    def total_bytes(self) -> int:
        """Total payload bytes over the wire in both directions."""
        return self.bytes_sent[0] + self.bytes_sent[1]

    @property
    def total_messages(self) -> int:
        return self.messages_sent[0] + self.messages_sent[1]

    def snapshot(self) -> "ChannelStats":
        """A detached copy safe to keep after the protocol finishes."""
        with self._lock:
            copy = ChannelStats(
                bytes_sent=dict(self.bytes_sent),
                framed_bytes_sent=dict(self.framed_bytes_sent),
                messages_sent=dict(self.messages_sent),
                rounds=self.rounds,
            )
        return copy

    def reset(self) -> None:
        with self._lock:
            self.bytes_sent = {0: 0, 1: 0}
            self.framed_bytes_sent = {0: 0, 1: 0}
            self.messages_sent = {0: 0, 1: 0}
            self.rounds = 0
            self._last_sender = None


class Channel:
    """One endpoint of a bidirectional in-memory channel.

    ``party`` is 0 for the server and 1 for the client by convention; it
    only matters for attribution in :class:`ChannelStats`.
    """

    def __init__(
        self,
        party: int,
        outbox: queue.Queue,
        inbox: queue.Queue,
        stats: ChannelStats,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.party = party
        self._outbox = outbox
        self._inbox = inbox
        self.stats = stats
        #: optional per-party :class:`repro.perf.trace.Tracer`; when set,
        #: every successful send/recv is attributed to its innermost span.
        self.tracer = None
        #: this endpoint's :class:`repro.crypto.otsetup.OtSetup`, created by
        #: the first OT-extension session; later sessions derive from it.
        self.ot_setup = None
        self.timeout_s = timeout_s
        self._closed = False
        self._send_seq = 0
        self._recv_seq = 0

    # ------------------------------------------------------------------ #
    def send(self, obj: Any) -> None:
        """Serialize and enqueue a message for the peer."""
        if self._closed:
            raise ChannelError("send on closed channel")
        data = serialization.encode(obj)
        payload = serialization.payload_nbytes(obj)
        self._outbox.put((self._send_seq, data, zlib.crc32(data)))
        self._send_seq += 1
        # Only after the frame is actually with the peer does it count.
        self.stats.record_send(self.party, payload, len(data))
        if self.tracer is not None:
            self.tracer.record_io("send", payload)

    def recv(self) -> Any:
        """Block until the peer's next message arrives and decode it."""
        if self._closed:
            raise ChannelError("recv on closed channel")
        try:
            item = self._inbox.get(timeout=self.timeout_s)
        except queue.Empty as exc:
            raise ChannelError(
                f"party {self.party} timed out after {self.timeout_s}s waiting for peer"
            ) from exc
        if item is _CLOSE_SENTINEL:
            raise ChannelError("peer closed the channel")
        if item is _ABORT_SENTINEL:
            raise ChannelError("peer connection lost (abrupt disconnect)")
        seq, data, crc = item
        if seq != self._recv_seq:
            # A lost frame must not let a later message masquerade as the
            # missing one — that desynchronizes the whole protocol.
            raise ChannelError(
                f"message sequence gap: expected frame #{self._recv_seq}, "
                f"got #{seq} (a frame was lost)"
            )
        self._recv_seq += 1
        if zlib.crc32(data) != crc:
            raise ChannelError(
                f"frame CRC mismatch on a {len(data)}-byte message (corrupted in transit)"
            )
        obj = serialization.decode(data)
        if self.tracer is not None:
            self.tracer.record_io("recv", serialization.payload_nbytes(obj))
        return obj

    def exchange(self, obj: Any) -> Any:
        """Send then receive — the common symmetric protocol step."""
        self.send(obj)
        return self.recv()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(_CLOSE_SENTINEL)

    def drain(self, deadline_s: float = 1.0) -> None:
        """Consume inbound frames until the peer hangs up (bounded).

        Used after a control-plane deny: the denying side reads the
        peer's trailing traffic (its best-effort ``done``/close) before
        closing, so the teardown is graceful on both transports — under
        TCP, closing a socket with unread inbound data resets the
        connection, which can destroy the deny the peer was about to
        read (see :meth:`repro.net.tcp.TcpChannel.drain`).
        """
        deadline = time.monotonic() + deadline_s
        while not self._closed:
            try:
                item = self._inbox.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                return
            if item is _CLOSE_SENTINEL or item is _ABORT_SENTINEL:
                return
            self._recv_seq += 1

    def abort(self) -> None:
        """Drop the connection without the graceful-close signal.

        Models a crashed process or cut cable: the peer's next ``recv``
        raises a :class:`ChannelError` naming an abrupt disconnect.
        """
        if not self._closed:
            self._closed = True
            self._outbox.put(_ABORT_SENTINEL)

    def _inject_frame(self, data: bytes, valid_crc: bool) -> None:
        """Fault-injection hook: enqueue raw encoded bytes as one frame.

        Used by :class:`repro.net.faults.FaultyChannel`: ``valid_crc``
        False models wire corruption (the receiver's CRC check fires);
        True delivers the bytes intact, e.g. a truncated encoding the
        receiver's decoder must reject.  Deliberately bypasses stats:
        the accounting tracks intended protocol traffic, not noise.
        """
        if self._closed:
            raise ChannelError("send on closed channel")
        crc = zlib.crc32(data)
        if not valid_crc:
            crc ^= 0x5A5A5A5A
        self._outbox.put((self._send_seq, data, crc))
        self._send_seq += 1

    def _skip_frame(self) -> None:
        """Fault-injection hook: consume a sequence number without sending.

        Models a frame lost in transit — the receiver detects the gap at
        its next ``recv`` instead of silently shifting the stream.
        """
        self._send_seq += 1

    def __repr__(self) -> str:
        return f"Channel(party={self.party})"


class _CloseSentinel:
    pass


_CLOSE_SENTINEL = _CloseSentinel()
_ABORT_SENTINEL = _CloseSentinel()


def make_channel_pair(timeout_s: float = DEFAULT_TIMEOUT_S) -> tuple[Channel, Channel]:
    """Create connected (server, client) channel endpoints sharing stats."""
    q01: queue.Queue = queue.Queue()
    q10: queue.Queue = queue.Queue()
    stats = ChannelStats()
    server = Channel(0, outbox=q01, inbox=q10, stats=stats, timeout_s=timeout_s)
    client = Channel(1, outbox=q10, inbox=q01, stats=stats, timeout_s=timeout_s)
    return server, client
