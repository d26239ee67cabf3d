"""TCP transport: run the two parties as separate processes/machines.

The in-memory channels of :mod:`repro.net.channel` are ideal for tests
and benchmarks; a deployment wants real sockets.  :class:`TcpChannel`
speaks a CRC-protected framed protocol and exposes the same
``send``/``recv``/``stats`` surface, so every protocol in this library
runs over it unchanged:

    # server process                      # client process
    chan = listen(port=9001)              chan = connect("host", 9001)
    server = Abnn2Server(chan, model, b)  client = Abnn2Client(chan, meta, b)
    server.offline(); server.online()     client.offline(); client.online(x)

Wire format (all little-endian):

* **Handshake** — on connect each side sends 15 bytes,
  ``magic(4) | version(u16) | party(u8) | session_id(u64)``, then
  validates the peer's: magic and version must match, parties must be
  complementary, session ids equal.  A side that sends the wildcard id
  :data:`SESSION_ANY` instead *adopts* the peer's id — this is how a
  prediction client lets the serving accept-loop assign it a fresh
  per-connection session id.  Any other mismatch raises
  :class:`HandshakeError` before protocol traffic flows.
* **Frame** — ``type(u8) | seq(u64) | length(u64) | payload | crc32(u32)``
  with the CRC computed over the header+payload, so a bit flipped
  anywhere in a frame is detected.  ``seq`` counts data frames per
  direction; a gap means a frame was lost and raises instead of letting
  a later message masquerade as the missing one.  ``type`` 0 is data
  (payload is a :mod:`repro.utils.serialization` encoding); ``type`` 1
  is graceful close (empty payload), letting the peer distinguish an
  orderly shutdown from a crashed process.

Traffic accounting mirrors the in-memory channel (payload bytes, framed
bytes, direction-flip rounds) and counts data frames only — handshake
and close frames are control traffic.  Stats are recorded only after
``sendall`` succeeds, so a failed send never inflates the totals.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib

from repro.errors import ChannelError, HandshakeError
from repro.net.channel import ChannelStats
from repro.utils import serialization

#: Bumped whenever the frame or handshake layout/semantics change.
#: v3 added wildcard session-id adoption (:data:`SESSION_ANY`).
WIRE_VERSION = 3

#: Wildcard session id: "assign me one" — the peer's id is adopted.
SESSION_ANY = (1 << 64) - 1

_MAGIC = b"AB2\x00"
_HANDSHAKE_FMT = "<4sHBQ"
_HANDSHAKE_SIZE = struct.calcsize(_HANDSHAKE_FMT)  # 15

_HEAD_FMT = "<BQQ"
_HEAD_SIZE = struct.calcsize(_HEAD_FMT)  # 17
_CRC_FMT = "<I"
_CRC_SIZE = 4

_FRAME_DATA = 0
_FRAME_CLOSE = 1

#: Frames above this are refused (2 GiB) — catches desynchronized peers.
MAX_FRAME_BYTES = 2 << 30


class TcpChannel:
    """A connected duplex channel over one TCP socket."""

    def __init__(
        self,
        sock: socket.socket,
        party: int,
        timeout_s: float = 600.0,
        session_id: int = 0,
        handshake: bool = True,
    ) -> None:
        self._sock = sock
        self.party = party
        self.session_id = session_id
        self.stats = ChannelStats()
        #: optional per-party :class:`repro.perf.trace.Tracer`; when set,
        #: every successful send/recv is attributed to its innermost span.
        self.tracer = None
        #: this endpoint's :class:`repro.crypto.otsetup.OtSetup` (see Channel).
        self.ot_setup = None
        self._closed = False
        self._peer_closed = False
        self._send_seq = 0
        self._recv_seq = 0
        self._timeout_s = timeout_s
        sock.settimeout(timeout_s)
        try:
            # Protocol messages are latency-sensitive and already batched.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # non-TCP sockets (e.g. a test socketpair) have no Nagle
        if handshake:
            self._handshake()

    # ------------------------------------------------------------------ #
    def _handshake(self) -> None:
        """Exchange and validate version/party/session before any traffic."""
        mine = struct.pack(_HANDSHAKE_FMT, _MAGIC, WIRE_VERSION, self.party, self.session_id)
        try:
            self._sock.sendall(mine)
            theirs = self._recv_exact(_HANDSHAKE_SIZE)
        except ChannelError as exc:
            raise HandshakeError(f"handshake exchange failed: {exc}") from exc
        except OSError as exc:
            raise HandshakeError(f"handshake exchange failed: {exc}") from exc
        magic, version, peer_party, peer_session = struct.unpack(_HANDSHAKE_FMT, theirs)
        if magic != _MAGIC:
            raise HandshakeError(f"peer is not an ABNN2 endpoint (magic {magic!r})")
        if version != WIRE_VERSION:
            raise HandshakeError(
                f"wire version mismatch: peer speaks v{version}, we speak v{WIRE_VERSION}"
            )
        if peer_party != 1 - self.party:
            raise HandshakeError(
                f"party collision: both endpoints claim party {self.party}"
            )
        if peer_session != self.session_id:
            if self.session_id == SESSION_ANY:
                # We asked to be assigned one: adopt the peer's id.
                self.session_id = peer_session
            elif peer_session != SESSION_ANY:
                raise HandshakeError(
                    f"session id mismatch: peer {peer_session} != ours {self.session_id}"
                )

    # ------------------------------------------------------------------ #
    def send(self, obj) -> None:
        if self._closed:
            raise ChannelError("send on closed channel")
        data = serialization.encode(obj)
        payload = serialization.payload_nbytes(obj)
        frame = self._frame(_FRAME_DATA, self._send_seq, data)
        try:
            self._sock.sendall(frame)
        except socket.timeout as exc:
            raise ChannelError("socket send timed out") from exc
        except OSError as exc:
            raise ChannelError(f"socket send failed: {exc}") from exc
        self._send_seq += 1
        # Only a completed write counts as traffic.
        self.stats.record_send(self.party, payload, len(frame))
        if self.tracer is not None:
            self.tracer.record_io("send", payload)

    def recv(self):
        if self._closed:
            raise ChannelError("recv on closed channel")
        if self._peer_closed:
            raise ChannelError("peer closed the channel")
        head = self._recv_exact(_HEAD_SIZE)
        frame_type, seq, length = struct.unpack(_HEAD_FMT, head)
        if length > MAX_FRAME_BYTES:
            raise ChannelError(f"peer announced an absurd {length}-byte frame")
        body = self._recv_exact(length + _CRC_SIZE)
        data, crc_bytes = body[:length], body[length:]
        (crc,) = struct.unpack(_CRC_FMT, crc_bytes)
        if zlib.crc32(head + data) != crc:
            raise ChannelError(
                f"frame CRC mismatch on a {length}-byte frame (corrupted wire data)"
            )
        if frame_type == _FRAME_CLOSE:
            self._peer_closed = True
            raise ChannelError("peer closed the channel")
        if frame_type != _FRAME_DATA:
            raise ChannelError(f"unknown frame type {frame_type}")
        if seq != self._recv_seq:
            raise ChannelError(
                f"message sequence gap: expected frame #{self._recv_seq}, "
                f"got #{seq} (a frame was lost)"
            )
        self._recv_seq += 1
        obj = serialization.decode(data)
        payload = serialization.payload_nbytes(obj)
        # Attribute the peer's traffic so both sides report totals.
        self.stats.record_send(1 - self.party, payload, _HEAD_SIZE + length + _CRC_SIZE)
        if self.tracer is not None:
            self.tracer.record_io("recv", payload)
        return obj

    def exchange(self, obj):
        self.send(obj)
        return self.recv()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _frame(frame_type: int, seq: int, data: bytes, crc: int | None = None) -> bytes:
        head = struct.pack(_HEAD_FMT, frame_type, seq, len(data))
        if crc is None:
            crc = zlib.crc32(head + data)
        return head + data + struct.pack(_CRC_FMT, crc)

    def _inject_frame(self, data: bytes, valid_crc: bool) -> None:
        """Fault-injection hook: write raw encoded bytes as one data frame.

        ``valid_crc`` False models wire corruption (the peer's CRC check
        fires); True delivers the bytes intact, e.g. a truncated encoding
        the peer's decoder must reject.  Bypasses stats, like its
        in-memory counterpart.
        """
        if self._closed:
            raise ChannelError("send on closed channel")
        head = struct.pack(_HEAD_FMT, _FRAME_DATA, self._send_seq, len(data))
        crc = zlib.crc32(head + data)
        if not valid_crc:
            crc ^= 0x5A5A5A5A
        frame = head + data + struct.pack(_CRC_FMT, crc)
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise ChannelError(f"socket send failed: {exc}") from exc
        self._send_seq += 1

    def _skip_frame(self) -> None:
        """Fault-injection hook: consume a sequence number without sending.

        Models a frame lost in transit — the receiver detects the gap at
        its next ``recv`` instead of silently shifting the stream.
        """
        self._send_seq += 1

    def _inject_partial_frame(self, data: bytes, keep_fraction: float) -> None:
        """Fault-injection hook: send only a prefix of one framed message.

        Models a peer (or network) that stalls mid-frame: the receiver
        must hit its recv deadline with a typed mid-frame timeout, never
        hand a short buffer to the CRC check.  At least one byte is sent
        and at least one withheld; the sequence number is consumed.
        """
        head = struct.pack(_HEAD_FMT, _FRAME_DATA, self._send_seq, len(data))
        frame = head + data + struct.pack(_CRC_FMT, zlib.crc32(head + data))
        cut = max(1, min(len(frame) - 1, int(len(frame) * keep_fraction)))
        try:
            self._sock.sendall(frame[:cut])
        except OSError as exc:
            raise ChannelError(f"socket send failed: {exc}") from exc
        self._send_seq += 1

    def _recv_exact(self, count: int) -> bytes:
        """Read exactly ``count`` bytes under one overall deadline.

        The deadline covers the whole read, not each chunk: a peer that
        trickles a frame cannot extend the wait indefinitely, and a frame
        split across the deadline boundary raises a timeout
        :class:`ChannelError` naming the partial progress — it is never
        delivered short to the CRC/decode stage.
        """
        chunks = []
        remaining = count
        deadline = time.monotonic() + self._timeout_s
        while remaining:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise ChannelError(
                    f"socket recv timed out mid-frame after {self._timeout_s}s "
                    f"({count - remaining} of {count} bytes arrived)"
                )
            try:
                self._sock.settimeout(budget)
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout as exc:
                raise ChannelError(
                    f"socket recv timed out after {self._timeout_s}s "
                    f"({count - remaining} of {count} bytes arrived)"
                ) from exc
            except OSError as exc:
                raise ChannelError(f"socket recv failed: {exc}") from exc
            finally:
                # send() and the next read must see the full deadline again.
                try:
                    self._sock.settimeout(self._timeout_s)
                except OSError:
                    pass
            if not chunk:
                if remaining < count:
                    raise ChannelError(
                        f"peer closed mid-frame ({count - remaining} of {count} bytes arrived)"
                    )
                raise ChannelError("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def drain(self, deadline_s: float = 1.0) -> None:
        """Consume inbound frames until the peer hangs up (bounded).

        The deny path of the serving layer calls this between sending a
        structured deny and closing the socket.  Without it, closing
        with unread inbound bytes (the client's best-effort ``done`` or
        close frame racing in) makes the kernel send RST, and the peer
        can see ``ConnectionResetError`` *instead of* the deny reason it
        was owed.  Any :class:`ChannelError` — peer close frame, EOF,
        the ``deadline_s`` timeout — ends the drain quietly.
        """
        if self._closed or self._peer_closed:
            return
        old_timeout = self._timeout_s
        self._timeout_s = deadline_s
        try:
            while True:
                self.recv()
        except ChannelError:
            pass
        finally:
            self._timeout_s = old_timeout

    def close(self) -> None:
        """Gracefully close: tell the peer, then tear the socket down."""
        if self._closed:
            return
        self._closed = True
        try:
            # Best-effort courtesy frame; a dead peer must not block close.
            self._sock.settimeout(1.0)
            self._sock.sendall(self._frame(_FRAME_CLOSE, self._send_seq, b""))
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def abort(self) -> None:
        """Drop the socket without the close frame (models a crash)."""
        if self._closed:
            return
        self._closed = True
        try:
            # RST on close so the peer sees a hard failure, not clean EOF.
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "TcpChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Listener:
    """A bound listening socket that accepts any number of peers.

    The one-shot :func:`listen` helper tears the listening socket down
    after the first client; a serving process instead keeps one
    :class:`Listener` open for its whole lifetime and accepts a fresh
    channel per session (see :class:`repro.serve.server.PredictionServer`).
    Pass ``port=0`` to bind an ephemeral port; the chosen one is exposed
    as :attr:`port`.
    """

    def __init__(self, port: int, host: str = "127.0.0.1", backlog: int = 16) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen(backlog)
        except OSError as exc:
            self._sock.close()
            raise ChannelError(f"cannot listen on {host}:{port}: {exc}") from exc
        self.host = host
        self.port = self._sock.getsockname()[1]
        self._closed = False

    def accept_socket(self, timeout_s: float | None = None) -> tuple[socket.socket, tuple]:
        """Accept one raw connection; no handshake runs yet.

        The accept loop of a multi-session server uses this so a slow or
        hostile client's handshake cannot block further accepts — the
        handshake happens on the session thread when it builds the
        :class:`TcpChannel`.
        """
        if self._closed:
            raise ChannelError("accept on closed listener")
        try:
            # settimeout sits inside the try: a concurrent close() (the
            # server's stop path closes the listener first, on purpose)
            # turns the descriptor invalid between the flag check above
            # and here, and must surface typed like any other accept
            # failure, not as a raw OSError.
            self._sock.settimeout(timeout_s)
            return self._sock.accept()
        except socket.timeout as exc:
            raise ChannelError(f"no client connected within {timeout_s}s") from exc
        except OSError as exc:
            raise ChannelError(f"accept failed: {exc}") from exc

    def accept(
        self,
        timeout_s: float = 600.0,
        session_id: int = 0,
    ) -> TcpChannel:
        """Accept one peer and complete the handshake (party 0 side)."""
        conn, _addr = self.accept_socket(timeout_s)
        return TcpChannel(conn, party=0, timeout_s=timeout_s, session_id=session_id)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def listen(
    port: int,
    host: str = "127.0.0.1",
    timeout_s: float = 600.0,
    session_id: int = 0,
) -> TcpChannel:
    """Bind, accept one peer, and return the server-side channel (party 0)."""
    with Listener(port, host=host, backlog=1) as listener:
        return listener.accept(timeout_s=timeout_s, session_id=session_id)


def connect(
    host: str,
    port: int,
    timeout_s: float = 600.0,
    retries: int = 20,
    retry_delay_s: float = 0.25,
    connect_timeout_s: float = 2.0,
    deadline_s: float | None = None,
    session_id: int = 0,
) -> TcpChannel:
    """Connect to a listening server; returns the client channel (party 1).

    Retries with exponential backoff so "start both processes at once"
    works without orchestrating startup order.  Each attempt gets the
    short ``connect_timeout_s`` (an unroutable host must not eat the
    whole protocol timeout per attempt); one overall ``deadline_s``
    bounds the loop (default ``min(timeout_s, 30)``).  The established
    socket is restored to the full ``timeout_s``.
    """
    if deadline_s is None:
        deadline_s = min(timeout_s, 30.0)
    deadline = time.monotonic() + deadline_s
    last_error: Exception | None = None
    delay = retry_delay_s
    for attempt in range(max(1, retries)):
        remaining = deadline - time.monotonic()
        if attempt > 0 and remaining <= 0:
            break
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(max(0.05, min(connect_timeout_s, remaining)))
            sock.connect((host, port))
            return TcpChannel(sock, party=1, timeout_s=timeout_s, session_id=session_id)
        except HandshakeError:
            sock.close()
            raise  # a live but incompatible peer: retrying cannot help
        except OSError as exc:
            last_error = exc
            sock.close()
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2, 2.0)
    raise ChannelError(
        f"could not connect to {host}:{port} within {deadline_s:.1f}s: {last_error}"
    )
