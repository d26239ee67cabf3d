"""Multi-session prediction server: accept loop over a triplet bank.

One :class:`PredictionServer` owns one :class:`~repro.net.tcp.Listener`,
one :class:`~repro.serve.bank.TripletBank`, and a thread-per-session
accept loop.  The loop stays minimal by design — it only accepts raw
sockets and hands them to session threads, so a slow or hostile client's
handshake can never block further accepts.  Concurrency is bounded by a
``max_sessions`` semaphore; sockets accepted beyond the bound wait for a
slot before their handshake runs.

A session failing — bad handshake, client crash mid-protocol, malformed
control message — is *recorded* (and its partial trace still exported),
never fatal: the listener keeps accepting.  Each session gets a fresh
session id, a fresh tracer whose exported root is annotated with the
session id and a bank-metrics snapshot (depth, sessions served,
replenish lag), and a deterministically derived seed when the server is
seeded.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field

from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import ChannelError, ConfigError, HandshakeError, ReproError
from repro.net.tcp import Listener, TcpChannel
from repro.nn.quantize import QuantizedModel
from repro.perf.trace import Tracer
from repro.serve.bank import TripletBank
from repro.serve.session import ServerSession

#: Session ids are assigned from this counter; 0 is reserved for the
#: legacy point-to-point :func:`repro.net.tcp.listen` path.
_FIRST_SESSION_ID = 1

#: Stride separating per-session seed derivations from the bank's
#: per-generation stride (7919) so the two streams never collide.
_SESSION_SEED_STRIDE = 104729


@dataclass
class SessionRecord:
    """Bookkeeping for one accepted connection, success or failure."""

    session_id: int
    addr: tuple = ()
    predictions: int = 0
    mode: str = ""
    error: str | None = None
    duration_s: float = 0.0
    trace_path: str | None = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)


class PredictionServer:
    """Serve many sequential and concurrent prediction sessions.

    Lifecycle::

        bank = TripletBank(model, batch, seed=7)
        bank.fill(rounds)                       # or bank.load(path)
        with PredictionServer(model, bank, port=0) as srv:
            srv.serve_forever(max_total_sessions=3)   # or srv.start()
        # srv.records holds one SessionRecord per accepted connection

    :meth:`start` runs the accept loop on a background thread (the shape
    the tests drive); :meth:`serve_forever` runs it on the caller's
    thread, optionally stopping after a fixed number of accepted
    sessions (the CLI's ``--exit-after``).
    """

    def __init__(
        self,
        model: QuantizedModel,
        bank: TripletBank,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        max_sessions: int = 4,
        keep_alive: bool = True,
        relu_variant: str = "oblivious",
        session_timeout_s: float = 600.0,
        exhaustion_wait_s: float = 0.0,
        allow_interactive: bool = True,
        trace_dir: str | None = None,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
        channel_wrap=None,
        backlog: int = 16,
    ) -> None:
        if max_sessions < 1:
            raise ConfigError("max_sessions must be positive")
        self.model = model
        self.bank = bank
        self.max_sessions = max_sessions
        self.keep_alive = keep_alive
        self.relu_variant = relu_variant
        self.session_timeout_s = session_timeout_s
        self.exhaustion_wait_s = exhaustion_wait_s
        self.allow_interactive = allow_interactive
        self.trace_dir = trace_dir
        self.group = group
        self.ro = ro
        self.seed = seed
        #: optional callable wrapping each accepted session's channel
        #: (e.g. a :class:`repro.net.netsim.ShapedChannel` for shaped-link
        #: benchmarking, or a fault injector).
        self.channel_wrap = channel_wrap

        self.listener = Listener(port, host=host, backlog=backlog)
        self.host = self.listener.host
        self.port = self.listener.port

        self.records: list[SessionRecord] = []
        self._records_lock = threading.Lock()
        self._session_ids = itertools.count(_FIRST_SESSION_ID)
        self._slots = threading.BoundedSemaphore(max_sessions)
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        # Guards _session_threads *and* the spawn-vs-stop decision: a
        # session thread is only ever started while holding this lock and
        # _stop is unset, so stop()'s join snapshot (taken under the same
        # lock, after _stop is set) can never miss a thread.
        self._threads_lock = threading.Lock()
        self._session_threads: list[threading.Thread] = []
        self._sessions_served = 0
        self._sessions_failed = 0

    # ------------------------------------------------------------------ #
    # accept loop
    # ------------------------------------------------------------------ #
    def start(self) -> "PredictionServer":
        """Run the accept loop on a background thread; returns self."""
        if self._accept_thread is not None:
            raise ConfigError("server already started")
        self.bank.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(None,), name="abnn2-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self, max_total_sessions: int | None = None) -> None:
        """Run the accept loop on this thread.

        ``max_total_sessions`` bounds how many connections are accepted
        before the loop drains and returns — the CLI's ``--exit-after``
        and the only way a foreground server terminates besides
        :meth:`stop` from another thread (or Ctrl-C).
        """
        self.bank.start()
        self._accept_loop(max_total_sessions)
        self._join_sessions(timeout_s=self.session_timeout_s)

    def _accept_loop(self, max_total_sessions: int | None) -> None:
        accepted = 0
        while not self._stop.is_set():
            if max_total_sessions is not None and accepted >= max_total_sessions:
                break
            try:
                # Short poll so stop() is honored promptly; no client
                # connecting within a poll is not an error.
                sock, addr = self.listener.accept_socket(timeout_s=0.25)
            except ChannelError:
                if self._stop.is_set():
                    break
                continue
            accepted += 1
            self._slots.acquire()  # bound concurrent sessions (backpressure)
            session_id = next(self._session_ids)
            record = SessionRecord(session_id, addr=addr)
            with self._threads_lock:
                # Checked under the lock stop() snapshots with: either
                # this thread lands in the list before the snapshot, or
                # the stop flag is already visible here and no thread is
                # spawned — a client accepted concurrently with stop()
                # can never leave an unjoined session thread behind.
                if self._stop.is_set():
                    self._slots.release()
                    sock.close()
                    break
                with self._records_lock:
                    self.records.append(record)
                thread = threading.Thread(
                    target=self._run_session, args=(sock, record),
                    name=f"abnn2-session-{session_id}", daemon=True,
                )
                # Every listed thread was started under this lock, so one
                # that is not alive has finished: forget it here, or a
                # long-running server keeps one Thread per session ever
                # served and stop() walks them all.
                self._session_threads = [
                    t for t in self._session_threads if t.is_alive()
                ]
                self._session_threads.append(thread)
                thread.start()

    # ------------------------------------------------------------------ #
    # one session
    # ------------------------------------------------------------------ #
    def _session_seed(self, session_id: int) -> int | None:
        if self.seed is None:
            return None
        return self.seed + _SESSION_SEED_STRIDE * session_id

    def _run_session(self, sock, record: SessionRecord) -> None:
        t0 = time.monotonic()
        tracer = Tracer(party="server")
        chan = None
        try:
            # The handshake runs here, on the session thread — a client
            # that stalls or speaks the wrong version costs one slot, not
            # the accept loop.
            chan = TcpChannel(
                sock, party=0, timeout_s=self.session_timeout_s,
                session_id=record.session_id,
            )
            if self.channel_wrap is not None:
                chan = self.channel_wrap(chan)
            chan.tracer = tracer
            session = ServerSession(
                chan, self.model, self.bank,
                session_id=record.session_id,
                relu_variant=self.relu_variant,
                keep_alive=self.keep_alive,
                exhaustion_wait_s=self.exhaustion_wait_s,
                allow_interactive=self.allow_interactive,
                group=self.group, ro=self.ro,
                seed=self._session_seed(record.session_id),
                tracer=tracer,
            )
            result = session.run()
            record.predictions = result.predictions
            record.mode = result.mode
            record.error = result.error
        except HandshakeError as exc:
            # A failed handshake is the *client's* problem: log it on the
            # record and keep serving everyone else.
            record.error = f"handshake failed: {exc}"
        except (ReproError, OSError) as exc:
            # Client crashed mid-protocol, channel fault, malformed
            # traffic — the session dies, the server does not.
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            record.duration_s = time.monotonic() - t0
            with self._records_lock:
                if record.error is None:
                    self._sessions_served += 1
                else:
                    self._sessions_failed += 1
                served = self._sessions_served
            bank_metrics = self.bank.metrics()
            tracer.annotate(
                session_id=record.session_id,
                predictions=record.predictions,
                sessions_served=served,
                bank_depth=bank_metrics["depth"],
                bank_rounds_served=bank_metrics["rounds_served"],
                bank_replenish_lag_s=bank_metrics["replenish_lag_s"],
                error=record.error or "",
            )
            if self.trace_dir is not None:
                path = os.path.join(
                    self.trace_dir, f"session-{record.session_id}.json"
                )
                try:
                    tracer.save(path)
                    record.trace_path = path
                except OSError:
                    pass  # trace export must never take a session down
            if chan is not None:
                chan.close()
            else:
                sock.close()
            self._slots.release()
            record.done.set()

    # ------------------------------------------------------------------ #
    # inspection / shutdown
    # ------------------------------------------------------------------ #
    def metrics(self) -> dict:
        """Server counters plus a bank snapshot, one flat document."""
        with self._records_lock:
            out = {
                "sessions_served": self._sessions_served,
                "sessions_failed": self._sessions_failed,
                "sessions_active": sum(
                    1 for r in self.records if not r.done.is_set()
                ),
                "predictions": sum(r.predictions for r in self.records),
                "max_sessions": self.max_sessions,
            }
        out["bank"] = self.bank.metrics()
        return out

    def wait_idle(self, timeout_s: float = 30.0) -> None:
        """Block until every accepted session has finished."""
        deadline = time.monotonic() + timeout_s
        with self._records_lock:
            records = list(self.records)
        for record in records:
            if not record.done.wait(timeout=max(0.0, deadline - time.monotonic())):
                raise TimeoutError(
                    f"session {record.session_id} still running after {timeout_s}s"
                )

    def _join_sessions(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        with self._threads_lock:
            threads = list(self._session_threads)
        for thread in threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        """Stop accepting, drain session threads, stop the bank.

        Ordering matters: the stop flag goes up and the listener socket
        closes *first* (so a blocked accept wakes immediately and no new
        connection can be accepted), then the accept thread is joined,
        and only then are session threads snapshotted and joined — the
        spawn-under-lock in :meth:`_accept_loop` guarantees the snapshot
        is complete even when the accept loop runs on a foreign thread
        (:meth:`serve_forever`).
        """
        with self._threads_lock:
            self._stop.set()
        self.listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
            self._accept_thread = None
        self._join_sessions(timeout_s=self.session_timeout_s + 10.0)
        self.bank.stop()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
