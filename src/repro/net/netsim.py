"""Analytic LAN/WAN wall-clock model, plus an executable shaped link.

The paper shapes traffic with Linux ``tc`` between two machines; we run
both parties in one process and *compute* the network's contribution from
measured traffic instead:

    time = compute_seconds * compute_scale
         + total_bytes / bandwidth
         + rounds * rtt

The analytic model prices a *sequential* protocol.  The execution engine
(:mod:`repro.exec`) overlaps compute with the wire, which an analytic
sum cannot capture — so this module also provides
:class:`ShapedChannel`, a wrapper that realizes the same two link
parameters as actual wall time: every send occupies its direction of the
link for ``nbytes / bandwidth`` seconds (a shared per-direction busy
accumulator — concurrent streams queue behind each other exactly like
packets on one NIC), and the receiver may not observe a message before
``departure + rtt/2``.  Sends never block (an unbounded send buffer);
receives sleep until the arrival deadline.  Both endpoints must live in
one process (the shaper state is shared), which is how every benchmark
in this repo runs.

``compute_scale`` maps measured Python compute onto the paper's C++/ABY
testbed.  The default of 1.0 reports honest Python time; benchmarks that
compare against paper numbers report both raw and scaled figures and only
claim *shape* fidelity (ratios between systems), which is unaffected by
the scale because all systems run on the same interpreter.

The concrete link profiles below are the ones the paper names:

* Table 3 setting: WAN with 9 MB/s and 72 ms RTT.
* Tables 4/5 setting (borrowed from QUOTIENT): WAN with 24.3 MB/s, 40 ms RTT.
* LAN: gigabit-class link, sub-millisecond RTT (the paper does not give
  exact LAN figures; 125 MB/s / 0.5 ms is the conventional ABY setup).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.net.channel import DEFAULT_TIMEOUT_S, make_channel_pair
from repro.utils import serialization


@dataclass(frozen=True)
class NetworkModel:
    """A symmetric point-to-point link."""

    name: str
    bandwidth_bytes_per_s: float
    rtt_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.rtt_s < 0:
            raise ConfigError("RTT cannot be negative")

    def transfer_time_s(self, nbytes: int) -> float:
        """Serialization delay for ``nbytes`` of payload."""
        return nbytes / self.bandwidth_bytes_per_s

    def latency_time_s(self, rounds: int) -> float:
        """Propagation delay for ``rounds`` direction flips.

        ``rounds`` follows the repo-wide convention (pinned by
        ``tests/test_rounds_convention.py``): a round begins whenever the
        sending party changes, and the first message opens round 1.
        ``ChannelStats``, ``TcpChannel``, and ``repro.perf.trace.Tracer``
        all count this way, so their figures can be fed here directly.
        """
        return rounds * self.rtt_s

    def estimate_s(
        self,
        compute_s: float,
        nbytes: int,
        rounds: int,
        compute_scale: float = 1.0,
    ) -> float:
        """Estimated end-to-end wall time for one protocol execution."""
        return compute_s * compute_scale + self.transfer_time_s(nbytes) + self.latency_time_s(rounds)


MB = 1024 * 1024

#: Conventional gigabit LAN (the paper's LAN is tc-shaped but unspecified).
LAN = NetworkModel("LAN", bandwidth_bytes_per_s=125 * MB, rtt_s=0.0005)

#: Table 3's WAN setting: 9 MB/s, 72 ms RTT.
WAN_SECUREML = NetworkModel("WAN-9MBps-72ms", bandwidth_bytes_per_s=9 * MB, rtt_s=0.072)

#: Tables 4/5's WAN setting (same as QUOTIENT): 24.3 MB/s, 40 ms RTT.
WAN_QUOTIENT = NetworkModel("WAN-24.3MBps-40ms", bandwidth_bytes_per_s=24.3 * MB, rtt_s=0.040)


# --------------------------------------------------------------------- #
# executable link: sleeps instead of arithmetic
# --------------------------------------------------------------------- #
class LinkShaper:
    """Shared state of one shaped point-to-point link.

    Full duplex: each direction has its own serialization queue (busy
    accumulator).  ``reserve`` books ``nbytes`` of transfer on one
    direction and returns the absolute ``time.monotonic()`` instant at
    which the message becomes visible at the far end (departure of its
    last byte plus one-way propagation).
    """

    def __init__(self, model: NetworkModel) -> None:
        self.model = model
        self._busy_until = [0.0, 0.0]
        self._lock = threading.Lock()
        #: FIFO arrival deadlines per direction; the underlying channel
        #: is FIFO too, so deadlines pair up with frames positionally.
        self.arrivals: tuple[deque, deque] = (deque(), deque())

    def reserve(self, direction: int, nbytes: int) -> float:
        now = time.monotonic()
        with self._lock:
            start = max(now, self._busy_until[direction])
            done = start + self.model.transfer_time_s(nbytes)
            self._busy_until[direction] = done
        return done + self.model.rtt_s / 2.0


class ShapedChannel:
    """Channel wrapper that turns link parameters into real wall time.

    Wraps one endpoint of an in-process pair (same wrapper idiom as
    :class:`repro.net.faults.FaultyChannel`).  Serialization delay is
    charged on the *payload* bytes — the figure the paper's communication
    columns count — at send time; the matching ``recv`` sleeps until the
    arrival deadline.  All accounting (stats, tracer, seq/CRC framing)
    stays on the wrapped channel untouched.
    """

    def __init__(self, inner: Any, shaper: LinkShaper, direction: int) -> None:
        self._inner = inner
        self._shaper = shaper
        self._direction = direction

    @property
    def party(self) -> int:
        return self._inner.party

    @property
    def stats(self):
        return self._inner.stats

    @property
    def tracer(self):
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._inner.tracer = value

    @property
    def timeout_s(self) -> float:
        return self._inner.timeout_s

    def send(self, obj: Any) -> None:
        arrival = self._shaper.reserve(
            self._direction, serialization.payload_nbytes(obj)
        )
        # Deadline first, then the frame: the peer can never observe a
        # frame whose deadline is not already queued.
        self._shaper.arrivals[self._direction].append(arrival)
        self._inner.send(obj)

    def recv(self) -> Any:
        obj = self._inner.recv()
        arrivals = self._shaper.arrivals[1 - self._direction]
        delay = arrivals.popleft() - time.monotonic() if arrivals else 0.0
        if delay > 0:
            time.sleep(delay)
        return obj

    def exchange(self, obj: Any) -> Any:
        self.send(obj)
        return self.recv()

    def close(self) -> None:
        self._inner.close()

    def __repr__(self) -> str:
        return f"ShapedChannel({self._inner!r}, link={self._shaper.model.name})"


def shaped_channel_pair(
    model: NetworkModel, timeout_s: float = DEFAULT_TIMEOUT_S
) -> tuple[ShapedChannel, ShapedChannel]:
    """A connected in-memory (server, client) pair over a shaped link."""
    server, client = make_channel_pair(timeout_s=timeout_s)
    shaper = LinkShaper(model)
    return (
        ShapedChannel(server, shaper, direction=0),
        ShapedChannel(client, shaper, direction=1),
    )
