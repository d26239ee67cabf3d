"""Deterministic fault injection for two-party channels.

A :class:`FaultPlan` is a seeded, reproducible schedule of transport
faults; a :class:`FaultyChannel` wraps either an in-memory
:class:`~repro.net.channel.Channel` or a
:class:`~repro.net.tcp.TcpChannel` and fires the plan's faults at the
chosen **send indices** of the wrapped endpoint.  Fault classes:

``delay``
    Sleep before the send.  The protocol must still complete with the
    correct result (liveness under jitter).
``drop``
    Swallow the message (its sequence number is still consumed, like a
    frame lost in transit).  The receiver surfaces a typed
    :class:`~repro.errors.ChannelError` — a sequence gap at the next
    message, or a recv timeout if nothing follows.
``truncate``
    Deliver a prefix of the encoding with a *valid* CRC — models a peer
    that framed a short message.  The receiver's bounds-checked decoder
    must raise :class:`~repro.errors.ProtocolError`.
``corrupt``
    Flip bytes in the encoding while the frame CRC still vouches for
    the original — models wire corruption.  The receiver's CRC check
    must raise :class:`~repro.errors.ChannelError`.
``disconnect``
    Abruptly drop the transport (no graceful-close signal) and raise on
    the injecting side; the peer sees a connection-lost error.
``stall``
    Deliver only a prefix of the framed message, then go silent — models
    a frame split across the receiver's deadline boundary.  Over TCP the
    receiver must raise a typed mid-frame timeout
    :class:`~repro.errors.ChannelError` (never hand a short buffer to
    the CRC check); the in-memory transport has no partial frames, so
    there the stall degrades to a dropped message (recv timeout).

Every choice (message index, cut point, flipped byte positions) is
drawn from ``random.Random(seed)``, so a failing soak case replays
exactly from its ``(kind, seed)`` pair.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.errors import ChannelError, ConfigError
from repro.utils import serialization

FAULT_KINDS = ("delay", "drop", "truncate", "corrupt", "disconnect", "stall")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what to do and at which send index."""

    kind: str
    message_index: int
    delay_s: float = 0.05
    #: fraction of the encoding kept by ``truncate`` (at least 1 byte cut)
    keep_fraction: float = 0.5
    #: byte flips applied by ``corrupt``
    n_flips: int = 8
    #: per-spec seed for cut points / flip positions
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.message_index < 0:
            raise ConfigError("message_index must be non-negative")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise ConfigError("keep_fraction must be in [0, 1)")


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec`\\ s.

    Use :meth:`seeded` to derive a one-fault plan from ``(kind, seed)``;
    pass explicit specs for multi-fault scenarios.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()) -> None:
        self.specs = tuple(specs)
        self._by_index: dict[int, FaultSpec] = {}
        for spec in self.specs:
            if spec.message_index in self._by_index:
                raise ConfigError(
                    f"two faults scheduled at message index {spec.message_index}"
                )
            self._by_index[spec.message_index] = spec

    @classmethod
    def seeded(
        cls,
        kind: str,
        seed: int,
        max_index: int,
        delay_s: float = 0.05,
        n_flips: int = 8,
    ) -> "FaultPlan":
        """One fault of ``kind`` at a seed-chosen index in ``[0, max_index)``."""
        if max_index < 1:
            raise ConfigError("max_index must be at least 1")
        rng = random.Random(f"{kind}:{seed}")  # str seeds hash stably (SHA-512)
        spec = FaultSpec(
            kind=kind,
            message_index=rng.randrange(max_index),
            delay_s=delay_s,
            keep_fraction=rng.uniform(0.1, 0.9),
            n_flips=n_flips,
            seed=rng.getrandbits(32),
        )
        return cls((spec,))

    def fault_for(self, index: int) -> FaultSpec | None:
        return self._by_index.get(index)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"


class FaultyChannel:
    """Channel wrapper that fires a :class:`FaultPlan` on the send path.

    Exposes the full channel surface (``send``/``recv``/``exchange``/
    ``stats``/``party``/``close``), so protocols and
    :func:`~repro.net.runner.run_protocol` accept it anywhere a real
    channel goes.  Works over both transports via their ``_inject_frame``
    hooks (raw frame with valid or poisoned CRC) and ``abort()``.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._send_index = 0
        self.fired: list[FaultSpec] = []

    # Channel surface delegated to the wrapped endpoint ----------------- #
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
        # The inner endpoint performs the actual IO, so the tracer must
        # live there: only delivered traffic is attributed to spans.
        self._inner.tracer = value

    @property
    def timeout_s(self) -> float:
        # The mux sizes its recv deadline from the transport's timeout;
        # without this delegation a faulted sharded run would stall
        # for the mux default instead of the configured bound.
        return self._inner.timeout_s

    def recv(self):
        return self._inner.recv()

    def exchange(self, obj):
        self.send(obj)
        return self.recv()

    def close(self) -> None:
        self._inner.close()

    def abort(self) -> None:
        self._inner.abort()

    # Fault dispatch ----------------------------------------------------- #
    def send(self, obj) -> None:
        spec = self._plan.fault_for(self._send_index)
        self._send_index += 1
        if spec is None:
            self._inner.send(obj)
            return
        self.fired.append(spec)
        if spec.kind == "delay":
            time.sleep(spec.delay_s)
            self._inner.send(obj)
        elif spec.kind == "drop":
            # The message never reaches the wire, but it consumes a
            # sequence number — exactly what a frame lost in transit
            # looks like — so the receiver reports a gap, not a shifted
            # stream of misinterpreted messages.
            self._inner._skip_frame()
        elif spec.kind == "truncate":
            data = serialization.encode(obj)
            cut = max(1, min(len(data) - 1, int(len(data) * spec.keep_fraction)))
            self._inner._inject_frame(data[:cut], valid_crc=True)
        elif spec.kind == "corrupt":
            data = serialization.encode(obj)
            rng = random.Random(spec.seed)
            bad = bytearray(data)
            for _ in range(max(1, spec.n_flips)):
                pos = rng.randrange(len(bad))
                bad[pos] ^= 1 << rng.randrange(8)
            self._inner._inject_frame(bytes(bad), valid_crc=False)
        elif spec.kind == "disconnect":
            self._inner.abort()
            raise ChannelError(
                f"injected disconnect at message index {spec.message_index}"
            )
        elif spec.kind == "stall":
            data = serialization.encode(obj)
            inject = getattr(self._inner, "_inject_partial_frame", None)
            if inject is not None:
                inject(data, spec.keep_fraction)
            else:
                # No partial frames in memory: the message simply never
                # completes, which the receiver sees as a recv timeout.
                self._inner._skip_frame()

    def __repr__(self) -> str:
        return f"FaultyChannel({self._inner!r}, {self._plan!r})"
