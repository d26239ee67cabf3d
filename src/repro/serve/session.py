"""Per-connection session protocol between a serving process and a client.

Runs on top of any established channel (TCP or in-memory), which is what
lets the concurrency tests drive the exact production session logic over
:func:`repro.net.channel.make_channel_pair`.  Control messages are JSON
objects carried as ``bytes`` payloads; bulk offline material travels as
a tuple of arrays (:func:`encode_client_round`).

Message flow (client to the left, server to the right)::

    hello {batch, relu, mode}      ->
                                   <- welcome {ok, session, mode}
    round {}                       ->
                                   <- grant {ok, round_id} | deny {ok: False, error}
    [bank mode: <- client-half offline material]
    ... online prediction protocol (input share ... logits share) ...
    round {} | done {}             ->
                                   <- ... | bye {ok}

Every round is explicitly *granted* before any protocol bytes flow, so
an exhausted bank produces a typed deny the client raises as
``ProtocolError("offline material exhausted")`` — never a desynchronized
stream.  In ``interactive`` mode the grant is followed by a joint
two-party offline phase instead of dealt material, preserving the
paper's original security model at the cost of per-round OT traffic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import ChannelError, ConfigError, ProtocolError
from repro.perf.trace import Tracer

#: Version of the session-layer message flow (independent of the wire
#: framing version); checked in the hello/welcome exchange.
SERVE_PROTOCOL = 1

#: Serving modes: ``bank`` deals precomputed material (trusted-dealer
#: model, zero offline traffic); ``interactive`` runs the joint OT-based
#: offline phase per round (the paper's two-party model).
MODES = ("bank", "interactive")

#: Hard cap on one JSON control frame.  Legitimate control messages are
#: tens of bytes; without a cap a hostile peer could make ``json.loads``
#: chew through an arbitrarily large allocation before any field is
#: validated.  Oversized frames fail typed, like every other malformed
#: control input.
MAX_CTRL_BYTES = 64 * 1024


# --------------------------------------------------------------------- #
# control + material codecs
# --------------------------------------------------------------------- #
def send_ctrl(chan, **fields) -> None:
    """Send one JSON control message as a bytes payload."""
    chan.send(json.dumps(fields, sort_keys=True).encode())


def recv_ctrl(chan) -> dict:
    """Receive one JSON control message; malformed input fails typed."""
    obj = chan.recv()
    if not isinstance(obj, (bytes, bytearray)):
        raise ProtocolError(
            f"expected a control message, got {type(obj).__name__}"
        )
    if len(obj) > MAX_CTRL_BYTES:
        raise ProtocolError(
            f"control frame of {len(obj)} bytes exceeds the "
            f"{MAX_CTRL_BYTES}-byte cap"
        )
    try:
        doc = json.loads(bytes(obj).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed control message: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("control message must be a JSON object")
    return doc


def encode_client_round(material: dict) -> tuple:
    """Flatten a client-half offline round into one wire message.

    Layout: a JSON header (layer counts, which pool reshares exist)
    followed by the input mask, the per-layer ``V`` shares, the ReLU
    shares, and the present pool reshares, all as ring-element arrays.
    """
    pool_present = [p is not None for p in material["pool_shares"]]
    header = {
        "n_layers": len(material["v"]),
        "pool_present": pool_present,
    }
    parts = [json.dumps(header, sort_keys=True).encode()]
    parts.append(np.asarray(material["input_mask"], dtype=np.uint64))
    parts.extend(np.asarray(v, dtype=np.uint64) for v in material["v"])
    parts.extend(np.asarray(z, dtype=np.uint64) for z in material["relu_shares"])
    parts.extend(
        np.asarray(p, dtype=np.uint64)
        for p in material["pool_shares"]
        if p is not None
    )
    return tuple(parts)


def decode_client_round(obj) -> dict:
    """Inverse of :func:`encode_client_round`; structural checks only.

    Shape/semantic validation happens in
    :meth:`repro.core.protocol.Abnn2Client.load_offline_round`.
    """
    if not isinstance(obj, tuple) or not obj or not isinstance(obj[0], (bytes, bytearray)):
        raise ProtocolError("malformed offline-round message")
    try:
        header = json.loads(bytes(obj[0]).decode())
        n_layers = int(header["n_layers"])
        pool_present = [bool(p) for p in header["pool_present"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed offline-round header: {exc}") from exc
    if n_layers < 1 or len(pool_present) != n_layers - 1:
        raise ProtocolError("inconsistent offline-round header")
    expected = 2 + n_layers + (n_layers - 1) + sum(pool_present)
    if len(obj) != expected:
        raise ProtocolError(
            f"offline-round message has {len(obj)} parts, expected {expected}"
        )
    arrays = list(obj[1:])
    if not all(isinstance(a, np.ndarray) for a in arrays):
        raise ProtocolError("offline-round parts must be arrays")
    input_mask = arrays.pop(0)
    vs = [arrays.pop(0) for _ in range(n_layers)]
    relu_shares = [arrays.pop(0) for _ in range(n_layers - 1)]
    pool_shares = [arrays.pop(0) if present else None for present in pool_present]
    return {
        "v": vs,
        "relu_shares": relu_shares,
        "pool_shares": pool_shares,
        "input_mask": input_mask,
    }


# --------------------------------------------------------------------- #
# server side
# --------------------------------------------------------------------- #
@dataclass
class SessionResult:
    """What one served session amounted to."""

    session_id: int
    predictions: int = 0
    mode: str = ""
    error: str | None = None


class ServerSession:
    """Drive the server side of one client connection to completion.

    Owns one :class:`~repro.core.protocol.Abnn2Server` party and one
    tracer for the whole connection; each granted round appears as a
    ``round{k}`` span (carrying the bank ``round_id``) in the exported
    trace, so per-session trees stay isolated by construction.
    """

    def __init__(
        self,
        chan,
        model,
        bank,
        *,
        session_id: int,
        relu_variant: str = "oblivious",
        keep_alive: bool = True,
        max_rounds: int | None = None,
        exhaustion_wait_s: float = 0.0,
        allow_interactive: bool = True,
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.chan = chan
        self.model = model
        self.bank = bank
        self.session_id = session_id
        self.relu_variant = relu_variant
        self.keep_alive = keep_alive
        self.max_rounds = max_rounds
        self.exhaustion_wait_s = exhaustion_wait_s
        self.allow_interactive = allow_interactive
        self.group = group
        self.ro = ro
        self.seed = seed
        self.tracer = tracer if tracer is not None else Tracer(party="server")

    def _deny_hello(self, error: str) -> SessionResult:
        send_ctrl(self.chan, ok=False, error=error)
        # Consume the peer's trailing traffic before our side closes:
        # under TCP, closing with its best-effort done/close frame still
        # unread resets the connection, and the client can then see
        # ConnectionResetError instead of this structured deny.
        drain = getattr(self.chan, "drain", None)
        if drain is not None:
            drain(1.0)
        return SessionResult(self.session_id, error=error)

    def run(self) -> SessionResult:
        """Serve rounds until the client says ``done`` or the session dies.

        Raises on channel faults (the server's accept loop records the
        failed session and keeps accepting); protocol-level rejections
        are answered with typed denies instead of raised.
        """
        hello = recv_ctrl(self.chan)
        if hello.get("op") != "hello":
            return self._deny_hello(f"expected hello, got {hello.get('op')!r}")
        if hello.get("protocol") != SERVE_PROTOCOL:
            return self._deny_hello(
                f"serve protocol mismatch: client speaks "
                f"{hello.get('protocol')}, server speaks {SERVE_PROTOCOL}"
            )
        mode = hello.get("mode", "bank")
        if mode not in MODES:
            return self._deny_hello(f"unknown mode {mode!r}")
        if mode == "interactive" and not self.allow_interactive:
            return self._deny_hello("interactive mode is disabled on this server")
        batch = hello.get("batch")
        if not isinstance(batch, int) or batch < 1:
            return self._deny_hello(f"invalid batch {batch!r}")
        if mode == "bank" and batch != self.bank.batch:
            return self._deny_hello(
                f"bank material is shaped for batch={self.bank.batch}, "
                f"client asked for batch={batch}"
            )
        relu = hello.get("relu", "oblivious")
        if relu != self.relu_variant:
            return self._deny_hello(
                f"relu variant mismatch: server runs {self.relu_variant!r}, "
                f"client asked for {relu!r}"
            )

        result = SessionResult(self.session_id, mode=mode)
        party = Abnn2Server(
            self.chan, self.model, batch,
            relu_variant=self.relu_variant, group=self.group, ro=self.ro,
            seed=self.seed, tracer=self.tracer,
        )
        allowed = self.max_rounds if self.keep_alive else 1
        send_ctrl(
            self.chan, ok=True, session=self.session_id, mode=mode,
            protocol=SERVE_PROTOCOL, batch=batch,
        )
        while True:
            try:
                request = recv_ctrl(self.chan)
            except ChannelError as exc:
                if result.predictions and "closed" in str(exc):
                    # Client hung up instead of saying done: tolerated
                    # after at least one completed round.
                    break
                raise
            op = request.get("op")
            if op == "done":
                send_ctrl(self.chan, ok=True)
                break
            if op != "round":
                send_ctrl(self.chan, ok=False, error=f"unknown op {op!r}")
                result.error = f"unknown op {op!r}"
                break
            if allowed is not None and result.predictions >= allowed:
                send_ctrl(
                    self.chan, ok=False,
                    error="session round limit reached (keep-alive disabled)"
                    if not self.keep_alive
                    else "session round limit reached",
                )
                continue
            if mode == "bank":
                try:
                    rnd = self.bank.take(timeout_s=self.exhaustion_wait_s)
                except ProtocolError as exc:
                    # Typed deny *instead of* starting the round: neither
                    # party ever sends online-protocol bytes it cannot
                    # finish, so exhaustion never desyncs the channel.
                    send_ctrl(self.chan, ok=False, error=str(exc))
                    continue
                party.load_offline_round(rnd.server_us)
                send_ctrl(self.chan, ok=True, round_id=rnd.round_id)
                with self.tracer.span(
                    f"round{result.predictions}", round_id=rnd.round_id, mode=mode
                ):
                    with self.tracer.span("deal"):
                        self.chan.send(encode_client_round(rnd.client_material))
                    party.online()
            else:
                send_ctrl(self.chan, ok=True)
                with self.tracer.span(
                    f"round{result.predictions}", mode=mode
                ):
                    party.offline(rounds=1)
                    party.online()
            result.predictions += 1
        return result


# --------------------------------------------------------------------- #
# client side
# --------------------------------------------------------------------- #
class ClientSession:
    """Drive the client side of a serving connection over any channel."""

    def __init__(
        self,
        chan,
        meta: ModelMeta,
        batch: int,
        *,
        relu_variant: str = "oblivious",
        mode: str = "bank",
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
        self.chan = chan
        self.mode = mode
        self.party = Abnn2Client(
            chan, meta, batch, relu_variant=relu_variant, group=group, ro=ro,
            seed=seed, tracer=tracer,
        )
        self.tracer = self.party.tracer
        self.rounds_done = 0
        self.round_ids: list[int] = []
        send_ctrl(
            chan, op="hello", protocol=SERVE_PROTOCOL, batch=batch,
            relu=relu_variant, mode=mode,
        )
        welcome = recv_ctrl(chan)
        if not welcome.get("ok"):
            raise ProtocolError(
                f"server rejected the session: {welcome.get('error', 'unknown error')}"
            )
        self.session_id = welcome.get("session")

    def predict_encoded(self, x_ring: np.ndarray) -> np.ndarray:
        """One prediction on fixed-point inputs ``(features, batch)``."""
        send_ctrl(self.chan, op="round")
        grant = recv_ctrl(self.chan)
        if not grant.get("ok"):
            raise ProtocolError(
                f"server denied the round: {grant.get('error', 'unknown error')}"
            )
        with self.tracer.span(
            f"round{self.rounds_done}",
            round_id=grant.get("round_id", -1), mode=self.mode,
        ):
            if self.mode == "bank":
                with self.tracer.span("deal"):
                    material = decode_client_round(self.chan.recv())
                self.party.load_offline_round(material)
            else:
                self.party.offline(rounds=1)
            logits = self.party.online(x_ring)
        self.rounds_done += 1
        if "round_id" in grant:
            self.round_ids.append(grant["round_id"])
        return logits

    def close(self) -> None:
        """Tell the server we are done (best effort) and close the channel."""
        try:
            send_ctrl(self.chan, op="done")
            recv_ctrl(self.chan)
        except (ChannelError, ProtocolError):
            pass
        self.chan.close()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
