"""Failure injection: protocols must fail loudly, not corrupt silently."""

import threading
import time

import numpy as np
import pytest

from repro.core.offline import ClientHalf, ServerHalf
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.crypto.group import MODP_TEST
from repro.errors import ChannelError, CryptoError, ProtocolError, ReproError
from repro.net import make_channel_pair, run_protocol
from repro.net.channel import Channel
from repro.net.faults import FaultPlan, FaultSpec, FaultyChannel
from repro.nn.model import mnist_mlp
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring


class _TamperingChannel:
    """Wraps a channel; corrupts the Nth received array's first element."""

    def __init__(self, inner: Channel, corrupt_at: int) -> None:
        self._inner = inner
        self._count = 0
        self._corrupt_at = corrupt_at
        self.stats = inner.stats
        self.party = inner.party

    def send(self, obj):
        self._inner.send(obj)

    def recv(self):
        obj = self._inner.recv()
        self._count += 1
        if self._count == self._corrupt_at and isinstance(obj, np.ndarray) and obj.size:
            # Flip the low bit of every element: whichever ciphertext
            # slots the receiver opens, they are corrupted.  (A single
            # flipped slot could land on an *unchosen* OT message, which
            # OT semantics render harmless by design.)
            obj = obj.copy()
            obj ^= np.array(1, dtype=obj.dtype)
        return obj

    def close(self):
        self._inner.close()


class TestAbortMidProtocol:
    def test_peer_death_surfaces_as_channel_error(self, test_group, rng):
        ring = Ring(32)
        config = TripletConfig(
            ring=ring, scheme=FragmentScheme.binary(), m=2, n=3, o=1, group=test_group
        )
        w = rng.integers(0, 2, size=(2, 3))

        def dying_client(chan):
            chan.recv()  # take the server's first base-OT message
            chan.close()  # then vanish

        with pytest.raises(ChannelError):
            run_protocol(
                lambda ch: generate_triplets_server(ch, w, config, seed=1),
                dying_client,
                timeout_s=10,
            )

    def test_timeout_is_bounded(self):
        def silent_server(chan):
            chan.recv()  # waits forever

        def silent_client(chan):
            chan.recv()

        # Whichever party's timer fires first closes the channel, so the
        # surfaced error is either its timeout or the peer-closed echo.
        with pytest.raises(ChannelError, match="timed out|peer closed"):
            run_protocol(silent_server, silent_client, timeout_s=0.2)


class TestTampering:
    def test_corrupted_ot_message_breaks_reconstruction(self, test_group, rng):
        """A flipped ciphertext bit must corrupt the output (no silent
        recovery), demonstrating the shares actually depend on every
        transmitted word."""
        ring = Ring(32)
        scheme = FragmentScheme.from_bits((2, 2))
        m, n = 3, 4
        w = rng.integers(-8, 8, size=(m, n))
        r = ring.sample(rng, (n, 2))
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=2, group=test_group)

        server_chan, client_chan = make_channel_pair(timeout_s=10)
        # The server (KK13 receiver / base-OT sender) receives: (1) the
        # base-OT response blob, (2) the OT ciphertext array — corrupt it.
        tampered = _TamperingChannel(server_chan, corrupt_at=2)

        import threading

        box = {}

        def client_main():
            try:
                box["v"] = generate_triplets_client(
                    client_chan, r, config, np.random.default_rng(5), seed=2
                )
            except ReproError as exc:  # corruption may also trip checks
                box["exc"] = exc

        thread = threading.Thread(target=client_main, daemon=True)
        thread.start()
        try:
            u = generate_triplets_server(tampered, w, config, seed=1)
        except ReproError:
            thread.join(timeout=10)
            return  # loud failure: acceptable
        thread.join(timeout=10)
        if "exc" in box:
            return
        got = ring.add(u, box["v"])
        expect = ring.matmul(ring.reduce(w), r)
        assert (got != expect).any(), "tampering went unnoticed AND harmless"


class TestShapeConfusion:
    def test_mismatched_configs_fail(self, test_group, rng):
        """Parties disagreeing on o must raise, not mis-reconstruct."""
        ring = Ring(32)
        scheme = FragmentScheme.binary()
        w = rng.integers(0, 2, size=(2, 3))
        r = ring.sample(rng, (3, 2))
        cfg_server = TripletConfig(
            ring=ring, scheme=scheme, m=2, n=3, o=1, group=test_group
        )
        cfg_client = TripletConfig(
            ring=ring, scheme=scheme, m=2, n=3, o=2, group=test_group
        )
        with pytest.raises((ReproError, ValueError)):
            run_protocol(
                lambda ch: generate_triplets_server(ch, w, cfg_server, seed=1),
                lambda ch: generate_triplets_client(
                    ch, r, cfg_client, np.random.default_rng(3), seed=2
                ),
                timeout_s=10,
            )

    def test_mismatched_schemes_fail_or_corrupt_loudly(self, test_group, rng):
        ring = Ring(32)
        w = rng.integers(0, 2, size=(2, 3))
        r = ring.sample(rng, (3, 1))
        cfg_server = TripletConfig(
            ring=ring, scheme=FragmentScheme.binary(), m=2, n=3, o=1, group=test_group
        )
        cfg_client = TripletConfig(
            ring=ring, scheme=FragmentScheme.ternary(), m=2, n=3, o=1, group=test_group
        )
        try:
            result = run_protocol(
                lambda ch: generate_triplets_server(ch, w, cfg_server, seed=1),
                lambda ch: generate_triplets_client(
                    ch, r, cfg_client, np.random.default_rng(3), seed=2
                ),
                timeout_s=10,
            )
        except (ReproError, ValueError):
            return
        got = ring.add(result.server, result.client)
        expect = ring.matmul(ring.reduce(w), r)
        assert (got != expect).any()


# --------------------------------------------------------------------- #
# online fault fuzz (the plan walk over FaultyChannel)
# --------------------------------------------------------------------- #
FUZZ_TIMEOUT_S = 3.0
#: recv deadline of the faulted online phase: five offsets per fault kind
#: end in a recv timeout, and this tiny model's online phase needs far less.
FUZZ_ONLINE_TIMEOUT_S = 0.5
FUZZ_DEADLINE_S = 25.0


class _FuzzEnv:
    """Small two-ReLU workload + fault-free reference send counts."""

    def __init__(self):
        model = mnist_mlp(seed=5, hidden=6, input_dim=8, classes=3)
        self.qmodel = quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)
        self.meta = ModelMeta.from_model(self.qmodel)
        # a standard normal draw, clipped to the public input domain |x| <= 1
        self.x_ring = self.qmodel.encoder.encode(
            np.clip(np.random.default_rng(7).normal(size=(1, 8)).T, -1.0, 1.0)
        )
        marks = {}

        def server_fn(chan):
            server = self._server(chan)
            server.offline(rounds=1)
            server.online()
            return server

        def client_fn(chan):
            client = self._client(chan)
            client.offline(rounds=1)
            marks["offline_sends"] = chan.stats.messages_sent[1]
            logits = client.online(self.x_ring)
            marks["total_sends"] = chan.stats.messages_sent[1]
            return logits

        result = run_protocol(server_fn, client_fn, timeout_s=30.0)
        self.ref_logits = result.client
        self.client_offline_sends = marks["offline_sends"]
        self.client_online_sends = marks["total_sends"] - marks["offline_sends"]

    def _server(self, chan):
        return Abnn2Server(chan, self.qmodel, 1, group=MODP_TEST, seed=31)

    def _client(self, chan):
        return Abnn2Client(chan, self.meta, 1, group=MODP_TEST, seed=32)


@pytest.fixture(scope="module")
def fuzz_env():
    return _FuzzEnv()


def _run_faulted_online(env, fault_plan):
    """Fault-free offline, then one online round with the client's sends
    routed through ``FaultyChannel``.  Both parties finish the offline
    phase before either starts the online one, whose recv deadline is the
    shorter ``FUZZ_ONLINE_TIMEOUT_S``.  Returns (server, client, errors)
    where ``errors[name]`` is the exception that party raised (if any).
    """
    server_chan, client_chan = make_channel_pair(timeout_s=FUZZ_TIMEOUT_S)
    offline_done = threading.Barrier(2, timeout=FUZZ_DEADLINE_S)
    parties: dict = {}
    errors: dict = {}

    def go_online(chan):
        offline_done.wait()
        chan.timeout_s = FUZZ_ONLINE_TIMEOUT_S

    def server_fn():
        server = parties["server"] = env._server(server_chan)
        try:
            server.offline(rounds=1)
            go_online(server_chan)
            server.online()
        except BaseException as exc:  # noqa: BLE001
            errors["server"] = exc
            offline_done.abort()
            server_chan.close()  # wake a peer parked in recv

    def client_fn():
        client = parties["client"] = env._client(
            FaultyChannel(client_chan, fault_plan)
        )
        try:
            client.offline(rounds=1)
            go_online(client_chan)
            client.online(env.x_ring)
        except BaseException as exc:  # noqa: BLE001
            errors["client"] = exc
            offline_done.abort()
            client_chan.close()

    threads = [
        threading.Thread(target=server_fn, name="fuzz-server", daemon=True),
        threading.Thread(target=client_fn, name="fuzz-client", daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=FUZZ_DEADLINE_S)
    assert not any(t.is_alive() for t in threads), "faulted party hung"
    return parties["server"], parties["client"], errors


class TestOnlineFaultFuzz:
    """A fault at any client send of the online phase: typed failure on
    both parties within the deadline, no leaked thread, no consumed bank
    round."""

    @pytest.mark.parametrize("kind", ["drop", "truncate", "corrupt", "stall"])
    def test_every_online_send_fails_typed(self, fuzz_env, kind):
        # input share, then per ReLU layer the one GC frame, label-OT
        # corrections included (the base OTs ran offline, in the KK13 set-up)
        assert fuzz_env.client_online_sends == 3
        for offset in range(fuzz_env.client_online_sends):
            plan = FaultPlan(
                [
                    FaultSpec(
                        kind=kind,
                        message_index=fuzz_env.client_offline_sends + offset,
                        seed=offset,
                    )
                ]
            )
            before = set(threading.enumerate())
            start = time.monotonic()
            server, client, errors = _run_faulted_online(fuzz_env, plan)
            where = f"{kind} at online send #{offset}"
            assert time.monotonic() - start < FUZZ_DEADLINE_S, where
            assert client.chan.fired, f"{where}: the fault never fired"
            for party in ("server", "client"):
                assert isinstance(
                    errors.get(party), (ChannelError, ProtocolError)
                ), f"{where}: {party} raised {errors.get(party)!r}"
            assert server.rounds_available == 1, where
            assert client.rounds_available == 1, where
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                leaked = [
                    t for t in threading.enumerate()
                    if t not in before and t.is_alive()
                ]
                if not leaked:
                    break
                time.sleep(0.01)
            assert not leaked, f"{where}: leaked {[t.name for t in leaked]}"


class TestBankDepthAfterAbort:
    """Regression for the online() consume-on-entry bug: a round aborted
    mid-flight must stay banked and remain genuinely re-runnable, whether
    the abort comes early in the online phase or at its last client send."""

    @pytest.mark.parametrize("late", [False, True])
    def test_aborted_round_stays_banked_and_reruns(self, fuzz_env, late):
        env = fuzz_env
        offset = env.client_online_sends - 1 if late else 2
        plan = FaultPlan(
            [FaultSpec(kind="drop", message_index=env.client_offline_sends + offset)]
        )
        server, client, errors = _run_faulted_online(env, plan)
        assert isinstance(
            errors.get("server"), (ChannelError, ProtocolError)
        ), errors.get("server")
        assert isinstance(
            errors.get("client"), (ChannelError, ProtocolError)
        ), errors.get("client")
        assert server.rounds_available == 1
        assert client.rounds_available == 1

        # Re-runnable, not merely counted: the surviving halves predict
        # correctly when exported, framed through their codec, and loaded
        # into fresh parties on a fresh channel.
        server_half = ServerHalf.decode(server.export_offline_round().encode())
        client_half = ClientHalf.decode(client.export_offline_round().encode())
        assert server.rounds_available == 0
        assert client.rounds_available == 0

        def retry_server(chan):
            fresh = env._server(chan)
            fresh.load_offline_round(server_half)
            fresh.online()

        def retry_client(chan):
            fresh = env._client(chan)
            fresh.load_offline_round(client_half)
            return fresh.online(env.x_ring)

        result = run_protocol(retry_server, retry_client, timeout_s=30.0)
        assert (result.client == env.ref_logits).all()
