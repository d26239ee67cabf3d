"""IKNP 1-out-of-2 OT extension (the KK13 engine at N = 2): chosen,
correlated, session reuse, malformed peer frames."""

import numpy as np
import pytest

from repro.crypto import codes
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.errors import CryptoError, ProtocolError
from repro.net import run_protocol
from repro.utils.ring import Ring


def _run_chosen(messages, choices, group, width):
    return run_protocol(
        lambda ch: OtExtSender(ch, group=group, seed=1).send_chosen(messages),
        lambda ch: OtExtReceiver(ch, group=group, seed=2).recv_chosen(choices, width),
    )


class TestChosenMessage:
    def test_correctness(self, test_group, rng):
        m = 300
        msgs = rng.integers(0, 1 << 63, size=(m, 2, 2), dtype=np.uint64)
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)
        result = _run_chosen(msgs, choices, test_group, 2)
        assert (result.client == msgs[np.arange(m), choices.astype(int)]).all()

    def test_receiver_does_not_learn_other_message(self, test_group, rng):
        # The unchosen message pads must not equal the received values.
        m = 50
        msgs = rng.integers(0, 1 << 63, size=(m, 2, 1), dtype=np.uint64)
        choices = np.zeros(m, dtype=np.uint8)
        result = _run_chosen(msgs, choices, test_group, 1)
        assert (result.client[:, 0] == msgs[:, 0, 0]).all()
        assert (result.client[:, 0] != msgs[:, 1, 0]).all()

    def test_wide_messages(self, test_group, rng):
        m = 20
        msgs = rng.integers(0, 1 << 63, size=(m, 2, 7), dtype=np.uint64)
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)
        result = _run_chosen(msgs, choices, test_group, 7)
        assert (result.client == msgs[np.arange(m), choices.astype(int)]).all()

    def test_bad_message_shape(self, test_group):
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        sender = OtExtSender(chan, group=test_group)
        with pytest.raises(CryptoError):
            sender.send_chosen(np.zeros((4, 3, 1), dtype=np.uint64))

    def test_bad_choice_values(self, test_group):
        from repro.net.channel import make_channel_pair

        server, client = make_channel_pair(timeout_s=5)

        def client_fn(ch):
            return OtExtReceiver(ch, group=test_group, seed=2).recv_chosen(
                np.array([0, 2], dtype=np.uint8), 1
            )

        def server_fn(ch):
            OtExtSender(ch, group=test_group, seed=1).send_chosen(
                np.zeros((2, 2, 1), dtype=np.uint64)
            )

        with pytest.raises(CryptoError):
            run_protocol(server_fn, client_fn, timeout_s=5)


class TestCorrelated:
    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_correlation_holds(self, bits, test_group, rng):
        ring = Ring(bits)
        m = 200
        deltas = ring.sample(rng, m)
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)
        result = run_protocol(
            lambda ch: OtExtSender(ch, group=test_group, seed=1).send_correlated(deltas, ring),
            lambda ch: OtExtReceiver(ch, group=test_group, seed=2).recv_correlated(
                choices, None, ring
            ),
        )
        expect = ring.add(result.server, ring.mul(choices.astype(np.uint64), deltas))
        assert (result.client == expect).all()

    def test_multi_lane(self, test_group, rng):
        ring = Ring(32)
        m, lanes = 60, 5
        deltas = ring.sample(rng, (m, lanes))
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)
        result = run_protocol(
            lambda ch: OtExtSender(ch, group=test_group, seed=1).send_correlated(deltas, ring),
            lambda ch: OtExtReceiver(ch, group=test_group, seed=2).recv_correlated(
                choices, lanes, ring
            ),
        )
        expect = ring.add(result.server, ring.mul(choices.astype(np.uint64)[:, None], deltas))
        assert (result.client == expect).all()

    def test_sub64_packing_saves_bytes(self, test_group, rng):
        ring16, ring64 = Ring(16), Ring(64)
        m = 512
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)

        def run(ring):
            deltas = ring.sample(rng, m)
            return run_protocol(
                lambda ch: OtExtSender(ch, group=test_group, seed=1).send_correlated(deltas, ring),
                lambda ch: OtExtReceiver(ch, group=test_group, seed=2).recv_correlated(
                    choices, None, ring
                ),
            ).total_bytes

        assert run(ring16) < run(ring64)


class TestXorCorrelated:
    """ALSZ13's C-OT for free-XOR labels: the receiver's ``U`` first, then
    one ``W``-word correction per OT, and the receiver holds
    ``x0 ^ c * delta``."""

    def test_correlation_on_ragged_batches(self, test_group, rng):
        sizes, width = (1, 63, 65, 200), 2
        deltas = rng.integers(0, 1 << 63, size=(len(sizes), width), dtype=np.uint64)
        choices = [rng.integers(0, 2, size=m, dtype=np.uint8) for m in sizes]

        def server_fn(ch):
            received = []
            recv = ch.recv
            ch.recv = lambda: received.append(recv()) or received[-1]
            sender = OtExtSender(ch, group=test_group, seed=1)
            x0s = []
            for m, delta in zip(sizes, deltas):
                half = sender.send_xor_correlated(m, width)
                # U: kappa bits per OT, nothing else
                assert isinstance(received[-1], bytes) and len(received[-1]) == 128 * m // 8
                correction = half.correction(delta)
                assert correction.shape == (m, width) and correction.dtype == np.uint64
                ch.send(correction)
                x0s.append(half.x0)
            return x0s

        def client_fn(ch):
            receiver = OtExtReceiver(ch, group=test_group, seed=2)
            return [receiver.recv_xor_correlated(c, width).open(ch.recv()) for c in choices]

        result = run_protocol(server_fn, client_fn)
        for x0, got, c, delta in zip(result.server, result.client, choices, deltas):
            assert x0.shape == got.shape == (c.size, width)
            assert (got == x0 ^ c[:, None].astype(np.uint64) * delta).all()
        # the pads are fresh per OT, across batches too
        assert len({tuple(row) for x0 in result.server for row in x0}) == sum(sizes)

    @pytest.mark.parametrize("bad", ["short", "wide", "dtype", "bytes"])
    def test_malformed_correction_refused(self, test_group, bad):
        m, width = 5, 2

        def server_fn(ch):
            half = OtExtSender(ch, group=test_group, seed=1).send_xor_correlated(m, width)
            correction = half.correction(np.ones(width, dtype=np.uint64))
            ch.send(
                {
                    "short": correction[:-1].copy(),
                    "wide": np.zeros((m, width + 1), dtype=np.uint64),
                    "dtype": correction.astype(np.int64),
                    "bytes": correction.tobytes(),
                }[bad]
            )

        def client_fn(ch):
            receiver = OtExtReceiver(ch, group=test_group, seed=2)
            return receiver.recv_xor_correlated(np.ones(m, dtype=np.uint8), width).open(
                ch.recv()
            )

        with pytest.raises(ProtocolError, match="correction"):
            run_protocol(server_fn, client_fn, timeout_s=10)


class TestSessions:
    def test_multiple_batches_one_setup(self, test_group, rng):
        ring = Ring(32)
        m = 100
        msgs = rng.integers(0, 1 << 63, size=(m, 2, 1), dtype=np.uint64)
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)
        deltas = ring.sample(rng, m)

        def server_fn(ch):
            sender = OtExtSender(ch, group=test_group, seed=1)
            sender.send_chosen(msgs)
            return sender.send_correlated(deltas, ring)

        def client_fn(ch):
            receiver = OtExtReceiver(ch, group=test_group, seed=2)
            got = receiver.recv_chosen(choices, 1)
            cot = receiver.recv_correlated(choices, None, ring)
            return got, cot

        result = run_protocol(server_fn, client_fn)
        got, cot = result.client
        assert (got == msgs[np.arange(m), choices.astype(int)]).all()
        expect = ring.add(result.server, ring.mul(choices.astype(np.uint64), deltas))
        assert (cot == expect).all()

    def test_kappa_must_be_word_aligned(self, test_group):
        """IKNP's kappa is the N = 2 engine's code length: two words."""
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        for cls in (OtExtSender, OtExtReceiver):
            assert cls(chan, group=test_group).code_bits == codes.code_length(2) == 128


class _FrameMangler:
    """Channel wrapper that spoils every frame sent once armed."""

    def __init__(self, inner, fault: str) -> None:
        self._inner = inner
        self._fault = fault
        self.armed = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def send(self, obj) -> None:
        if self.armed and self._fault == "bytes":
            obj = b"abc"
        elif self.armed and self._fault == "dtype":
            obj = obj.astype(np.int64)
        elif self.armed:
            obj = obj[:-1].copy()
        self._inner.send(obj)

    def recv(self):
        return self._inner.recv()


class TestMalformedPeerFrames:
    """Every frame an OT receiver opens is checked: a non-array, another
    dtype or another shape is the peer's fault, a ProtocolError."""

    @pytest.mark.parametrize("fault", ["bytes", "dtype", "shape"])
    @pytest.mark.parametrize(
        "frame, n_values",
        [("chosen", 2), ("chosen", 4), ("correlated", 2), ("xor", 2)],
    )
    def test_refused(self, frame, n_values, fault, test_group, rng):
        m, width, ring = 9, 2, Ring(16)
        choices = rng.integers(0, n_values, size=m).astype(np.uint8)

        def server_fn(ch):
            mangler = _FrameMangler(ch, fault)
            sender = (
                Kk13Sender(mangler, n_values, group=test_group, seed=1)
                if n_values > 2 else OtExtSender(mangler, group=test_group, seed=1)
            )
            sender.ensure_seeds()
            mangler.armed = True
            if frame == "chosen":
                sender.send_chosen(np.ones((m, n_values, width), dtype=np.uint64))
            elif frame == "correlated":
                sender.send_correlated(ring.sample(rng, m), ring)
            else:
                half = sender.send_xor_correlated(m, width)
                mangler.send(half.correction(np.ones(width, dtype=np.uint64)))

        def client_fn(ch):
            if n_values > 2:
                receiver = Kk13Receiver(ch, n_values, group=test_group, seed=2)
            else:
                receiver = OtExtReceiver(ch, group=test_group, seed=2)
            if frame == "chosen":
                return receiver.recv_chosen(choices, width)
            if frame == "correlated":
                return receiver.recv_correlated(choices, None, ring)
            return receiver.recv_xor_correlated(choices, width).open(ch.recv())

        with pytest.raises(ProtocolError, match="expected"):
            run_protocol(server_fn, client_fn, timeout_s=10)
