"""Two-party GC execution over channels (label OT included)."""

import numpy as np
import pytest

from repro.core.relu import relu_layer_client, relu_layer_server
from repro.errors import ConfigError, ProtocolError
from repro.gc.builder import relu_template, sign_template
from repro.gc.circuit import Circuit
from repro.gc.garble import LABEL_WORDS, garble
from repro.gc.protocol import GcSessions, run_evaluator, run_garbler
from repro.net import run_protocol
from repro.net.channel import make_channel_pair
from repro.utils.bits import bits_to_int, int_to_bits, packed_word_count
from repro.utils.ring import Ring


def _run_gc(circ, g_bits, e_bits, n_inst, group, garbler_seed=3, eval_seed=4):
    def garbler_fn(chan):
        sessions = GcSessions(chan, "garbler", group=group, seed=garbler_seed)
        run_garbler(chan, circ, g_bits, n_inst, sessions, np.random.default_rng(11))

    def evaluator_fn(chan):
        sessions = GcSessions(chan, "evaluator", group=group, seed=eval_seed)
        return run_evaluator(chan, circ, e_bits, n_inst, sessions)

    return run_protocol(garbler_fn, evaluator_fn)


class TestGcProtocol:
    def test_relu_over_channel(self, test_group, rng):
        ring = Ring(16)
        circ = relu_template(16)
        n = 30
        y, y1, z1 = ring.sample(rng, n), ring.sample(rng, n), ring.sample(rng, n)
        y0 = ring.sub(y, y1)
        g_bits = np.concatenate([int_to_bits(y1, 16), int_to_bits(z1, 16)], axis=1).T.copy()
        e_bits = int_to_bits(y0, 16).T.copy()
        result = _run_gc(circ, g_bits, e_bits, n, test_group)
        got = ring.reduce(bits_to_int(result.client.T))
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (got == ring.sub(relu, z1)).all()

    def test_no_evaluator_inputs(self, test_group):
        # A circuit whose inputs all belong to the garbler has only
        # garbler-known outputs: nothing to garble, refused before any byte.
        circ = Circuit()
        a = circ.garbler_input(2)
        circ.mark_outputs([circ.and_(a[0], a[1])])
        g_bits = np.array([[1, 1], [1, 0]], dtype=np.uint8)  # two instances
        with pytest.raises(ConfigError):
            _run_gc(circ, g_bits, np.zeros((0, 2), dtype=np.uint8), 2, test_group)

    def test_session_reuse_two_layers(self, test_group, rng):
        ring = Ring(8)
        circ = sign_template(8)
        n = 20
        y = ring.reduce(rng.integers(-100, 100, size=n))
        y1 = ring.sample(rng, n)
        y0 = ring.sub(y, y1)

        def garbler_fn(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=3)
            local = np.random.default_rng(11)
            for _ in range(2):
                run_garbler(chan, circ, int_to_bits(y1, 8).T.copy(), n, sessions, local)

        def evaluator_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=4)
            outs = []
            for _ in range(2):
                outs.append(run_evaluator(chan, circ, int_to_bits(y0, 8).T.copy(), n, sessions))
            return outs

        result = run_protocol(garbler_fn, evaluator_fn)
        expect = (ring.to_signed(y) >= 0).astype(np.uint8)
        for out in result.client:
            assert (out[0] == expect).all()

    def test_evaluator_bit_shape_checked(self, test_group):
        circ = sign_template(8)

        def garbler_fn(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=3)
            run_garbler(
                chan, circ, np.zeros((8, 2), dtype=np.uint8), 2, sessions,
                np.random.default_rng(0),
            )

        def evaluator_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=4)
            return run_evaluator(chan, circ, np.zeros((7, 2), dtype=np.uint8), 2, sessions)

        with pytest.raises(ProtocolError):
            run_protocol(garbler_fn, evaluator_fn, timeout_s=5)

    def test_invalid_role(self, test_group):
        chan, _ = make_channel_pair()
        with pytest.raises(ProtocolError):
            GcSessions(chan, "banana", group=test_group)

    def test_comm_scales_with_and_gates(self, test_group, rng):
        ring = Ring(8)
        n = 10
        y1 = ring.sample(rng, n)
        y0 = ring.sample(rng, n)

        def traffic(circ, g_bits):
            result = _run_gc(circ, g_bits, int_to_bits(y0, 8).T.copy(), n, test_group)
            return result.total_bytes

        small = sign_template(8)  # 7 ANDs
        z1 = ring.sample(rng, n)
        big = relu_template(8)  # 22 ANDs
        small_bytes = traffic(small, int_to_bits(y1, 8).T.copy())
        big_bytes = traffic(
            big, np.concatenate([int_to_bits(y1, 8), int_to_bits(z1, 8)], axis=1).T.copy()
        )
        assert big_bytes > small_bytes

    def test_garbler_frame_carries_garble_tables(self, test_group, rng):
        """The garbler's frame holds exactly the tables ``garble()`` builds
        from the same generator, bits and label-OT FALSE labels."""
        ring, n = Ring(8), 10
        y0, y1, z1 = (ring.sample(rng, n) for _ in range(3))
        received, input_labels = [], []

        def server(ch):
            recv = ch.recv
            ch.recv = lambda: received.append(recv()) or received[-1]
            sessions = GcSessions(ch, "evaluator", group=test_group, seed=1)
            return relu_layer_server(ch, y0, sessions, ring)

        def client(ch):
            sessions = GcSessions(ch, "garbler", group=test_group, seed=2)
            send = sessions.ot.send_xor_correlated
            sessions.ot.send_xor_correlated = lambda *a, **kw: (
                input_labels.append(send(*a, **kw)) or input_labels[-1]
            )
            return relu_layer_client(ch, y1, z1, sessions, ring, np.random.default_rng(7))

        run_protocol(server, client)
        # the garbler's one frame, after the base-OT handshake
        tables = next(m for m in received if isinstance(m, tuple) and len(m) == 4)[0]
        garbler_bits = np.concatenate([int_to_bits(y1, 8), int_to_bits(z1, 8)], axis=1).T
        expected = garble(
            relu_template(8), n, np.random.default_rng(7), garbler_bits,
            input_labels[0].x0.reshape(8, n, 2),
        )
        assert (tables == expected.tables).all()


def _garbler_frame(circ, n_inst, words=LABEL_WORDS):
    """A zero-filled frame with the shapes ``run_garbler`` sends."""
    row_words = 0 if circ.row_wire is None else packed_word_count(2 * n_inst, circ.row_bits)
    return (
        np.zeros((circ.table_rows, n_inst, words), dtype=np.uint64),
        bytes((len(circ.outputs) * n_inst + 7) // 8),
        np.zeros(row_words, dtype=np.uint64),
        np.zeros((len(circ.evaluator_inputs) * n_inst, words), dtype=np.uint64),
    )


class TestMalformedGarblerFrame:
    """The evaluator validates the garbler's one frame: structure,
    table rows, packed decode bits and row table, label corrections."""

    @pytest.mark.parametrize(
        "kind",
        [
            "two-tuple", "bare-array", "instance-count", "label-words", "decode-bytes",
            "row-words", "correction-words", "tables-dtype", "row-dtype",
        ],
    )
    def test_rejected_before_label_ot(self, test_group, kind):
        # A 6-bit ReLU into an 8-bit ring: a 2-row table of 2-bit rows.
        circ, n_inst = relu_template(6, 0, 8), 2
        good = _garbler_frame(circ, n_inst)
        frame = {
            "two-tuple": good[:2],
            "bare-array": np.zeros((3, n_inst), dtype=np.uint64),
            "instance-count": _garbler_frame(circ, n_inst + 1)[:1] + good[1:],
            "label-words": _garbler_frame(circ, n_inst, words=LABEL_WORDS + 1)[:1] + good[1:],
            "decode-bytes": (good[0], good[1] + b"\0", *good[2:]),
            "row-words": (*good[:2], np.zeros(2, dtype=np.uint64), good[3]),
            "correction-words": good[:3] + (good[3][:, :1].copy(),),
            "tables-dtype": (good[0].astype(np.int64), *good[1:]),
            "row-dtype": (*good[:2], good[2].astype(np.int64), good[3]),
        }[kind]

        def garbler_fn(chan):
            # the evaluator's U arrives first; answer it with the bad frame
            sessions = GcSessions(chan, "garbler", group=test_group, seed=3)
            sessions.ot.send_xor_correlated(len(circ.evaluator_inputs) * n_inst, LABEL_WORDS)
            chan.send(frame)

        def evaluator_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=4)
            e_bits = np.zeros((len(circ.evaluator_inputs), n_inst), dtype=np.uint8)
            return run_evaluator(chan, circ, e_bits, n_inst, sessions)

        with pytest.raises(ProtocolError, match="garbled-circuit|correction"):
            run_protocol(garbler_fn, evaluator_fn, timeout_s=10)
