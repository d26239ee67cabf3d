"""What a party's view of a run determines (docs/PROTOCOLS.md §8, §11).

A recording channel keeps every frame one party sends and receives; a
check then asks what that view alone reveals.  Bank mode is
dealer-trusted: the serving process deals the client's offline half,
``input_mask`` included, and then receives ``x - input_mask`` as the
first online message, so the server can unmask the client's input.
The test below pins that leak exactly; splitting the dealer into its own
role is what turns it around.  Chi-squared tests then check that what a
party sees at a narrowed width is uniform: the narrowed ReLU's
output-table word (the one value the evaluator opens outside the
circuit), the input frame ``x - r`` packed at layer 0's ring width, a
multi-batch triplet message frame, and the server's triplet openings.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.offline import ClientHalf
from repro.core.protocol import ModelMeta
from repro.core.relu import relu_layer_client, relu_layer_server
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.gc.protocol import GcSessions
from repro.net import run_protocol
from repro.net.channel import make_channel_pair
from repro.nn.model import mnist_mlp
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.serve import ClientSession, ServerSession, TripletBank
from repro.utils.bits import packed_word_count, unpack_ring_words
from repro.utils.ring import Ring

#: chi-squared critical value, 63 degrees of freedom, alpha = 0.001
CHI2_CRIT_63 = 103.442


def _chi2_uniform(values: np.ndarray, bins: int) -> float:
    counts = np.bincount(values.astype(np.int64), minlength=bins)
    assert counts.size == bins
    expected = values.size / bins
    return float(((counts - expected) ** 2 / expected).sum())


class _RecordingChannel:
    """Channel wrapper that keeps every frame its party sends and receives."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.sent: list = []
        self.received: list = []

    @property
    def tracer(self):
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._inner.tracer = value

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def send(self, obj) -> None:
        self.sent.append(obj)
        self._inner.send(obj)

    def recv(self):
        obj = self._inner.recv()
        self.received.append(obj)
        return obj

    def exchange(self, obj):
        self.send(obj)
        return self.recv()


class TestBankModeView:
    def test_server_view_reconstructs_client_input(self, test_group):
        """The dealt ``input_mask`` plus the first online message is ``x``."""
        qmodel = quantize_model(
            mnist_mlp(seed=7, hidden=4, input_dim=16),
            FragmentScheme.ternary(), Ring(32), frac_bits=6,
        )
        ring = qmodel.ring
        x_ring = qmodel.encoder.encode(
            np.random.default_rng(3).normal(scale=0.25, size=(2, 16)).T
        )
        bank = TripletBank(
            qmodel, 2, group=test_group, seed=11, auto_replenish=False
        )
        bank.fill(1)
        server_chan, client_chan = make_channel_pair(timeout_s=30.0)
        view = _RecordingChannel(server_chan)
        box = {}

        def _serve():
            session = ServerSession(
                view, qmodel, bank, session_id=1, group=test_group
            )
            box["result"] = session.run()

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        client = ClientSession(
            client_chan, ModelMeta.from_model(qmodel), 2, group=test_group, seed=9
        )
        logits = client.predict_encoded(x_ring)
        client.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert box["result"].predictions == 1
        assert (logits == qmodel.forward_int(x_ring)).all()

        dealt = [m for m in view.sent if isinstance(m, tuple)]
        assert len(dealt) == 1  # the client half of the one banked round
        input_mask = ClientHalf.decode(dealt[0]).input_mask
        # Control frames arrive as bytes; the first array is <x>_0, packed
        # at layer 0's ring width.
        ring0 = ModelMeta.from_model(qmodel).layer_ring(0)
        first_online = next(m for m in view.received if isinstance(m, np.ndarray))
        share0 = unpack_ring_words(first_online[None, :], ring0.bits, x_ring.size)
        recovered = ring0.add(share0.reshape(x_ring.shape), ring0.reduce(input_mask))
        assert (ring0.to_signed(recovered) == ring.to_signed(x_ring)).all()


class TestReluRowTableUniform:
    """ROADMAP 10(b) for the narrowed ReLU: the high output word the
    evaluator opens from the 2-row table, ``-z1_high - borrow``, is
    uniform whatever the input, under a fixed-seed chi-squared test.

    ``Ring(10)``, public width ``m = 6`` and shift ``f = 2`` leave
    ``k = 4`` circuit output bits, so the table word has ``10 - 4 = 6``
    bits: 64 bins, 2048 ReLU instances (independent circuit runs) per
    input value, 32 expected per bin.
    """

    BITS, WIDTH, SHIFT = 10, 6, 2
    N_INST = 2048
    CHI2_CRIT = CHI2_CRIT_63

    def _opened_words(self, variant, y_value, test_group):
        ring = Ring(self.BITS)
        rng = np.random.default_rng(1000 + y_value)
        y = ring.reduce(np.full(self.N_INST, y_value, dtype=np.int64))
        y1 = ring.sample(rng, y.shape)
        z1 = ring.sample(rng, y.shape)

        def server_fn(chan):
            sessions = GcSessions(chan, "evaluator", group=test_group, seed=1)
            return relu_layer_server(
                chan, ring.sub(y, y1), sessions, ring, variant, self.WIDTH, self.SHIFT
            )

        def client_fn(chan):
            sessions = GcSessions(chan, "garbler", group=test_group, seed=2)
            return relu_layer_client(
                chan, y1, z1, sessions, ring, np.random.default_rng(9), variant,
                self.WIDTH, self.SHIFT,
            )

        z0 = run_protocol(server_fn, client_fn).server
        k = self.WIDTH - self.SHIFT
        relu = max(y_value >> self.SHIFT, 0)
        borrow = (z1 & np.uint64((1 << k) - 1)) > np.uint64(relu)
        high_ring = Ring(self.BITS - k)
        expected = high_ring.sub(high_ring.neg(z1 >> np.uint64(k)), borrow.astype(np.uint64))
        opened = z0 >> np.uint64(k)
        assert (opened == expected).all()
        return opened

    @pytest.mark.parametrize(
        "variant,y_value",
        [("oblivious", 21), ("oblivious", 3), ("oblivious", -21), ("optimized", 21), ("optimized", 3)],
    )
    def test_opened_row_word_is_uniform(self, variant, y_value, test_group):
        # The optimized variant's table serves positive neurons only;
        # negative ones get -z1 outright.
        opened = self._opened_words(variant, y_value, test_group)
        bins = 1 << (self.BITS - self.WIDTH + self.SHIFT)
        counts = np.bincount(opened.astype(np.int64), minlength=bins)
        expected = self.N_INST / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < self.CHI2_CRIT, (variant, y_value, chi2)


class TestGcFrameIndependentOfGarblerBits:
    """ROADMAP 10(b) for the GC frame: the garbler's bits are folded into
    the garbling, so what the evaluator receives — the garbled tables,
    the label-OT corrections and the sealed rows of the 2-row table —
    is uniform whatever they are.

    Two garbler inputs ``(y1, z1)`` against the same ``y0``, each held
    fixed over 2048 ReLU instances (independent circuit runs) of
    ``Ring(10)``, ``m = 6``, ``f = 2``: every word position of the frame
    gets a fixed-seed chi-squared test on its low 6 bits (64 bins, 32
    expected per bin), at alpha = 0.001 split over the 128 positions
    tested per input.  A garbler bit sent in the clear makes its
    position constant across instances; a garbling that skips the fold
    of the garbler's bits gets the output wrong.
    """

    BITS, WIDTH, SHIFT = 10, 6, 2
    N_INST = 2048
    #: chi-squared critical value, 63 degrees of freedom, alpha = 0.001 / 128
    CHI2_CRIT = 123.678
    Y0 = 1000

    def _view(self, y1_value, z1_value, test_group):
        ring = Ring(self.BITS)
        y0 = ring.reduce(np.full(self.N_INST, self.Y0, dtype=np.int64))
        y1 = ring.reduce(np.full(self.N_INST, y1_value, dtype=np.int64))
        z1 = ring.reduce(np.full(self.N_INST, z1_value, dtype=np.int64))
        server_chan, client_chan = make_channel_pair(timeout_s=60.0)
        view = _RecordingChannel(server_chan)
        result = run_protocol(
            lambda ch: relu_layer_server(
                ch, y0, GcSessions(ch, "evaluator", group=test_group, seed=1), ring,
                "oblivious", self.WIDTH, self.SHIFT,
            ),
            lambda ch: relu_layer_client(
                ch, y1, z1, GcSessions(ch, "garbler", group=test_group, seed=2), ring,
                np.random.default_rng(9), "oblivious", self.WIDTH, self.SHIFT,
            ),
            channels=(view, client_chan),
        )
        y = int(ring.to_signed(ring.add(y0[:1], y1[:1]))[0])
        assert -(1 << (self.WIDTH - 1)) < y < 1 << (self.WIDTH - 1)
        relu = ring.reduce(np.full(self.N_INST, max(y >> self.SHIFT, 0), dtype=np.int64))
        assert (ring.add(result.server, z1) == relu).all()
        frames = [m for m in view.received if isinstance(m, tuple) and len(m) == 4]
        assert len(frames) == 1
        return frames[0]

    @pytest.mark.parametrize("y1_value,z1_value", [(45, 0), (20, 1023)])
    def test_frame_words_uniform(self, y1_value, z1_value, test_group):
        tables, decode_bits, rows, corrections = self._view(y1_value, z1_value, test_group)
        n, k = self.N_INST, self.WIDTH - self.SHIFT
        assert len(decode_bits) == k * n // 8
        high = self.BITS - k
        sealed = unpack_ring_words(rows[None, :], high, 2 * n).reshape(n, 2)
        columns = [
            *(tables[r, :, w] for r in range(tables.shape[0]) for w in range(2)),
            *(c for c in corrections.reshape(self.WIDTH, n, 2).transpose(0, 2, 1).reshape(-1, n)),
            sealed[:, 0], sealed[:, 1],
        ]
        assert len(columns) <= 128
        worst = max(_chi2_uniform(col & np.uint64(63), 64) for col in columns)
        assert worst < self.CHI2_CRIT, (y1_value, z1_value, worst)


class TestNarrowRingFramesUniform:
    """ROADMAP 10(b) for the per-layer rings: frames packed at a narrow
    ring's width are uniform over that ring whatever the secret, under
    fixed-seed chi-squared tests with 64 bins (a 6-bit ring)."""

    def test_input_frame_uniform_in_layer0_ring(self, test_group):
        """``x - r`` for one fixed input over 16 served predictions: layer
        0's ring is 6 bits, 8 features x batch 16 = 2048 elements."""
        qmodel = quantize_model(
            mnist_mlp(seed=7, hidden=4, input_dim=8, classes=3),
            FragmentScheme.ternary(), Ring(32), frac_bits=2,
        )
        meta = ModelMeta.from_model(qmodel)
        ring0 = meta.layer_ring(0)
        assert ring0.bits == 6
        batch, predictions = 16, 16
        x_ring = qmodel.encoder.encode(np.full((8, batch), 0.75))
        bank = TripletBank(
            qmodel, batch, capacity=predictions, generator="dealer",
            auto_replenish=False, group=test_group, seed=11,
        )
        bank.fill(predictions)
        server_chan, client_chan = make_channel_pair(timeout_s=60.0)
        view = _RecordingChannel(client_chan)
        thread = threading.Thread(
            target=ServerSession(server_chan, qmodel, bank, session_id=1, group=test_group).run,
            daemon=True,
        )
        thread.start()
        client = ClientSession(view, meta, batch, group=test_group, seed=9)
        for _ in range(predictions):
            assert (client.predict_encoded(x_ring) == qmodel.forward_int(x_ring)).all()
        client.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # The oblivious client's only 1-D uint64 frames are its input shares.
        words = packed_word_count(x_ring.size, ring0.bits)
        frames = [
            m for m in view.sent
            if isinstance(m, np.ndarray) and m.dtype == np.uint64 and m.ndim == 1
        ]
        assert [m.shape for m in frames] == [(words,)] * predictions
        values = np.concatenate(
            [unpack_ring_words(m[None, :], ring0.bits, x_ring.size)[0] for m in frames]
        )
        assert _chi2_uniform(values, 1 << ring0.bits) < CHI2_CRIT_63

    def test_multi_batch_triplet_frame_uniform(self, test_group):
        """The client's packed message frame in ``Ring(6)`` at o = 4, for an
        all-ones ``W`` and a fixed ``R``: 8 x 16 weights x 2 fragments x
        N - 1 = 3 messages x 4 elements = 3072 elements."""
        ring = Ring(6)
        scheme = FragmentScheme.from_bits((2, 2))
        config = TripletConfig(ring=ring, scheme=scheme, m=8, n=16, o=4, group=test_group)
        w = np.ones(config.w_shape, dtype=np.int64)
        r = ring.reduce(np.arange(16 * 4).reshape(16, 4))
        server_chan, client_chan = make_channel_pair(timeout_s=60.0)
        view = _RecordingChannel(client_chan)
        result = run_protocol(
            lambda ch: generate_triplets_server(ch, w, config, seed=1),
            lambda ch: generate_triplets_client(ch, r, config, np.random.default_rng(2), seed=3),
            channels=(server_chan, view),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()
        count = config.total_ots * 3 * config.o
        frames = [m for m in view.sent if isinstance(m, np.ndarray) and m.dtype == np.uint64]
        assert [m.shape for m in frames] == [(packed_word_count(count, ring.bits),)]
        values = unpack_ring_words(frames[0][None, :], ring.bits, count)[0]
        assert _chi2_uniform(values, 1 << ring.bits) < CHI2_CRIT_63

    def test_server_openings_uniform_whatever_r(self, test_group, monkeypatch):
        """What the server opens per OT at o = 4 in ``Ring(6)``: ``-pad 0``
        for digit 0, ``vt[t] R[j] - s`` otherwise.  For one fixed ``W`` and
        two different ``R``, each kind is uniform: 16 x 32 weights x 2
        fragments = 1024 OTs, about a quarter of them digit 0."""
        import repro.core.triplets as triplets_mod

        ring = Ring(6)
        scheme = FragmentScheme.from_bits((2, 2))
        config = TripletConfig(ring=ring, scheme=scheme, m=16, n=32, o=4, group=test_group)
        w = np.random.default_rng(5).integers(-8, 8, size=config.w_shape)
        digits = scheme.digits(w)
        choices = np.concatenate(
            [digits[:, :, ks].reshape(-1) for _, ks in config.radix_groups]
        )
        role = threading.local()
        opened = []
        add_rows = triplets_mod._add_rows

        def recording(acc, values, start, cfg, k_count):
            if getattr(role, "server", False):
                opened.append(values.copy())
            add_rows(acc, values, start, cfg, k_count)

        monkeypatch.setattr(triplets_mod, "_add_rows", recording)

        def server(chan):
            role.server = True
            return generate_triplets_server(chan, w, config, seed=1)

        for r_seed in (7, 8):
            r = ring.sample(np.random.default_rng(r_seed), config.r_shape)
            opened.clear()
            result = run_protocol(
                server, lambda ch: generate_triplets_client(ch, r, config, seed=3)
            )
            assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()
            values = np.concatenate(opened)
            assert values.shape == (config.total_ots, config.o)
            zero = choices == 0
            assert 0 < zero.sum() < config.total_ots
            for kind in (zero, ~zero):
                assert _chi2_uniform(values[kind].reshape(-1), 1 << ring.bits) < CHI2_CRIT_63
