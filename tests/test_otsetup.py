"""One base-OT set-up per channel, derived sessions, single-use seeds.

``repro.crypto.otsetup`` runs the base OTs once per channel endpoint and
direction and hands every KK13/IKNP session a fresh tag and seeds
``H(k_j || tag)`` (docs/PROTOCOLS.md §1).  These tests pin the guard
(a tag is derived at most once, the tag space is bounded), the growth
rule (one handshake for the missing columns only), and — as a recorded
set over whole protocol runs — that every extension session gets a
distinct tag and distinct seeds while each party runs one handshake.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.protocol import ModelMeta, layer_triplet_config, secure_predict
from repro.crypto import baseot
from repro.crypto.codes import code_length
from repro.crypto.group import MODP_1536, MODP_TEST
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.crypto.otsetup import MAX_SESSION_TAG, OtSetup, channel_setup
from repro.errors import CryptoError
from repro.net import run_protocol
from repro.net.channel import make_channel_pair
from repro.nn.model import mnist_mlp, vgg_cifar
from repro.nn.quantize import quantize_model
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme
from repro.serve import ClientSession, ServerSession
from repro.utils.ring import Ring


class TestTags:
    def test_deriving_a_tag_twice_raises(self, test_group):
        def server_fn(chan):
            setup = channel_setup(chan, test_group)
            seeds = setup.sender_seeds(0, 128, np.random.default_rng(1))
            with pytest.raises(CryptoError, match="already derived"):
                setup.sender_seeds(0, 128, np.random.default_rng(1))
            return seeds

        def client_fn(chan):
            setup = channel_setup(chan, test_group)
            got = setup.receiver_seeds(0, 128, np.random.default_rng(2))
            with pytest.raises(CryptoError, match="already derived"):
                setup.receiver_seeds(0, 64, np.random.default_rng(2))
            return got

        result = run_protocol(server_fn, client_fn)
        (seeds0, seeds1), (s, chosen) = result.server, result.client
        assert chosen == [(seeds0, seeds1)[bit][j] for j, bit in enumerate(s)]

    def test_tag_space_is_bounded(self):
        setup = OtSetup(None, MODP_TEST)
        tags = [setup.next_tag() for _ in range(MAX_SESSION_TAG + 1)]
        assert tags == list(range(MAX_SESSION_TAG + 1))
        with pytest.raises(CryptoError, match="exhausted"):
            setup.next_tag()

    def test_one_setup_per_group(self, test_group):
        chan, _ = make_channel_pair()
        assert channel_setup(chan, test_group) is channel_setup(chan, test_group)
        with pytest.raises(CryptoError, match="set-up runs over"):
            channel_setup(chan, MODP_1536)


def _count_handshakes(monkeypatch) -> list:
    """Record ``(party role, count)`` of every base-OT handshake."""
    calls = []
    send, receive = baseot.random_send, baseot.random_receive

    def spy_send(chan, count, *args, **kwargs):
        calls.append(("sender", count))
        return send(chan, count, *args, **kwargs)

    def spy_receive(chan, choices, *args, **kwargs):
        calls.append(("receiver", len(choices)))
        return receive(chan, choices, *args, **kwargs)

    monkeypatch.setattr(baseot, "random_send", spy_send)
    monkeypatch.setattr(baseot, "random_receive", spy_receive)
    return calls


class TestGrowth:
    def test_iknp_reuses_the_kk13_columns(self, test_group, rng, monkeypatch):
        calls = _count_handshakes(monkeypatch)
        m = 70
        kk_choices = rng.integers(0, 4, size=m)
        bits = rng.integers(0, 2, size=m, dtype=np.uint8)
        msgs = rng.integers(0, 1 << 62, size=(m, 2, 1), dtype=np.uint64)

        def server_fn(chan):  # extension receiver twice: base-OT sender
            pads = Kk13Receiver(chan, 4, group=test_group, seed=1).pads(kk_choices, 1)
            got = OtExtReceiver(chan, group=test_group, seed=3).recv_chosen(bits, 1)
            return pads, got

        def client_fn(chan):
            pads = Kk13Sender(chan, 4, group=test_group, seed=2).pads(m, 1)
            OtExtSender(chan, group=test_group, seed=4).send_chosen(msgs)
            return pads

        result = run_protocol(server_fn, client_fn)
        (recv_pads, got), send_pads = result.server, result.client
        assert (recv_pads == send_pads[np.arange(m), kk_choices]).all()
        assert (got == msgs[np.arange(m), bits.astype(int)]).all()
        assert sorted(calls) == [("receiver", code_length(4)), ("sender", code_length(4))]

    def test_kk13_after_iknp_handshakes_only_the_missing_columns(
        self, test_group, rng, monkeypatch
    ):
        calls = _count_handshakes(monkeypatch)
        m = 40
        kk_choices = rng.integers(0, 3, size=m)

        def server_fn(chan):
            OtExtSender(chan, group=test_group, seed=1).send_chosen(
                np.zeros((m, 2, 1), dtype=np.uint64)
            )
            return Kk13Sender(chan, 3, group=test_group, seed=3).pads(m, 1)

        def client_fn(chan):
            OtExtReceiver(chan, group=test_group, seed=2).recv_chosen(
                np.zeros(m, dtype=np.uint8), 1
            )
            return Kk13Receiver(chan, 3, group=test_group, seed=4).pads(kk_choices, 1)

        result = run_protocol(server_fn, client_fn)
        assert (result.client == result.server[np.arange(m), kk_choices]).all()
        missing = code_length(3) - 128
        assert sorted(calls) == [
            ("receiver", missing), ("receiver", 128), ("sender", missing), ("sender", 128)
        ]


# --------------------------------------------------------------------- #
# single use over whole runs (a recorded set)
# --------------------------------------------------------------------- #
def _record_derivations(monkeypatch) -> list:
    """Record ``(setup, tag, seeds)`` of every session derivation."""
    records = []
    lock = threading.Lock()
    receiver_seeds, sender_seeds = OtSetup.receiver_seeds, OtSetup.sender_seeds

    def spy_receiver(self, tag, columns, rng):
        s, seeds = receiver_seeds(self, tag, columns, rng)
        with lock:
            records.append((self, tag, list(seeds)))
        return s, seeds

    def spy_sender(self, tag, columns, rng):
        seeds0, seeds1 = sender_seeds(self, tag, columns, rng)
        with lock:
            records.append((self, tag, seeds0 + seeds1))
        return seeds0, seeds1

    monkeypatch.setattr(OtSetup, "receiver_seeds", spy_receiver)
    monkeypatch.setattr(OtSetup, "sender_seeds", spy_sender)
    return records


def _assert_single_use(records, calls, sessions: int, columns: int) -> None:
    """Two set-ups (one per party), ``sessions`` derivations on each with
    distinct tags and seeds, and one ``columns``-wide handshake each."""
    by_setup: dict = {}
    for setup, tag, seeds in records:
        by_setup.setdefault(id(setup), []).append((tag, seeds))
    assert len(by_setup) == 2
    tag_lists = []
    for derived in by_setup.values():
        tags = [tag for tag, _ in derived]
        seeds = [seed for _, batch in derived for seed in batch]
        assert len(derived) == sessions
        assert len(set(tags)) == len(tags)
        assert len(set(seeds)) == len(seeds)
        tag_lists.append(sorted(tags))
    assert tag_lists[0] == tag_lists[1]  # the parties' sessions line up
    assert sorted(calls) == [("receiver", columns), ("sender", columns)]


def _session_codes(qmodel, batch: int = 1) -> list[int]:
    """The KK13 code length of each offline session, in the order the
    walk runs them: layer by layer, the radix groups of the wire split
    the protocol picks for the layer (N ascending)."""
    meta = ModelMeta.from_model(qmodel)
    return [
        code_length(n_values)
        for idx, layer in enumerate(meta.layers)
        for n_values, _ in layer_triplet_config(meta.layer_ring(idx), layer, batch).radix_groups
    ]


def _c_max(qmodel) -> int:
    """The widest KK13 code length of the model's offline sessions."""
    return max(_session_codes(qmodel))


PREDICT_CASES = {
    # model, input features, KK13 sessions (layers x radix groups) + 1 label OT
    "fig4_mlp": (
        lambda: quantize_model(mnist_mlp(), FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32)),
        784, 3 + 1,
    ),
    "vgg_cifar": (
        lambda: quantize_model(
            vgg_cifar(base=2, side=12), FragmentScheme.from_bits((2, 2)), Ring(32),
            input_shape=(3, 12, 12),
        ),
        3 * 12 * 12, 5 + 1,
    ),
}


class TestSingleUse:
    @pytest.mark.parametrize("name", sorted(PREDICT_CASES))
    def test_secure_predict_sessions_are_distinct(self, name, test_group, monkeypatch):
        build, features, sessions = PREDICT_CASES[name]
        qmodel = build()
        calls = _count_handshakes(monkeypatch)
        records = _record_derivations(monkeypatch)
        x = np.random.default_rng(4).uniform(0, 1, size=(1, features))
        secure_predict(qmodel, x, group=test_group, seed=5)
        _assert_single_use(records, calls, sessions, _c_max(qmodel))

    def test_exec_shards_derive_from_the_parent_setup(self, test_group, monkeypatch):
        from repro.core.triplets import TripletConfig
        from repro.exec import ShardPlan, parallel_triplets_client, parallel_triplets_server

        config = TripletConfig(
            ring=Ring(16), scheme=TABLE2_SCHEMES["8(3,3,2)"], m=6, n=5, o=2,
            group=test_group,
        )
        rng = np.random.default_rng(7)
        w = rng.integers(-128, 128, size=(config.m, config.n))
        r = config.ring.sample(rng, (config.n, config.o))
        calls = _count_handshakes(monkeypatch)
        records = _record_derivations(monkeypatch)
        plan = ShardPlan(shards=3, workers=2, chunk_ots=16)
        result = run_protocol(
            lambda ch: parallel_triplets_server(ch, w, config, plan, seed=1),
            lambda ch: parallel_triplets_client(ch, r, config, plan, seed=2),
        )
        ring = config.ring
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()
        # three shards x two radix groups, one handshake on the parent
        # channel, as wide as the N = 8 group's code
        _assert_single_use(records, calls, 3 * 2, config.code_bits)

    def test_interactive_keep_alive_rounds_derive_not_handshake(
        self, test_group, monkeypatch
    ):
        qmodel = quantize_model(
            mnist_mlp(seed=7, hidden=8, input_dim=16), FragmentScheme.ternary(),
            Ring(32), frac_bits=6,
        )
        calls = _count_handshakes(monkeypatch)
        records = _record_derivations(monkeypatch)
        server_chan, client_chan = make_channel_pair(timeout_s=30.0)
        session = ServerSession(
            server_chan, qmodel, None, session_id=1, group=test_group, seed=5
        )
        thread = threading.Thread(target=session.run, daemon=True)
        thread.start()
        client = ClientSession(
            client_chan, ModelMeta.from_model(qmodel), 1, mode="interactive",
            group=test_group, seed=9,
        )
        xs = np.random.default_rng(6).uniform(0, 1, size=(2, 16))
        for x in xs:
            x_ring = qmodel.encoder.encode(x[:, None])
            assert (client.predict_encoded(x_ring) == qmodel.forward_int(x_ring)).all()
        client.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # two rounds x three layers of KK13, plus the one label-OT session
        _assert_single_use(records, calls, 2 * 3 + 1, _c_max(qmodel))


class TestOneHandshake:
    """Sessions whose code lengths grow (across layers, or across a
    layer's radix groups, which run N ascending) still share one
    handshake: the offline walk reserves ``c_max`` of the splits the
    protocol runs, not of the declared schemes."""

    @pytest.mark.parametrize(
        "build, features",
        [
            # declared 8(3,3,2): the conv layers run binary fragments
            # (128 columns), the o = 1 dense layers (2,2,2,2) (192)
            (
                lambda: quantize_model(
                    vgg_cifar(base=2, side=12), TABLE2_SCHEMES["8(3,3,2)"], Ring(32),
                    input_shape=(3, 12, 12),
                ),
                3 * 12 * 12,
            ),
            # layer 1's 3-bit weights run one N = 8 fragment (256 columns)
            # at l = 18, after layer 0's (2,2) (192)
            (
                lambda: quantize_model(
                    mnist_mlp(),
                    [TABLE2_SCHEMES["4(2,2)"], TABLE2_SCHEMES["3(2,1)"], TABLE2_SCHEMES["4(2,2)"]],
                    Ring(32),
                ),
                784,
            ),
        ],
        ids=["8(3,3,2)", "per-layer"],
    )
    def test_fig4_runs_one_base_ot_span_per_party(self, build, features, test_group):
        from repro.perf.trace import iter_spans

        qmodel = build()
        codes = _session_codes(qmodel)
        assert codes[0] < _c_max(qmodel)  # the code grows after the first session
        x = np.random.default_rng(4).uniform(0, 1, size=(1, features))
        report = secure_predict(qmodel, x, group=test_group, seed=5)
        for trace in (report.server_trace, report.client_trace):
            spans = [span for _, span in iter_spans(trace) if span["name"] == "base-ot"]
            assert [span["attrs"]["columns"] for span in spans] == [_c_max(qmodel)]
