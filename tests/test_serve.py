"""Serving subsystem: triplet bank, persistence, sessions, concurrency.

The acceptance scenario from the serving design: a server banked with
``offline rounds=K`` serves exactly K predictions across sequential
*reconnecting* clients and concurrent clients without a restart, denies
the K+1st with a clean typed error, exports one isolated trace per
session, and — restarted against a persisted bank — serves predictions
with zero triplet-generation traffic.

Set ``ABNN2_SERVE_SOAK=1`` to also run the multi-client soak (CI does).
"""

import json
import os
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.offline import ClientHalf
from repro.core.protocol import ModelMeta
from repro.errors import ChannelError, ConfigError, ProtocolError
from repro.net import tcp
from repro.net.channel import make_channel_pair
from repro.nn.model import mnist_mlp
from repro.nn.quantize import quantize_model
from repro.perf.trace import Tracer, iter_spans, load_trace
from repro.quant.fixed_point import FixedPointEncoder
from repro.quant.fragments import FragmentScheme
from repro.serve import (
    ClientSession,
    PredictionClient,
    PredictionServer,
    ServerSession,
    TripletBank,
    load_bank,
    model_fingerprint,
    save_bank,
)
from repro.serve.session import MAX_CTRL_BYTES, recv_ctrl
from repro.utils.ring import Ring

#: Thread-name prefixes owned by the serving stack; none may outlive it.
_SERVE_THREADS = ("abnn2-session-", "abnn2-serve-accept", "abnn2-bank-replenisher", "abnn2-server")


def _assert_no_leaked_serve_threads():
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [
            t for t in threading.enumerate()
            if any(t.name.startswith(p) for p in _SERVE_THREADS)
        ]
        if not leaked:
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked serving threads: {leaked}")


@pytest.fixture(scope="module")
def qmodel():
    """Tiny untrained ternary QNN: exact logits, fast triplet generation."""
    model = mnist_mlp(seed=7, hidden=4, input_dim=16)
    return quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)


@pytest.fixture(scope="module")
def meta(qmodel):
    return ModelMeta.from_model(qmodel)


@pytest.fixture(scope="module")
def x2(qmodel):
    return np.random.default_rng(0).normal(scale=0.25, size=(2, 16))


def _bank(qmodel, test_group, *, rounds=0, batch=2, **kwargs):
    kwargs.setdefault("auto_replenish", False)
    kwargs.setdefault("seed", 11)
    bank = TripletBank(qmodel, batch, group=test_group, **kwargs)
    if rounds:
        bank.fill(rounds)
    return bank


def _serve_in_memory(bank, qmodel, test_group, **session_kwargs):
    """Run a ServerSession on a thread; returns (client_chan, result_box, thread)."""
    server_chan, client_chan = make_channel_pair(timeout_s=30.0)
    box = {}

    session_id = session_kwargs.pop("session_id", 7)

    def _run():
        session = ServerSession(
            server_chan, qmodel, bank, session_id=session_id,
            group=test_group, **session_kwargs,
        )
        try:
            box["result"] = session.run()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            box["exc"] = exc

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return client_chan, box, thread


class TestBank:
    def test_fill_take_single_use(self, qmodel, test_group):
        bank = _bank(qmodel, test_group, rounds=3)
        assert bank.depth == 3
        taken = [bank.take() for _ in range(3)]
        assert sorted(r.round_id for r in taken) == [0, 1, 2]
        assert bank.depth == 0
        with pytest.raises(ProtocolError, match="offline material exhausted"):
            bank.take()
        m = bank.metrics()
        assert m["rounds_generated"] == 3
        assert m["rounds_served"] == 3
        assert m["exhausted_errors"] == 1
        assert m["generator"] == "dealer"

    def test_take_blocks_until_fill(self, qmodel, test_group):
        bank = _bank(qmodel, test_group)
        threading.Timer(0.2, lambda: bank.fill(1)).start()
        start = time.monotonic()
        rnd = bank.take(timeout_s=20.0)
        assert rnd.round_id == 0
        assert time.monotonic() - start >= 0.15
        assert bank.metrics()["take_waits"] == 1
        assert bank.metrics()["replenish_lag_s"] > 0

    def test_take_timeout_is_clean(self, qmodel, test_group):
        bank = _bank(qmodel, test_group)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="offline material exhausted"):
            bank.take(timeout_s=0.3)
        assert time.monotonic() - start < 5.0

    def test_replenisher_refills_to_capacity(self, qmodel, test_group):
        bank = TripletBank(
            qmodel, 2, capacity=2, auto_replenish=True, replenish_chunk=1,
            group=test_group, seed=5,
        )
        with bank:
            deadline = time.monotonic() + 30.0
            while bank.depth < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert bank.depth == 2
            bank.take()
            bank.take()
            # Draining below low water wakes the replenisher again.
            rnd = bank.take(timeout_s=30.0)
            assert rnd is not None
        _assert_no_leaked_serve_threads()

    def test_stop_fails_blocked_takers(self, qmodel, test_group):
        bank = _bank(qmodel, test_group)
        box = {}

        def _taker():
            try:
                bank.take(timeout_s=30.0)
            except ProtocolError as exc:
                box["exc"] = exc

        thread = threading.Thread(target=_taker, daemon=True)
        thread.start()
        time.sleep(0.1)
        bank.stop()
        thread.join(timeout=5)
        assert "stopped" in str(box["exc"])
        with pytest.raises(ProtocolError, match="stopped"):
            bank.take()

    def test_generations_use_distinct_masks(self, qmodel, test_group):
        """A deterministic seed must still never repeat masks across
        generations — reuse would leak input differences."""
        bank = _bank(qmodel, test_group)
        bank.fill(1)
        bank.fill(1)
        first, second = bank.take(), bank.take()
        assert (first.client.input_mask != second.client.input_mask).any()

    def test_take_single_use_order_and_exhaustion(self, qmodel, test_group):
        """take() hands rounds out once each in banking order and raises
        the standard typed exhaustion error only when empty."""
        bank = _bank(qmodel, test_group, rounds=3)
        assert [bank.take().round_id for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ProtocolError, match="offline material exhausted"):
            bank.take()
        metrics = bank.metrics()
        assert metrics["rounds_served"] == 3
        assert metrics["exhausted_errors"] == 1

    def test_replenisher_failures_are_counted_and_retried(self, qmodel, test_group):
        """A failing generator must not be silent: the replenisher keeps
        retrying, and metrics() says how often it failed and why."""
        bank = TripletBank(
            qmodel, 2, capacity=2, auto_replenish=True, replenish_chunk=2,
            group=test_group, seed=5,
        )
        assert bank.metrics()["replenish_errors"] == 0
        assert bank.metrics()["last_replenish_error"] is None
        real_generate = bank._generate
        calls = []

        def flaky_generate(rounds):
            calls.append(rounds)
            if len(calls) <= 2:
                raise RuntimeError(f"dealer down #{len(calls)}")
            return real_generate(rounds)

        bank._generate = flaky_generate
        with bank:
            deadline = time.monotonic() + 30.0
            while bank.depth < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert bank.depth == 2
        metrics = bank.metrics()
        assert metrics["replenish_errors"] == 2
        assert metrics["last_replenish_error"] == "RuntimeError: dealer down #2"
        assert metrics["rounds_generated"] == 2
        _assert_no_leaked_serve_threads()

    def test_replenisher_exact_counts_when_fill_races_threshold(
        self, qmodel, test_group
    ):
        """A generation already in flight must be discounted from the
        replenisher's deficit: a take/fill racing the low-water threshold
        used to be covered twice, overshooting capacity."""
        bank = TripletBank(
            qmodel, 2, capacity=2, low_water=2, auto_replenish=True,
            replenish_chunk=2, group=test_group, seed=5,
        )
        gate = threading.Event()
        calls = []
        real_generate = bank._generate

        def gated_generate(rounds):
            calls.append(rounds)
            assert gate.wait(timeout=30.0)
            return real_generate(rounds)

        bank._generate = gated_generate
        filler = threading.Thread(target=lambda: bank.fill(2), daemon=True)
        filler.start()
        deadline = time.monotonic() + 5.0
        while not calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert calls == [2]  # fill() claimed its rounds and parked
        with bank:  # replenisher starts while fill's chunk is in flight
            # Let it observe the empty-but-covered bank a few poll ticks:
            # deficit = capacity - depth - inflight = 2 - 0 - 2 = 0.
            time.sleep(0.6)
            assert calls == [2], "replenisher re-covered an in-flight deficit"
            gate.set()
            filler.join(timeout=30.0)
            assert bank.depth == 2
            # Draining below low water still wakes it for the *real* gap.
            bank.take()
            deadline = time.monotonic() + 30.0
            while bank.depth < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert bank.depth == 2
        assert sum(calls) == 3
        assert bank.metrics()["rounds_generated"] == 3
        _assert_no_leaked_serve_threads()

    def test_invalid_config_rejected(self, qmodel, test_group):
        with pytest.raises(ConfigError):
            TripletBank(qmodel, 0, group=test_group)
        with pytest.raises(ConfigError):
            TripletBank(qmodel, 1, capacity=0, group=test_group)
        with pytest.raises(ConfigError):
            _bank(qmodel, test_group).fill(0)
        with pytest.raises(ConfigError, match="dealer"):
            TripletBank(qmodel, 1, generator="selfplay", group=test_group)


class TestBankPersistence:
    def test_roundtrip_restores_material_exactly(self, qmodel, test_group, tmp_path):
        bank = _bank(qmodel, test_group, rounds=2)
        path = tmp_path / "bank.npz"
        assert bank.save(path) == 2
        reloaded = _bank(qmodel, test_group)
        assert reloaded.load(path) == 2
        m = reloaded.metrics()
        # The whole point of persistence: a restart performs *zero*
        # triplet generation.
        assert m["rounds_generated"] == 0
        assert m["rounds_loaded"] == 2
        a, b = bank.take(), reloaded.take()
        for u_orig, u_loaded in zip(a.server.u, b.server.u):
            assert (u_orig == u_loaded).all()
        assert (a.client.input_mask == b.client.input_mask).all()
        for v_orig, v_loaded in zip(a.client.v, b.client.v):
            assert (v_orig == v_loaded).all()

    def test_restart_never_redeals_a_mask(self, qmodel, test_group, tmp_path):
        """A seeded bank resumes its generation index from the bundle: a
        restarted process deals no input mask the first one dealt, served
        or saved (reuse would leak input differences)."""
        path = tmp_path / "bank.npz"
        first = _bank(qmodel, test_group, seed=7)
        first.fill(3)
        dealt = [first.take()]
        first.save(path)
        second = _bank(qmodel, test_group, seed=7)
        assert second.load(path) == 2
        second.fill(2)
        dealt += [second.take() for _ in range(4)]
        masks = {rnd.client.input_mask.tobytes() for rnd in dealt}
        assert len(masks) == 5

    def test_fingerprint_pins_exact_model(self, qmodel, test_group, tmp_path):
        path = tmp_path / "bank.npz"
        _bank(qmodel, test_group, rounds=1).save(path)
        other = quantize_model(
            mnist_mlp(seed=8, hidden=4, input_dim=16),
            FragmentScheme.ternary(), Ring(32), frac_bits=6,
        )
        assert model_fingerprint(other) != model_fingerprint(qmodel)
        with pytest.raises(ConfigError, match="fingerprint"):
            _bank(other, test_group).load(path)

    def test_batch_mismatch_refused(self, qmodel, test_group, tmp_path):
        path = tmp_path / "bank.npz"
        _bank(qmodel, test_group, rounds=1).save(path)
        with pytest.raises(ConfigError, match="batch"):
            _bank(qmodel, test_group, batch=3).load(path)

    def test_format_version_checked(self, qmodel, test_group, tmp_path):
        path = tmp_path / "bank.npz"
        fp = model_fingerprint(qmodel)
        save_bank(path, fingerprint=fp, batch=2, rounds=[])
        with np.load(path) as bundle:
            manifest = json.loads(bytes(bundle["manifest"]).decode())
        manifest["format_version"] = 999
        arrays = {"manifest": np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ConfigError, match="format"):
            load_bank(path, fingerprint=fp, batch=2)

    @staticmethod
    def _rewrite(path, edit):
        """Apply ``edit(manifest, arrays)`` to a saved bundle in place."""
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        edit(manifest, arrays)
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @pytest.mark.parametrize(
        "case",
        ["more_rounds", "extra_round_header", "missing_key", "not_npz", "version_1",
         "version_2", "version_3"],
    )
    def test_malformed_bundle_names_the_path(self, qmodel, test_group, tmp_path, case):
        """Every malformed bundle fails as one typed ConfigError naming
        the file, never as a raw IndexError/KeyError/ValueError."""
        path = tmp_path / "bank.npz"
        _bank(qmodel, test_group, rounds=2).save(path)
        if case == "more_rounds":
            self._rewrite(path, lambda m, a: m.update(n_rounds=m["n_rounds"] + 1))
        elif case == "extra_round_header":
            self._rewrite(path, lambda m, a: m["rounds"].append(m["rounds"][0]))
        elif case == "missing_key":
            self._rewrite(path, lambda m, a: a.pop("r1_client2"))
        elif case == "not_npz":
            path.write_bytes(b"this is not a bank bundle")
        else:
            old = int(case[-1])
            self._rewrite(path, lambda m, a: m.update(format_version=old))
        with pytest.raises(ConfigError, match=re.escape(str(path))) as info:
            _bank(qmodel, test_group).load(path)
        if case.startswith("version_"):
            assert f"bank format {case[-1]}, this build reads 4; regenerate the bank" in str(
                info.value
            )


class TestRoundCodec:
    """The client half's wire codec: structural checks before any online
    byte, so a malformed dealt frame fails typed."""

    @pytest.fixture
    def frame(self, qmodel, test_group):
        return _bank(qmodel, test_group, rounds=1).take().client.encode()

    def test_encode_decode_roundtrip(self, qmodel, test_group):
        rnd = _bank(qmodel, test_group, rounds=1).take()
        decoded = ClientHalf.decode(rnd.client.encode())
        assert (decoded.input_mask == rnd.client.input_mask).all()
        for a, b in zip(decoded.v, rnd.client.v):
            assert (a == b).all()
        for a, b in zip(decoded.relu, rnd.client.relu):
            assert (a == b).all()

    def test_malformed_messages_rejected(self):
        with pytest.raises(ProtocolError):
            ClientHalf.decode(b"not a tuple")
        with pytest.raises(ProtocolError):
            ClientHalf.decode((b"not json", np.zeros((1, 1), dtype=np.uint64)))
        with pytest.raises(ProtocolError):
            ClientHalf.decode(
                (json.dumps({"n_layers": 2}).encode(),)
            )

    def test_wrong_part_count_rejected(self, frame):
        with pytest.raises(ProtocolError, match="expected"):
            ClientHalf.decode(frame[:-1])
        with pytest.raises(ProtocolError, match="expected"):
            ClientHalf.decode(frame + (frame[-1],))

    def test_non_array_part_rejected(self, frame):
        with pytest.raises(ProtocolError, match="2-D uint64"):
            ClientHalf.decode(frame[:-1] + (b"junk",))

    @pytest.mark.parametrize("index", [1, 2, -1])  # the input mask, a V, a ReLU share
    def test_non_uint64_or_non_2d_rejected(self, frame, index):
        part = frame[index]
        for bad in (part.astype(np.int64), part.reshape(-1), part[None]):
            tampered = list(frame)
            tampered[index] = bad
            with pytest.raises(ProtocolError, match="2-D uint64"):
                ClientHalf.decode(tuple(tampered))

    def test_block_counts_must_match_parts(self, frame):
        header = json.loads(frame[0])
        rest = [0] * (header["n_layers"] - 1)
        for blocks in ([2, *rest], [0, 0, *rest], [-1, *rest], [0.5, *rest], "2"):
            tampered = dict(header, blocks=blocks)
            with pytest.raises(ProtocolError):
                ClientHalf.decode((json.dumps(tampered).encode(),) + frame[1:])
        # A blocked share whose blocks disagree on the row count.
        mask, v0 = frame[1], frame[2]
        tampered = dict(header, blocks=[2, *rest])
        bad_blocks = (v0, np.zeros((v0.shape[0] + 1, 1), dtype=np.uint64))
        with pytest.raises(ProtocolError, match="blocked share"):
            ClientHalf.decode(
                (json.dumps(tampered).encode(), mask, *bad_blocks) + frame[3:]
            )


class TestControlPlaneHardening:
    @pytest.mark.parametrize("extra", [1, 17, 65536])
    def test_oversized_ctrl_frame_rejected(self, extra):
        """recv_ctrl caps the frame before json.loads ever runs."""
        server_chan, client_chan = make_channel_pair(timeout_s=5.0)
        client_chan.send(b"x" * (MAX_CTRL_BYTES + extra))
        with pytest.raises(ProtocolError, match="cap"):
            recv_ctrl(server_chan)

    def test_fuzzed_ctrl_frames_fail_typed(self):
        """Fuzz-style sweep: random sizes straddling the cap either parse,
        fail as malformed JSON, or fail the cap — always ProtocolError,
        never an unbounded parse of attacker-sized input."""
        rng = np.random.default_rng(0xC7A1)
        for _ in range(20):
            size = int(rng.integers(1, 4 * MAX_CTRL_BYTES))
            payload = bytes(rng.integers(32, 127, size=size, dtype=np.uint8))
            server_chan, client_chan = make_channel_pair(timeout_s=5.0)
            client_chan.send(payload)
            if size > MAX_CTRL_BYTES:
                with pytest.raises(ProtocolError, match="cap"):
                    recv_ctrl(server_chan)
            else:
                try:
                    recv_ctrl(server_chan)
                except ProtocolError:
                    pass  # malformed JSON fails typed; that's the contract

    def test_oversized_hello_fails_session_typed(self, qmodel, test_group):
        bank = _bank(qmodel, test_group)
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group)
        client_chan.send(
            json.dumps({"op": "hello", "pad": "x" * (2 * MAX_CTRL_BYTES)}).encode()
        )
        thread.join(timeout=10)
        assert isinstance(box.get("exc"), ProtocolError)
        assert "cap" in str(box["exc"])


class TestSessionsInMemory:
    def test_keep_alive_serves_multiple_exact_rounds(
        self, qmodel, meta, x2, test_group
    ):
        bank = _bank(qmodel, test_group, rounds=3)
        enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group)
        session = ClientSession(client_chan, meta, 2, group=test_group, seed=9)
        first = session.predict_encoded(enc.encode(x2.T))
        second = session.predict_encoded(enc.encode(x2.T))
        session.close()
        thread.join(timeout=10)
        expect = qmodel.forward_int(qmodel.encoder.encode(x2.T))
        assert (first == expect).all() and (second == expect).all()
        assert box["result"].predictions == 2
        assert session.round_ids == [0, 1]  # no triplet reuse

    def test_malformed_deal_frame_fails_typed(
        self, qmodel, meta, x2, test_group, monkeypatch
    ):
        """A bank-mode deal frame swapped for junk fails the client's round
        with ProtocolError before it sends a byte of the online phase."""
        bank = _bank(qmodel, test_group, rounds=1)
        enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group)
        session = ClientSession(client_chan, meta, 2, group=test_group, seed=9)
        recv = client_chan.recv

        def swap_deal(*args, **kwargs):
            frame = recv(*args, **kwargs)
            return b"abc" if isinstance(frame, tuple) else frame

        monkeypatch.setattr(client_chan, "recv", swap_deal)
        sent = client_chan.stats.messages_sent[1]
        with pytest.raises(ProtocolError, match="offline-material frame"):
            session.predict_encoded(enc.encode(x2.T))
        assert client_chan.stats.messages_sent[1] == sent + 1  # the round request only
        client_chan.close()
        thread.join(timeout=10)

    def test_batch_mismatch_denied_at_hello(self, qmodel, meta, test_group):
        bank = _bank(qmodel, test_group, rounds=1)
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group)
        with pytest.raises(ProtocolError, match="batch"):
            ClientSession(client_chan, meta, 3, group=test_group)
        thread.join(timeout=10)
        assert box["result"].error is not None

    def test_exhaustion_denies_cleanly_then_recovers(
        self, qmodel, meta, x2, test_group
    ):
        """An exhausted bank denies the round *before* protocol bytes flow;
        after a refill the same session predicts — no stream desync."""
        bank = _bank(qmodel, test_group, rounds=1)
        enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group)
        session = ClientSession(client_chan, meta, 2, group=test_group, seed=9)
        session.predict_encoded(enc.encode(x2.T))
        with pytest.raises(ProtocolError, match="offline material exhausted"):
            session.predict_encoded(enc.encode(x2.T))
        bank.fill(1)
        logits = session.predict_encoded(enc.encode(x2.T))
        session.close()
        thread.join(timeout=10)
        assert (logits == qmodel.forward_int(qmodel.encoder.encode(x2.T))).all()
        assert box["result"].predictions == 2

    def test_interactive_mode_needs_no_bank(self, qmodel, meta, x2, test_group):
        bank = _bank(qmodel, test_group)  # empty on purpose
        enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group, seed=3)
        session = ClientSession(
            client_chan, meta, 2, mode="interactive", group=test_group, seed=9
        )
        logits = session.predict_encoded(enc.encode(x2.T))
        session.close()
        thread.join(timeout=30)
        assert (logits == qmodel.forward_int(qmodel.encoder.encode(x2.T))).all()
        assert box["result"].mode == "interactive"

    def test_interactive_mode_can_be_disabled(self, qmodel, meta, test_group):
        bank = _bank(qmodel, test_group)
        client_chan, box, thread = _serve_in_memory(
            bank, qmodel, test_group, allow_interactive=False
        )
        with pytest.raises(ProtocolError, match="interactive"):
            ClientSession(client_chan, meta, 2, mode="interactive", group=test_group)
        thread.join(timeout=10)

    def test_tracers_are_isolated_per_session(self, qmodel, meta, x2, test_group):
        bank = _bank(qmodel, test_group, rounds=2)
        enc = FixedPointEncoder(qmodel.ring, qmodel.encoder.frac_bits)
        tracers = []
        for sid in (31, 32):
            tracer = Tracer(party="server")
            tracers.append(tracer)
            client_chan, box, thread = _serve_in_memory(
                bank, qmodel, test_group, session_id=sid, tracer=tracer
            )
            session = ClientSession(client_chan, meta, 2, group=test_group)
            session.predict_encoded(enc.encode(x2.T))
            session.close()
            thread.join(timeout=10)
            tracer.annotate(session_id=sid)
        docs = [t.to_dict() for t in tracers]
        for sid, doc in zip((31, 32), docs):
            assert doc["root"]["attrs"]["session_id"] == sid
            paths = [p for p, _ in iter_spans(doc)]
            assert any(p.startswith("round0") for p in paths)
            # Exactly one session's traffic lives in each tree.
            assert not any(p.startswith("round1") for p in paths)
            round_ids = [
                s["attrs"]["round_id"] for p, s in iter_spans(doc)
                if s["attrs"].get("round_id") is not None
            ]
            assert round_ids == [sid - 31]  # bank round 0 then 1, never shared


class TestPredictionServerTcp:
    def test_acceptance_k_rounds_sequential_and_concurrent(
        self, qmodel, meta, x2, test_group, tmp_path
    ):
        """The headline scenario: K=5 banked rounds serve 3 sequential
        reconnecting clients + 2 concurrent clients, then deny cleanly."""
        bank = _bank(qmodel, test_group, rounds=5)
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        expect = np.argmax(
            qmodel.ring.to_signed(qmodel.forward_int(qmodel.encoder.encode(x2.T))),
            axis=0,
        )
        served_round_ids = []
        with PredictionServer(
            qmodel, bank, port=0, max_sessions=3, group=test_group, seed=3,
            trace_dir=str(trace_dir),
        ) as srv:
            for i in range(3):  # sequential, reconnecting
                with PredictionClient(
                    meta, 2, port=srv.port, group=test_group, seed=100 + i
                ) as client:
                    _, labels = client.predict(x2)
                    assert (labels == expect).all()
                    served_round_ids.extend(client.session.round_ids)

            def _concurrent(i, out):
                with PredictionClient(
                    meta, 2, port=srv.port, group=test_group, seed=200 + i
                ) as client:
                    _, labels = client.predict(x2)
                    out[i] = (labels, list(client.session.round_ids))

            out = {}
            threads = [
                threading.Thread(target=_concurrent, args=(i, out)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert sorted(out) == [0, 1]
            for labels, ids in out.values():
                assert (labels == expect).all()
                served_round_ids.extend(ids)

            # Material is strictly single-use: 5 rounds, 5 distinct ids.
            assert sorted(served_round_ids) == [0, 1, 2, 3, 4]

            # Round 6: clean typed exhaustion, server stays up.
            with pytest.raises(ProtocolError, match="offline material exhausted"):
                with PredictionClient(
                    meta, 2, port=srv.port, group=test_group
                ) as client:
                    client.predict(x2)
            srv.wait_idle()
            metrics = srv.metrics()
            assert metrics["sessions_served"] == 6
            assert metrics["predictions"] == 5
            assert metrics["bank"]["rounds_served"] == 5

        # One isolated trace per session, annotated with its id.
        exported = sorted(trace_dir.glob("session-*.json"))
        assert len(exported) == 6
        seen_sessions = set()
        for path in exported:
            doc = load_trace(str(path))
            attrs = doc["root"]["attrs"]
            seen_sessions.add(attrs["session_id"])
            assert "bank_depth" in attrs and "sessions_served" in attrs
        assert seen_sessions == {1, 2, 3, 4, 5, 6}
        _assert_no_leaked_serve_threads()

    def test_restart_from_persisted_bank_skips_offline(
        self, qmodel, meta, x2, test_group, tmp_path
    ):
        """Server restart against a persisted bank: zero generation traffic."""
        path = tmp_path / "bank.npz"
        _bank(qmodel, test_group, rounds=2).save(path)

        restarted = _bank(qmodel, test_group)
        restarted.load(path)
        with PredictionServer(
            qmodel, restarted, port=0, group=test_group
        ) as srv:
            with PredictionClient(meta, 2, port=srv.port, group=test_group) as client:
                _, labels = client.predict(x2)
            srv.wait_idle()
        expect = np.argmax(
            qmodel.ring.to_signed(qmodel.forward_int(qmodel.encoder.encode(x2.T))),
            axis=0,
        )
        assert (labels == expect).all()
        m = restarted.metrics()
        assert m["rounds_generated"] == 0
        _assert_no_leaked_serve_threads()

    def test_client_crash_mid_protocol_does_not_kill_server(
        self, qmodel, meta, x2, test_group
    ):
        bank = _bank(qmodel, test_group, rounds=3)
        with PredictionServer(
            qmodel, bank, port=0, group=test_group, session_timeout_s=5.0
        ) as srv:
            # Crash 1: abort right after the welcome.
            client = PredictionClient(meta, 2, port=srv.port, group=test_group)
            client.chan.abort()
            # Crash 2: abort mid-round, after the grant (material in flight).
            client = PredictionClient(meta, 2, port=srv.port, group=test_group)
            from repro.serve.session import recv_ctrl, send_ctrl

            send_ctrl(client.chan, op="round")
            grant = recv_ctrl(client.chan)
            assert grant["ok"]
            client.chan.abort()
            # The server must still serve a healthy client afterwards.
            with PredictionClient(meta, 2, port=srv.port, group=test_group) as healthy:
                _, labels = healthy.predict(x2)
            srv.wait_idle(timeout_s=30.0)
            records = {r.session_id: r for r in srv.records}
            assert len(records) == 3
            failures = [r for r in records.values() if r.error is not None]
            assert len(failures) == 2
            assert srv.metrics()["sessions_served"] == 1
        assert labels is not None
        _assert_no_leaked_serve_threads()

    def test_handshake_failure_logged_not_fatal(self, qmodel, meta, x2, test_group):
        bank = _bank(qmodel, test_group, rounds=1)
        with PredictionServer(
            qmodel, bank, port=0, group=test_group, session_timeout_s=5.0
        ) as srv:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as raw:
                raw.sendall(
                    struct.pack("<4sHBQ", b"HTTP", tcp.WIRE_VERSION, 1, 0)
                )
                raw.recv(64)  # server's handshake bytes; then we vanish
            # ... and a real client still gets served.
            with PredictionClient(meta, 2, port=srv.port, group=test_group) as client:
                client.predict(x2)
            srv.wait_idle(timeout_s=30.0)
            failed = [r for r in srv.records if r.error is not None]
            assert len(failed) == 1
            assert "handshake" in failed[0].error
            assert srv.metrics()["sessions_failed"] == 1
        _assert_no_leaked_serve_threads()

    def test_hello_deny_is_structured_on_both_transports(
        self, qmodel, meta, test_group
    ):
        """A denied client must read the structured deny, never a reset.

        Under TCP the server used to close with the client's trailing
        traffic unread, which can RST the connection and destroy the
        queued deny; the in-memory leg pins the same drain path."""
        bank = _bank(qmodel, test_group, rounds=1)
        # In-memory: same session logic, same drain-before-close path.
        client_chan, box, thread = _serve_in_memory(bank, qmodel, test_group)
        with pytest.raises(ProtocolError, match="batch"):
            ClientSession(client_chan, meta, 3, group=test_group)
        thread.join(timeout=10)
        assert "batch" in box["result"].error
        # TCP: repeat to give the close/deny race every chance to fire.
        with PredictionServer(
            qmodel, bank, port=0, group=test_group, session_timeout_s=5.0
        ) as srv:
            for _ in range(5):
                with pytest.raises(ProtocolError, match="batch"):
                    PredictionClient(meta, 3, port=srv.port, group=test_group)
            srv.wait_idle(timeout_s=30.0)
            assert srv.metrics()["sessions_failed"] == 5
        _assert_no_leaked_serve_threads()

    def test_stop_races_accept_without_leaking_threads(
        self, qmodel, meta, x2, test_group
    ):
        """stop() concurrent with connecting clients: the listener closes
        first, every spawned session thread is joined, and no serving
        thread outlives the server — at any stop timing."""
        for attempt in range(3):
            bank = _bank(qmodel, test_group, rounds=2)
            srv = PredictionServer(
                qmodel, bank, port=0, group=test_group, session_timeout_s=5.0
            ).start()

            def _connect():
                # A client whose connect lands after the listener closed
                # retries until its deadline (min(timeout_s, 30 s)); keep
                # that within the join below.
                try:
                    with PredictionClient(
                        meta, 2, port=srv.port, group=test_group, timeout_s=2.0
                    ) as client:
                        client.predict(x2)
                except (ProtocolError, ChannelError, OSError):
                    pass  # refused/cut mid-stop: expected at some timings

            clients = [threading.Thread(target=_connect) for _ in range(2)]
            for t in clients:
                t.start()
            time.sleep(0.05 * attempt)  # vary where stop lands in accept
            srv.stop()
            for t in clients:
                t.join(timeout=30)
                assert not t.is_alive()
            # The listener really closed: fresh connections are refused.
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", srv.port), timeout=1)
            _assert_no_leaked_serve_threads()

    def test_finished_session_threads_are_forgotten(self, qmodel, meta, test_group):
        """A long-running server must not keep one Thread object per
        session ever served: finished ones are dropped at spawn time."""
        bank = _bank(qmodel, test_group)
        with PredictionServer(
            qmodel, bank, port=0, max_sessions=2, group=test_group
        ) as srv:
            for _ in range(6):
                with PredictionClient(meta, 2, port=srv.port, group=test_group):
                    pass  # hello -> welcome -> done: a whole (empty) session
                srv.wait_idle()
                assert len(srv._session_threads) <= srv.max_sessions + 1
            assert srv.metrics()["sessions_served"] == 6
        _assert_no_leaked_serve_threads()

    def test_max_sessions_bounds_concurrency(self, qmodel, meta, x2, test_group):
        """With max_sessions=1, two concurrent clients are serialized —
        both succeed, never more than one session thread at work."""
        bank = _bank(qmodel, test_group, rounds=2)
        peak = []
        with PredictionServer(
            qmodel, bank, port=0, max_sessions=1, group=test_group
        ) as srv:
            def _client(i, out):
                with PredictionClient(
                    meta, 2, port=srv.port, group=test_group
                ) as client:
                    _, labels = client.predict(x2)
                    out[i] = labels
                peak.append(srv.metrics()["sessions_active"])

            out = {}
            threads = [threading.Thread(target=_client, args=(i, out)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert sorted(out) == [0, 1]
            srv.wait_idle()
            assert max(peak) <= 1
        _assert_no_leaked_serve_threads()


@pytest.mark.skipif(
    not os.environ.get("ABNN2_SERVE_SOAK"),
    reason="serve soak runs only with ABNN2_SERVE_SOAK=1 (CI does)",
)
class TestServeSoak:
    def test_multi_client_soak_with_crashes(self, qmodel, meta, x2, test_group):
        """Replenishing server under a mix of healthy, keep-alive, and
        crashing clients across several seeds: every healthy prediction
        correct, no wedge, no leaked threads."""
        seeds = [
            int(s) for s in os.environ.get("ABNN2_FAULT_SEEDS", "0,1,2").split(",")
        ]
        expect = np.argmax(
            qmodel.ring.to_signed(qmodel.forward_int(qmodel.encoder.encode(x2.T))),
            axis=0,
        )
        bank = TripletBank(
            qmodel, 2, capacity=4, low_water=3, auto_replenish=True,
            replenish_chunk=2, group=test_group, seed=17,
        )
        with PredictionServer(
            qmodel, bank, port=0, max_sessions=4, group=test_group,
            session_timeout_s=10.0, exhaustion_wait_s=30.0, seed=23,
        ) as srv:
            for seed in seeds:
                rng = np.random.default_rng(seed)

                def _healthy(i, out):
                    with PredictionClient(
                        meta, 2, port=srv.port, group=test_group, seed=seed * 100 + i
                    ) as client:
                        for _ in range(2):  # keep-alive: two rounds per session
                            _, labels = client.predict(x2)
                            out.append(labels)

                def _crasher():
                    client = PredictionClient(
                        meta, 2, port=srv.port, group=test_group
                    )
                    if rng.random() < 0.5:
                        client.predict(x2)
                    client.chan.abort()

                out = []
                threads = [
                    threading.Thread(target=_healthy, args=(i, out)) for i in range(3)
                ]
                threads.append(threading.Thread(target=_crasher))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert len(out) == 6, f"seed {seed}: missing predictions"
                for labels in out:
                    assert (labels == expect).all()
            srv.wait_idle(timeout_s=60.0)
        _assert_no_leaked_serve_threads()
