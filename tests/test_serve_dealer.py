"""Trusted-dealer generation + atomic banked persistence.

The dealer (:mod:`repro.serve.dealer`) produces offline rounds in
closed form, block by block, with conv-layer shares arriving as
:class:`~repro.core.triplets.BlockedShare` on each conv spec's
``chunk_cols`` grid.  These tests pin:

* a dealt round drops into the unchanged online phase and yields
  logits byte-identical across online ``chunk_cols`` settings, close
  to the plaintext integer reference (truncation noise only);
* determinism in ``(model, batch, seed)``, the chunk grid included;
* the dealer-backed :class:`~repro.serve.bank.TripletBank` serves a
  chunked conv model over a bank-mode session;
* banked ``BlockedShare`` material round-trips through
  :mod:`repro.serve.persist`, whose writes are atomic (crash
  mid-write leaves the previous bundle intact).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.offline import ClientHalf
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta
from repro.core.triplets import BlockedShare
from repro.errors import ConfigError
from repro.net.channel import make_channel_pair
from repro.net.runner import run_protocol
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU
from repro.nn.model import Sequential
from repro.nn.quantize import quantize_model, set_chunk_cols
from repro.serve.bank import TripletBank
from repro.serve.dealer import dealer_offline_round
from repro.serve.persist import load_bank, model_fingerprint, save_bank
from repro.serve.session import ClientSession, ServerSession
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring

BATCH = 2


@pytest.fixture(scope="module")
def qmodel():
    net = Sequential(
        [
            Conv2d(1, 2, 3, seed=6),
            ReLU(),
            AvgPool2d(2),
            Flatten(),
            Dense(2 * 3 * 3, 4, seed=7),
        ]
    )
    return quantize_model(
        net,
        TABLE2_SCHEMES["4(2,2)"],
        Ring(32),
        frac_bits=5,
        input_shape=(1, 8, 8),
    )


@pytest.fixture(scope="module")
def meta(qmodel):
    return ModelMeta.from_model(qmodel)


def _run_online(model, meta, x_ring, rnd, group):
    def server_fn(chan):
        server = Abnn2Server(chan, model, BATCH, group=group, seed=1)
        server.load_offline_round(rnd.server)
        return server.online()

    def client_fn(chan):
        client = Abnn2Client(chan, meta, BATCH, group=group, seed=2)
        client.load_offline_round(rnd.client)
        return client.online(x_ring)

    return run_protocol(server_fn, client_fn, timeout_s=120.0).client


def _within_truncation_noise(qmodel, x_ring, logits):
    ring = qmodel.ring
    diff = ring.to_signed(ring.sub(logits, qmodel.forward_int(x_ring)))
    return np.abs(diff).max() <= 64


def _x_ring(qmodel, seed=42):
    x = np.random.default_rng(seed).random((BATCH, 64))
    return qmodel.encoder.encode(x.T)


class TestDealerRound:
    def test_blocked_types_and_shapes(self, qmodel):
        rnd = dealer_offline_round(set_chunk_cols(qmodel, 7), BATCH, seed=5)
        us, client = rnd.server.u, rnd.client
        assert isinstance(us[0], BlockedShare)  # conv layer stays blocked
        assert isinstance(us[-1], np.ndarray)  # dense layer is plain
        assert isinstance(client.v[0], BlockedShare)
        assert us[0].shape == (2, BATCH * 36)
        assert client.input_mask.shape == (64, BATCH)

    def test_determinism(self, qmodel):
        chunked = set_chunk_cols(qmodel, 7)
        a = dealer_offline_round(chunked, BATCH, seed=5)
        b = dealer_offline_round(chunked, BATCH, seed=5)
        for a_u, b_u in zip(a.server.u, b.server.u):
            a_u = a_u.materialize() if isinstance(a_u, BlockedShare) else a_u
            b_u = b_u.materialize() if isinstance(b_u, BlockedShare) else b_u
            assert (a_u == b_u).all()
        assert (a.client.input_mask == b.client.input_mask).all()
        # another chunk grid consumes the RNG differently
        c = dealer_offline_round(set_chunk_cols(qmodel, 13), BATCH, seed=5)
        assert not (c.server.u[0].materialize() == a.server.u[0].materialize()).all()

    def test_online_identical_across_chunkings(self, qmodel, meta, test_group):
        x_ring = _x_ring(qmodel)
        rnd = dealer_offline_round(
            set_chunk_cols(qmodel, 11), BATCH, seed=9, group=test_group
        )
        baseline = None
        for chunk in (None, 1, 7, 10**6):
            model = set_chunk_cols(qmodel, chunk)
            logits = _run_online(
                model, ModelMeta.from_model(model), x_ring, rnd, test_group
            )
            if baseline is None:
                baseline = logits
                assert _within_truncation_noise(qmodel, x_ring, logits)
            assert (logits == baseline).all(), f"chunk={chunk}"

    def test_validation(self, qmodel):
        with pytest.raises(ConfigError):
            dealer_offline_round(qmodel, 0, seed=1)


class TestDealerBank:
    def test_dealer_bank_serves_with_zero_traffic(self, qmodel, test_group):
        bank = TripletBank(
            set_chunk_cols(qmodel, 7),
            BATCH,
            capacity=2,
            auto_replenish=False,
            generator="dealer",
            seed=3,
            group=test_group,
        )
        assert bank.fill(2) == 2
        metrics = bank.metrics()
        assert metrics["generator"] == "dealer"
        assert metrics["rounds_generated"] == 2
        round_ = bank.take()
        assert isinstance(round_.server.u[0], BlockedShare)
        bank.stop()

    def test_generator_validated(self, qmodel):
        for generator in ("oracle", "selfplay"):
            with pytest.raises(ConfigError):
                TripletBank(qmodel, BATCH, generator=generator, auto_replenish=False)

    def test_chunked_conv_bank_serves_a_session(self, qmodel, meta, test_group):
        """A bank whose conv shares are BlockedShares serves a bank-mode
        session: the dealt frame carries the blocks (it used to die with
        a raw TypeError in the server's frame encoder)."""
        chunked = set_chunk_cols(qmodel, 7)
        bank = TripletBank(
            chunked, BATCH, capacity=1, auto_replenish=False, generator="dealer",
            seed=3, group=test_group,
        )
        bank.fill(1)
        server_chan, client_chan = make_channel_pair(timeout_s=30.0)
        box = {}

        def _serve():
            try:
                box["result"] = ServerSession(
                    server_chan, chunked, bank, session_id=1, group=test_group
                ).run()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                box["exc"] = exc

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        x_ring = _x_ring(qmodel)
        with ClientSession(client_chan, meta, BATCH, group=test_group, seed=9) as client:
            logits = client.predict_encoded(x_ring)
        thread.join(timeout=30)
        assert "exc" not in box, box.get("exc")
        assert box["result"].predictions == 1
        assert _within_truncation_noise(qmodel, x_ring, logits)


class TestBankPersistence:
    def _rounds(self, qmodel, chunk):
        return [dealer_offline_round(set_chunk_cols(qmodel, chunk), BATCH, seed=4)]

    def test_blocked_share_roundtrip(self, qmodel, tmp_path):
        path = tmp_path / "bank.npz"
        fp = model_fingerprint(qmodel)
        rounds = self._rounds(qmodel, 7)
        save_bank(path, fingerprint=fp, batch=BATCH, rounds=rounds)
        loaded, _ = load_bank(path, fingerprint=fp, batch=BATCH)
        assert len(loaded) == 1
        orig_u = rounds[0].server.u[0]
        back_u = loaded[0].server.u[0]
        assert isinstance(back_u, BlockedShare)
        assert back_u.n_blocks == orig_u.n_blocks
        assert (back_u.materialize() == orig_u.materialize()).all()
        back_v = loaded[0].client.v[0]
        assert (back_v.materialize() == rounds[0].client.v[0].materialize()).all()

    def test_bundle_and_wire_share_one_layout(self, qmodel, tmp_path):
        """A bundle stores each half exactly as the codec frames it: the
        manifest holds the JSON headers, the arrays follow in frame order
        (no per-layer key names, plain or blocked)."""
        import json

        fp = model_fingerprint(qmodel)
        for chunk in (None, 7):
            path = tmp_path / f"bank-{chunk}.npz"
            rounds = self._rounds(qmodel, chunk)
            save_bank(path, fingerprint=fp, batch=BATCH, rounds=rounds)
            frame = rounds[0].client.encode()
            with np.load(path) as bundle:
                manifest = json.loads(bytes(bundle["manifest"]).decode())
                assert manifest["rounds"][0]["client"] == json.loads(frame[0])
                stored = [bundle[f"r0_client{k}"] for k in range(len(frame) - 1)]
                assert f"r0_client{len(frame) - 1}" not in bundle.files
            assert all((a == b).all() for a, b in zip(stored, frame[1:]))
            assert ("blocks" in json.loads(frame[0])) == (chunk is not None)
            back = ClientHalf.decode(frame)
            assert (back.input_mask == rounds[0].client.input_mask).all()

    def test_save_is_atomic_under_crash(self, qmodel, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous bundle intact and no
        temp debris behind (satellite a: temp file + os.replace)."""
        path = tmp_path / "bank.npz"
        fp = model_fingerprint(qmodel)
        rounds = self._rounds(qmodel, 7)
        save_bank(path, fingerprint=fp, batch=BATCH, rounds=rounds)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", boom)
        with pytest.raises(OSError):
            save_bank(path, fingerprint=fp, batch=BATCH, rounds=rounds)
        monkeypatch.undo()
        assert path.read_bytes() == before  # old bundle untouched
        assert os.listdir(tmp_path) == ["bank.npz"]  # no tmp leftovers
        loaded, _ = load_bank(path, fingerprint=fp, batch=BATCH)
        assert len(loaded) == 1
