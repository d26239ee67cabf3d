"""Trusted-dealer generation + atomic banked persistence.

The dealer (:mod:`repro.serve.dealer`) produces offline rounds in
closed form, block by block, with conv-layer shares arriving as
:class:`~repro.core.triplets.BlockedShare` on each conv spec's
``chunk_cols`` grid.  These tests pin:

* a dealt round drops into the unchanged online phase and yields
  logits byte-identical across online ``chunk_cols`` settings, close
  to the plaintext integer reference (average pooling's share-local
  shift is the only noise);
* without average pooling the secure logits *equal* the reference: the
  GC ReLU truncates exactly, even for a dealt round whose shares
  straddle the share-local truncation boundary, and over a soak of 256
  predictions (10^4 with ``ABNN2_SERVE_SOAK=1``);
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
from dataclasses import replace

import numpy as np
import pytest

from repro.core.offline import ClientHalf
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta
from repro.core.pooling import truncate_share
from repro.core.triplets import BlockedShare
from repro.errors import ConfigError
from repro.net.channel import make_channel_pair
from repro.net.runner import run_protocol
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU
from repro.nn.model import Sequential, mnist_mlp
from repro.nn.quantize import quantize_model, set_chunk_cols
from repro.serve.bank import TripletBank
from repro.serve.dealer import dealer_offline_round
from repro.serve.persist import load_bank, model_fingerprint, save_bank
from repro.serve.session import ClientSession, ServerSession
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme
from repro.utils.ring import Ring

BATCH = 2
SOAK = bool(os.environ.get("ABNN2_SERVE_SOAK"))


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


def _mlp8(seed: int, hidden: int, input_dim: int):
    """A pool-free MLP with 8-bit weights (non-zero truncation shifts)."""
    return quantize_model(
        mnist_mlp(seed=seed, hidden=hidden, input_dim=input_dim, classes=4),
        FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32),
    )


def _run_rounds(model, rounds, xs, group):
    """Online phase of every dealt round in turn over one channel pair."""
    meta, batch = ModelMeta.from_model(model), xs[0].shape[1]

    def server_fn(chan):
        server = Abnn2Server(chan, model, batch, group=group, seed=1)
        for rnd in rounds:
            server.load_offline_round(rnd.server)
        for _ in rounds:
            server.online()

    def client_fn(chan):
        client = Abnn2Client(chan, meta, batch, group=group, seed=2)
        for rnd in rounds:
            client.load_offline_round(rnd.client)
        return [client.online(x) for x in xs]

    return run_protocol(server_fn, client_fn).client


class TestExactRelu:
    def test_round_across_the_truncation_boundary_is_exact(self, test_group):
        """One unit's shares are moved (``U + V = W R`` kept) so that
        share-local truncation wraps on it; the in-GC shift does not."""
        model = _mlp8(seed=3, hidden=8, input_dim=16)
        ring, layer = model.ring, model.layers[0]
        assert layer.truncate_bits > 0
        x = model.encoder.encode(np.random.default_rng(4).uniform(0, 1, size=(16, 1)))
        w, bias = ring.reduce(layer.w_int), ring.reduce(layer.bias_int)[:, None]
        y = ring.add(ring.matmul(w, x), bias)
        unit = int(np.argmax(ring.to_signed(y)[:, 0]))
        assert ring.to_signed(y)[unit, 0] > 0

        rnd = dealer_offline_round(model, 1, seed=8)
        v, u = rnd.client.v[0].copy(), rnd.server.u[0].copy()
        delta = ring.sub(1, v[unit, 0])  # V = 1: -V wraps, y - V does not
        v[unit, 0] = ring.add(v[unit, 0], delta)
        u[unit, 0] = ring.sub(u[unit, 0], delta)
        rnd = replace(
            rnd,
            server=replace(rnd.server, u=[u, *rnd.server.u[1:]]),
            client=replace(rnd.client, v=[v, *rnd.client.v[1:]]),
        )

        y0 = ring.add(ring.add(ring.matmul(w, ring.sub(x, rnd.client.input_mask)), u), bias)
        shift = layer.truncate_bits
        local = ring.add(
            truncate_share(ring, y0, shift, party=0), truncate_share(ring, v, shift, party=1)
        )
        exact = ring.reduce(ring.to_signed(y) >> shift)
        assert abs(int(ring.to_signed(ring.sub(local, exact))[unit, 0])) > 1

        (logits,) = _run_rounds(model, [rnd], [x], test_group)
        assert (logits == model.forward_int(x)).all()

    def test_secure_logits_equal_forward_int_soak(self, test_group):
        """Exact equality, no +-1-ulp tolerance, on a model without pooling."""
        model = _mlp8(seed=5, hidden=16, input_dim=32)
        assert not any(layer.pool for layer in model.layers)
        batch = 128
        n_rounds = -(-(10_000 if SOAK else 256) // batch)
        rng = np.random.default_rng(21)
        xs = [
            model.encoder.encode(rng.uniform(0, 1, size=(32, batch)))
            for _ in range(n_rounds)
        ]
        rounds = [dealer_offline_round(model, batch, seed=100 + i) for i in range(n_rounds)]
        for x, logits in zip(xs, _run_rounds(model, rounds, xs, test_group)):
            assert (logits == model.forward_int(x)).all()


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
