"""Random-oracle backend interchangeability.

DESIGN.md claims the SHA-256 reference backend and the vectorized SipHash
backend are drop-in interchangeable for every protocol (they only have to
agree *between the two parties*, not with each other).  These tests run
the main protocols under the SHA-256 backend to prove nothing silently
depends on SipHash specifics.
"""

import numpy as np
import pytest

from repro.core.relu import relu_layer_client, relu_layer_server
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.crypto.hash_ro import sha256_ro
from repro.crypto.iknp import OtExtReceiver, OtExtSender
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.gc.builder import relu_template
from repro.gc.garble import garble
from repro.gc.protocol import GcSessions
from repro.net import run_protocol
from repro.quant.fragments import FragmentScheme
from repro.utils.bits import int_to_bits
from repro.utils.ring import Ring


class TestSha256Backend:
    def test_iknp_chosen(self, test_group, rng):
        m = 40
        msgs = rng.integers(0, 1 << 63, size=(m, 2, 1), dtype=np.uint64)
        choices = rng.integers(0, 2, size=m, dtype=np.uint8)
        result = run_protocol(
            lambda ch: OtExtSender(ch, group=test_group, ro=sha256_ro, seed=1).send_chosen(msgs),
            lambda ch: OtExtReceiver(ch, group=test_group, ro=sha256_ro, seed=2).recv_chosen(
                choices, 1
            ),
        )
        assert (result.client == msgs[np.arange(m), choices.astype(int)]).all()

    def test_kk13_chosen(self, test_group, rng):
        m, n = 30, 4
        msgs = rng.integers(0, 1 << 63, size=(m, n, 1), dtype=np.uint64)
        choices = rng.integers(0, n, size=m)
        result = run_protocol(
            lambda ch: Kk13Sender(ch, n, group=test_group, ro=sha256_ro, seed=1).send_chosen(msgs),
            lambda ch: Kk13Receiver(ch, n, group=test_group, ro=sha256_ro, seed=2).recv_chosen(
                choices, 1
            ),
        )
        assert (result.client == msgs[np.arange(m), choices]).all()

    def test_triplets(self, test_group, rng):
        ring = Ring(32)
        scheme = FragmentScheme.from_bits((2, 2))
        w = rng.integers(-8, 8, size=(3, 5))
        r = ring.sample(rng, (5, 2))
        config = TripletConfig(
            ring=ring, scheme=scheme, m=3, n=5, o=2, group=test_group, ro=sha256_ro
        )
        result = run_protocol(
            lambda ch: generate_triplets_server(ch, w, config, seed=1),
            lambda ch: generate_triplets_client(ch, r, config, np.random.default_rng(4), seed=2),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()

    def test_gc_relu(self, test_group, rng):
        ring = Ring(8)
        y = ring.reduce(rng.integers(-100, 100, size=10))
        y1 = ring.sample(rng, 10)
        y0 = ring.sub(y, y1)
        z1 = ring.sample(rng, 10)
        result = run_protocol(
            lambda ch: relu_layer_server(
                ch, y0, GcSessions(ch, "evaluator", group=test_group, ro=sha256_ro, seed=1),
                ring,
            ),
            lambda ch: relu_layer_client(
                ch, y1, z1,
                GcSessions(ch, "garbler", group=test_group, ro=sha256_ro, seed=2),
                ring, np.random.default_rng(7),
            ),
        )
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (ring.add(result.server, result.client) == relu).all()

    def test_gc_tables_hash_with_the_session_oracle(self, test_group, rng):
        """The garbler's tables are built with ``GcSessions.ro``: they equal
        a SHA-256 garbling from the same generator."""
        ring, n = Ring(8), 10
        y0, y1, z1 = (ring.sample(rng, n) for _ in range(3))
        received, input_labels = [], []

        def server(ch):
            recv = ch.recv
            ch.recv = lambda: received.append(recv()) or received[-1]
            sessions = GcSessions(ch, "evaluator", group=test_group, ro=sha256_ro, seed=1)
            return relu_layer_server(ch, y0, sessions, ring)

        def client(ch):
            sessions = GcSessions(ch, "garbler", group=test_group, ro=sha256_ro, seed=2)
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
            relu_template(8), n, np.random.default_rng(7), sha256_ro, garbler_bits,
            input_labels[0].x0.reshape(8, n, 2),
        )
        assert (tables == expected.tables).all()

    def test_mixed_backends_fail_loudly(self, test_group, rng):
        """Parties on different backends must not silently produce shares
        that reconstruct to garbage equal to the true product."""
        from repro.crypto.hash_ro import siphash_ro

        ring = Ring(32)
        scheme = FragmentScheme.binary()
        w = rng.integers(0, 2, size=(2, 3))
        r = ring.sample(rng, (3, 1))
        cfg_sha = TripletConfig(
            ring=ring, scheme=scheme, m=2, n=3, o=1, group=test_group, ro=sha256_ro
        )
        cfg_sip = TripletConfig(
            ring=ring, scheme=scheme, m=2, n=3, o=1, group=test_group, ro=siphash_ro
        )
        result = run_protocol(
            lambda ch: generate_triplets_server(ch, w, cfg_sha, seed=1),
            lambda ch: generate_triplets_client(ch, r, cfg_sip, np.random.default_rng(4), seed=2),
        )
        got = ring.add(result.server, result.client)
        expect = ring.matmul(ring.reduce(w), r)
        assert (got != expect).any()
