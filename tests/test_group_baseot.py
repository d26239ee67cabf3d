"""MODP groups and the Chou-Orlandi style base OT."""

import numpy as np
import pytest

from repro.crypto import baseot
from repro.crypto.group import MODP_1536, MODP_2048, MODP_TEST
from repro.errors import CryptoError
from repro.net import run_protocol


class TestGroups:
    @pytest.mark.parametrize("group", [MODP_TEST, MODP_1536, MODP_2048])
    def test_generator_in_group(self, group):
        assert 1 < group.g < group.p

    def test_test_group_is_safe_prime_subgroup(self):
        # g = 2 must generate the order-q subgroup: 2^q = 1 mod p.
        q = MODP_TEST.order
        assert pow(2, q, MODP_TEST.p) == 1
        assert pow(2, 2, MODP_TEST.p) != 1

    def test_secure_flags(self):
        assert not MODP_TEST.secure
        assert MODP_1536.secure and MODP_2048.secure

    def test_power_identity(self):
        a = MODP_TEST.sample_exponent()
        b = MODP_TEST.sample_exponent()
        left = MODP_TEST.power(MODP_TEST.gpow(a), b)
        right = MODP_TEST.power(MODP_TEST.gpow(b), a)
        assert left == right  # DH agreement

    def test_invert(self):
        x = MODP_TEST.gpow(12345)
        assert MODP_TEST.mul(x, MODP_TEST.invert(x)) == 1

    def test_invert_zero_rejected(self):
        with pytest.raises(CryptoError):
            MODP_TEST.invert(0)

    def test_encode_decode(self):
        x = MODP_TEST.gpow(99)
        assert MODP_TEST.decode(MODP_TEST.encode(x)) == x

    def test_decode_range_check(self):
        with pytest.raises(CryptoError):
            MODP_TEST.decode(b"\x00" * MODP_TEST.element_bytes)

    def test_sample_exponent_nonzero(self):
        draws = {MODP_TEST.sample_exponent() for _ in range(20)}
        assert 0 not in draws
        assert len(draws) > 1


class TestBaseOt:
    def test_chosen_message_correctness(self, test_group):
        pairs = [(bytes([i] * 16), bytes([200 - i] * 16)) for i in range(10)]
        choices = [i % 2 for i in range(10)]
        result = run_protocol(
            lambda ch: baseot.send(ch, pairs, test_group),
            lambda ch: baseot.receive(ch, choices, 16, test_group),
        )
        expected = [pairs[i][c] for i, c in enumerate(choices)]
        assert result.client == expected

    def test_random_ot_key_agreement(self, test_group):
        choices = [1, 0, 1, 1, 0]
        result = run_protocol(
            lambda ch: baseot.random_send(ch, 5, test_group),
            lambda ch: baseot.random_receive(ch, choices, test_group),
        )
        sender_keys, receiver_keys = result.server, result.client
        for i, c in enumerate(choices):
            assert receiver_keys[i] == sender_keys[i][c]
            assert receiver_keys[i] != sender_keys[i][1 - c]

    def test_variable_length_messages(self, test_group):
        pairs = [(b"A" * 40, b"B" * 40)]
        result = run_protocol(
            lambda ch: baseot.send(ch, pairs, test_group),
            lambda ch: baseot.receive(ch, [1], 40, test_group),
        )
        assert result.client == [b"B" * 40]

    def test_inconsistent_message_lengths_rejected(self, test_group):
        server, _ = __import__("repro.net.channel", fromlist=["make_channel_pair"]).make_channel_pair()
        with pytest.raises(CryptoError):
            baseot.send(server, [(b"ab", b"abc")], test_group)

    def test_invalid_choice_bits(self, test_group):
        server, _ = __import__("repro.net.channel", fromlist=["make_channel_pair"]).make_channel_pair()
        with pytest.raises(CryptoError):
            baseot.random_receive(server, [0, 2], test_group)

    def test_zero_count_rejected(self, test_group):
        server, _ = __import__("repro.net.channel", fromlist=["make_channel_pair"]).make_channel_pair()
        with pytest.raises(CryptoError):
            baseot.random_send(server, 0, test_group)

    @pytest.mark.parametrize(
        "group,count", [(MODP_TEST, 64), (MODP_1536, 4)], ids=["test-64", "1536-4"]
    )
    def test_sender_keys_match_two_exponentiation_formula(self, group, count):
        """``k1`` from ``B^a * (A^-1)^a`` is byte-identical to ``(B * A^-1)^a``."""
        from repro.utils.rng import randbelow_from_rng

        draws = np.random.default_rng(8)
        exponents, blobs = [], []

        def draw(bound):
            exponents.append(randbelow_from_rng(draws, bound))
            return exponents[-1]

        class _Tap:
            def __init__(self, inner):
                self._inner = inner

            def send(self, obj):
                self._inner.send(obj)

            def recv(self):
                blobs.append(self._inner.recv())
                return blobs[-1]

        choices = [i % 2 for i in range(count)]
        result = run_protocol(
            lambda ch: baseot.random_send(_Tap(ch), count, group, randbelow=draw),
            lambda ch: baseot.random_receive(ch, choices, group),
        )
        a, p, size = exponents[-1], group.p, group.element_bytes
        inv_big_a = pow(pow(group.g, a, p), p - 2, p)  # Fermat, as before
        for i, (k0, k1) in enumerate(result.server):
            b = group.decode(blobs[0][i * size : (i + 1) * size])
            assert k0 == baseot._derive_key(group, i, pow(b, a, p))
            assert k1 == baseot._derive_key(group, i, pow(b * inv_big_a % p, a, p))
            assert result.client[i] == (k0, k1)[choices[i]]

    def test_deterministic_with_seeded_randbelow(self, test_group, rng):
        from repro.utils.rng import randbelow_from_rng

        def draw(bound):
            return randbelow_from_rng(rng, bound)

        result = run_protocol(
            lambda ch: baseot.random_send(ch, 3, test_group, randbelow=draw),
            lambda ch: baseot.random_receive(ch, [0, 1, 0], test_group),
        )
        for i, c in enumerate([0, 1, 0]):
            assert result.client[i] == result.server[i][c]
