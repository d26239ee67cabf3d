"""MODP groups, fixed-base tables and the Chou-Orlandi style random base OT."""

import random
import shutil
import threading

import numpy as np
import pytest

from repro.crypto import baseot, fastro
from repro.crypto import group as group_module
from repro.crypto.group import MODP_1536, MODP_2048, MODP_TEST, FixedBaseTable, ModpGroup
from repro.errors import CryptoError, ProtocolError
from repro.net import run_protocol
from repro.net.channel import make_channel_pair
from repro.utils.rng import randbelow_from_rng

GROUPS = pytest.mark.parametrize(
    "group", [MODP_TEST, MODP_1536, MODP_2048], ids=lambda g: g.name
)
WINDOW = group_module._WINDOW_BITS
needs_compiler = pytest.mark.skipif(
    not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
    reason="no C compiler: the kernel cannot be built here",
)


class _Tap:
    """Channel wrapper recording every frame its party sends and receives."""

    def __init__(self, inner):
        self._inner = inner
        self.sent, self.received = [], []

    def send(self, obj):
        self._inner.send(obj)
        self.sent.append(obj)

    def recv(self):
        self.received.append(self._inner.recv())
        return self.received[-1]


def _recording_draw(seed):
    """A seeded ``randbelow`` and the list of values it returned."""
    draws, values = np.random.default_rng(seed), []

    def draw(bound):
        values.append(randbelow_from_rng(draws, bound))
        return values[-1]

    return draw, values


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
        group = MODP_TEST
        a, b = group.sample_exponent(), group.sample_exponent()
        big_a, big_b = group.fixed_base_powers(group.g, [a, b])
        # DH agreement
        assert group.fixed_exponent_powers([big_a], b) == group.fixed_exponent_powers([big_b], a)

    def test_invert(self):
        x = pow(MODP_TEST.g, 12345, MODP_TEST.p)
        assert MODP_TEST.mul(x, MODP_TEST.invert(x)) == 1

    def test_invert_zero_rejected(self):
        with pytest.raises(CryptoError):
            MODP_TEST.invert(0)

    def test_encode_decode(self):
        x = pow(MODP_TEST.g, 99, MODP_TEST.p)
        assert MODP_TEST.decode(MODP_TEST.encode(x)) == x

    def test_decode_range_check(self):
        with pytest.raises(CryptoError):
            MODP_TEST.decode(b"\x00" * MODP_TEST.element_bytes)

    @GROUPS
    def test_decode_refuses_wrong_length(self, group):
        frame = group.encode(pow(group.g, 5, group.p))
        for bad in (frame[:-1], frame + b"\x00", b""):
            with pytest.raises(CryptoError, match="bytes"):
                group.decode(bad)

    @GROUPS
    def test_decode_refuses_order_two_elements(self, group):
        for element in (1, group.p - 1):
            with pytest.raises(CryptoError, match="order"):
                group.decode(group.encode(element))
        assert group.decode(group.encode(group.p - 2)) == group.p - 2

    def test_sample_exponent_nonzero(self):
        draws = {MODP_TEST.sample_exponent() for _ in range(20)}
        assert 0 not in draws
        assert len(draws) > 1


class TestFixedBaseTable:
    EDGES = [0, 1, 2**WINDOW - 1, 2**WINDOW, 2**256 - 1]

    @GROUPS
    def test_matches_pow(self, group, monkeypatch):
        monkeypatch.setattr(fastro, "_kernel", False)  # g's powers from its table
        rng = random.Random(group.p.bit_length())
        exponents = self.EDGES + [rng.getrandbits(256) for _ in range(6)]
        base = pow(group.g, rng.getrandbits(256), group.p)
        table = FixedBaseTable(base, group.p)
        for e in exponents:
            assert group.fixed_base_powers(group.g, [e]) == [pow(group.g, e, group.p)], e
            assert table.power(e) == pow(base, e, group.p), e

    def test_wider_exponent_takes_pow_path(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(group_module, "pow", spy, raising=False)
        monkeypatch.setattr(fastro, "_kernel", False)
        p = MODP_1536.p
        table = FixedBaseTable(12345, p)
        table.power(2**256 - 1)
        assert calls == []
        for e in (2**258, 2**512 + 3):
            assert table.power(e) == pow(12345, e, p)
            assert MODP_1536.fixed_base_powers(2, [e]) == [pow(2, e, p)]
        assert calls == [(12345, 2**258, p), (2, 2**258, p),
                         (12345, 2**512 + 3, p), (2, 2**512 + 3, p)]

    def test_cold_generator_table_two_threads(self, monkeypatch):
        built = []

        class CountingTable(FixedBaseTable):
            def __init__(self, base, p):
                built.append(base)
                super().__init__(base, p)

        monkeypatch.setattr(fastro, "_kernel", False)
        monkeypatch.setattr(group_module, "_GENERATOR_TABLES", {})
        monkeypatch.setattr(group_module, "FixedBaseTable", CountingTable)
        rng = random.Random(4)
        exponents = [[rng.getrandbits(256) for _ in range(8)] for _ in range(2)]
        barrier, results = threading.Barrier(2), {}

        def work(k):
            barrier.wait()
            results[k] = MODP_2048.fixed_base_powers(2, exponents[k])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for k in range(2):
            assert results[k] == [pow(2, e, MODP_2048.p) for e in exponents[k]]
        assert built == [2]


class TestBatchedPowers:
    """``fixed_exponent_powers`` and ``fixed_base_powers`` equal ``pow``,
    through the kernel and through the fallback."""

    EXPONENTS = [0, 1, 2**WINDOW - 1, 2**256 - 1]

    @staticmethod
    def _bases(p):
        return [0, 1, p - 1, p, 2 * p + 3]

    @needs_compiler
    @GROUPS
    @pytest.mark.parametrize("batch", [1, 2, 8, 192])
    def test_fixed_exponent_kernel_matches_pow(self, group, batch):
        assert fastro.modexp_ready(group.p)
        rng, p = random.Random(batch), group.p
        bases = (self._bases(p) + [rng.randrange(p) for _ in range(batch)])[:batch]
        for e in self.EXPONENTS + [rng.getrandbits(256)]:
            assert group.fixed_exponent_powers(bases, e) == [pow(b, e, p) for b in bases], e

    @needs_compiler
    @GROUPS
    @pytest.mark.parametrize("batch", [1, 2, 8, 192])
    def test_fixed_base_kernel_matches_pow(self, group, batch):
        """Batches below 8 take the kernel's window, the rest its comb."""
        assert fastro.modexp_ready(group.p)
        rng, p = random.Random(batch), group.p
        exponents = (self.EXPONENTS + [rng.getrandbits(256) for _ in range(batch)])[:batch]
        for base in self._bases(p) + [rng.randrange(p)]:
            got = group.fixed_base_powers(base, exponents)
            assert got == [pow(base, e, p) for e in exponents], base

    @GROUPS
    def test_fallback_matches_pow(self, group, monkeypatch):
        monkeypatch.setattr(fastro, "_kernel", False)
        assert not fastro.modexp_ready(group.p)
        rng, p = random.Random(5), group.p
        exponents = self.EXPONENTS + [rng.getrandbits(256)]
        for base in self._bases(p) + [group.g, rng.randrange(p)]:
            assert group.fixed_base_powers(base, exponents) == [pow(base, e, p) for e in exponents]
        for e in exponents:
            bases = self._bases(p)
            assert group.fixed_exponent_powers(bases, e) == [pow(b, e, p) for b in bases]

    def test_even_or_wide_modulus_takes_the_fallback(self):
        assert not fastro.modexp_ready(MODP_TEST.p + 1)
        assert not fastro.modexp_ready((1 << (64 * fastro.MAX_MODULUS_LIMBS)) + 1)
        even = ModpGroup("even", MODP_TEST.p + 1, 2, secure=False)
        assert even.fixed_base_powers(3, [5, 2**200]) == [pow(3, 5, even.p), pow(3, 2**200, even.p)]

    @needs_compiler
    def test_wider_exponent_takes_pow_path(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(group_module, "pow", spy, raising=False)
        p = MODP_1536.p
        exponents = [5, 2**256 - 1, 2**256, -3, 2**512 + 3]
        got = MODP_1536.fixed_base_powers(12345, exponents)
        assert calls == [(12345, 2**256, p), (12345, -3, p), (12345, 2**512 + 3, p)]
        assert got == [pow(12345, e, p) for e in exponents]
        calls.clear()
        assert MODP_1536.fixed_exponent_powers([3, 5], 2**256 - 1) == [
            pow(3, 2**256 - 1, p), pow(5, 2**256 - 1, p)
        ]
        assert calls == []
        assert MODP_1536.fixed_exponent_powers([3, 5], 2**256) == [
            pow(3, 2**256, p), pow(5, 2**256, p)
        ]
        assert calls == [(3, 2**256, p), (5, 2**256, p)]

    @needs_compiler
    @pytest.mark.parametrize("group", [MODP_TEST, MODP_1536], ids=lambda g: g.name)
    def test_forced_fallback_handshake_is_byte_identical(self, group, monkeypatch):
        """Seeded keys and wire frames do not depend on the kernel."""
        choices = [(i * 7) % 3 % 2 for i in range(24)]

        def handshake():
            send_draw, _ = _recording_draw(11)
            recv_draw, _ = _recording_draw(12)
            taps = {}

            def sender(ch):
                taps["s"] = _Tap(ch)
                return baseot.random_send(taps["s"], len(choices), group, randbelow=send_draw)

            def receiver(ch):
                return baseot.random_receive(ch, choices, group, randbelow=recv_draw)

            result = run_protocol(sender, receiver)
            return result.server, result.client, taps["s"].sent, taps["s"].received

        assert fastro.modexp_ready(group.p)
        kernel = handshake()
        monkeypatch.setattr(fastro, "_kernel", False)
        assert not fastro.modexp_ready(group.p)
        assert handshake() == kernel


class TestBaseOt:
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
        draw, exponents = _recording_draw(8)
        choices = [i % 2 for i in range(count)]
        tap = None

        def sender(ch):
            nonlocal tap
            tap = _Tap(ch)
            return baseot.random_send(tap, count, group, randbelow=draw)

        result = run_protocol(
            sender, lambda ch: baseot.random_receive(ch, choices, group)
        )
        a, p, size = exponents[-1], group.p, group.element_bytes
        inv_big_a = pow(pow(group.g, a, p), p - 2, p)  # Fermat, as before
        for i, (k0, k1) in enumerate(result.server):
            b = group.decode(tap.received[0][i * size : (i + 1) * size])
            assert k0 == baseot._derive_key(group, i, pow(b, a, p))
            assert k1 == baseot._derive_key(group, i, pow(b * inv_big_a % p, a, p))
            assert result.client[i] == (k0, k1)[choices[i]]

    @pytest.mark.parametrize(
        "group,count", [(MODP_TEST, 64), (MODP_1536, 4)], ids=["test-64", "1536-4"]
    )
    def test_receiver_keys_match_pow_formula(self, group, count):
        """Table-driven ``B = g^b * A^c`` and ``k_c = H(i, A^b)`` equal ``pow``'s."""
        draw, exponents = _recording_draw(9)
        choices = [(i // 2) % 2 for i in range(count)]
        tap = None

        def receiver(ch):
            nonlocal tap
            tap = _Tap(ch)
            return baseot.random_receive(tap, choices, group, randbelow=draw)

        result = run_protocol(
            lambda ch: baseot.random_send(ch, count, group), receiver
        )
        p, size = group.p, group.element_bytes
        big_a = int.from_bytes(tap.received[0], "little")
        assert len(exponents) == count
        for i, b in enumerate(exponents):
            elem = int.from_bytes(tap.sent[0][i * size : (i + 1) * size], "little")
            assert elem == pow(group.g, b, p) * pow(big_a, choices[i], p) % p
            assert result.client[i] == baseot._derive_key(group, i, pow(big_a, b, p))
            assert result.client[i] == result.server[i][choices[i]]

    @pytest.mark.parametrize("group", [MODP_TEST, MODP_1536], ids=lambda g: g.name)
    @pytest.mark.parametrize(
        "frame", ["short", "long", "bytes", "int", "uint64", "one", "minus-one"]
    )
    def test_receiver_refuses_bad_sender_element_before_sending(self, group, frame):
        """A frame that is not ``element_bytes`` bytes is a ``ProtocolError``
        naming it; an element of order <= 2 is the group's ``CryptoError``."""
        good = group.encode(pow(group.g, 5, group.p))
        malformed = (ProtocolError, "base-OT sender element")
        bad, (error, match) = {
            "short": (good[:-1], malformed),
            "long": (good + b"\x00", malformed),
            "bytes": (b"abc", malformed),
            "int": (7, malformed),
            "uint64": (np.frombuffer(good, dtype=np.uint64), malformed),
            "one": (group.encode(1), (CryptoError, "order")),
            "minus-one": (group.encode(group.p - 1), (CryptoError, "order")),
        }[frame]
        server, client = make_channel_pair(timeout_s=5.0)
        server.send(bad)
        with pytest.raises(error, match=match):
            baseot.random_receive(client, [0, 1, 1], group)
        assert client.stats.messages_sent[1] == 0

    @pytest.mark.parametrize("frame", [7, "bytes", "array", "uint64", "short", "long"], ids=str)
    def test_sender_refuses_bad_response_before_any_power(self, frame, monkeypatch):
        """A response that is not ``count`` elements of bytes fails as
        ``ProtocolError`` naming the frame before the sender's batch of
        powers."""
        group, count = MODP_TEST, 3
        calls = []
        monkeypatch.setattr(
            ModpGroup, "fixed_exponent_powers", lambda self, *args: calls.append(args)
        )
        good = group.encode(pow(group.g, 5, group.p)) * count
        server, client = make_channel_pair(timeout_s=5.0)
        client.send({
            "bytes": b"abc",
            "array": np.frombuffer(good, dtype=np.uint8),
            "uint64": np.frombuffer(good, dtype=np.uint64),
            "short": good[:-1],
            "long": good + b"\x00",
        }.get(frame, frame))
        with pytest.raises(ProtocolError, match="base-OT response"):
            baseot.random_send(server, count, group)
        assert calls == []

    def test_deterministic_with_seeded_randbelow(self, test_group, rng):
        def draw(bound):
            return randbelow_from_rng(rng, bound)

        result = run_protocol(
            lambda ch: baseot.random_send(ch, 3, test_group, randbelow=draw),
            lambda ch: baseot.random_receive(ch, [0, 1, 0], test_group),
        )
        for i, c in enumerate([0, 1, 0]):
            assert result.client[i] == result.server[i][c]
