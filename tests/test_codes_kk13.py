"""Walsh-Hadamard codes and the KK13 1-out-of-N OT extension."""

import numpy as np
import pytest

from repro.crypto import codes
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.errors import CryptoError
from repro.net import run_protocol


def _full_code(n_values: int) -> np.ndarray:
    """All 256 WH columns of codewords [0, N): bit k of codeword j is
    the parity of j & k."""
    j = np.arange(n_values)[:, None]
    k = np.arange(256)[None, :]
    return np.vectorize(lambda v: bin(v).count("1") & 1)(j & k).astype(np.uint8)


class TestCodes:
    def test_code_length(self):
        bits = codes.codeword_bits(4)
        assert bits.shape == (4, 192) == (4, codes.code_length(4))

    def test_code_length_values(self):
        lengths = {n: codes.code_length(n) for n in range(2, 257)}
        assert lengths[2] == 128
        assert lengths[3] == lengths[4] == 192
        assert set(lengths[n] for n in range(5, 257)) == {256}

    @pytest.mark.parametrize("n", range(2, 257))
    def test_kept_columns_are_used(self, n):
        c = codes.code_length(n)
        bits = codes.codeword_bits(n)
        assert c % 64 == 0 and bits.shape == (n, c)
        if c < 256:
            assert bits.any(axis=0).all()  # no kept column is all-zero

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 256])
    def test_dropped_columns_are_exactly_the_zero_columns(self, n):
        full = _full_code(n)
        kept = codes.code_columns(n)
        assert (codes.codeword_bits(n) == full[:, kept]).all()
        dropped = np.setdiff1d(np.arange(256), kept)
        zero = np.flatnonzero(~full.any(axis=0))
        if codes.code_length(n) < 256:
            assert (dropped == zero).all()
        else:  # a count off the 64-column grid keeps the whole code
            assert dropped.size == 0

    @pytest.mark.parametrize("n", range(2, 257))
    def test_minimum_distance_is_half_length(self, n):
        # WH codewords pairwise differ in exactly 128 of the 256 positions,
        # and every dropped position is 0 in all of them.
        assert codes.minimum_distance(n) == 128

    def test_codeword_zero_is_all_zero(self):
        assert codes.codeword_bits(4)[0].sum() == 0

    def test_packed_matches_bits(self):
        bits = codes.codeword_bits(8)
        words = codes.codeword_words(8)
        unpacked = np.unpackbits(
            words.view(np.uint8).reshape(8, -1), axis=1, bitorder="little"
        )
        assert (unpacked == bits).all()

    @pytest.mark.parametrize("n", [0, 1, 257])
    def test_invalid_n(self, n):
        with pytest.raises(CryptoError):
            codes.codeword_bits(n)


def _run_kk13(messages, choices, n_values, group, width):
    return run_protocol(
        lambda ch: Kk13Sender(ch, n_values, group=group, seed=1).send_chosen(messages),
        lambda ch: Kk13Receiver(ch, n_values, group=group, seed=2).recv_chosen(
            choices, width
        ),
    )


class TestKk13:
    @pytest.mark.parametrize("n_values", [2, 3, 4, 8, 16])
    def test_chosen_message_correctness(self, n_values, test_group, rng):
        m = 150
        msgs = rng.integers(0, 1 << 63, size=(m, n_values, 2), dtype=np.uint64)
        choices = rng.integers(0, n_values, size=m)
        result = _run_kk13(msgs, choices, n_values, test_group, 2)
        assert (result.client == msgs[np.arange(m), choices]).all()

    def test_unchosen_messages_not_leaked(self, test_group, rng):
        m, n = 60, 4
        msgs = rng.integers(0, 1 << 63, size=(m, n, 1), dtype=np.uint64)
        choices = np.ones(m, dtype=np.int64)
        result = _run_kk13(msgs, choices, n, test_group, 1)
        assert (result.client[:, 0] == msgs[:, 1, 0]).all()
        for other in (0, 2, 3):
            assert (result.client[:, 0] != msgs[:, other, 0]).all()

    def test_pads_agree_at_choice(self, test_group, rng):
        m, n, width = 40, 4, 3
        choices = rng.integers(0, n, size=m)

        result = run_protocol(
            lambda ch: Kk13Sender(ch, n, group=test_group, seed=1).pads(m, width),
            lambda ch: Kk13Receiver(ch, n, group=test_group, seed=2).pads(choices, width),
        )
        sender_pads, receiver_pads = result.server, result.client
        assert (receiver_pads == sender_pads[np.arange(m), choices]).all()
        # and they disagree everywhere else
        for j in range(n):
            mism = choices != j
            assert (receiver_pads[mism] != sender_pads[mism, j]).any(axis=-1).all()

    def test_session_reuse(self, test_group, rng):
        m, n = 80, 4
        msgs1 = rng.integers(0, 1 << 63, size=(m, n, 1), dtype=np.uint64)
        msgs2 = rng.integers(0, 1 << 63, size=(30, n, 2), dtype=np.uint64)
        choices1 = rng.integers(0, n, size=m)
        choices2 = rng.integers(0, n, size=30)

        def server_fn(ch):
            sender = Kk13Sender(ch, n, group=test_group, seed=1)
            sender.send_chosen(msgs1)
            sender.send_chosen(msgs2)

        def client_fn(ch):
            receiver = Kk13Receiver(ch, n, group=test_group, seed=2)
            return receiver.recv_chosen(choices1, 1), receiver.recv_chosen(choices2, 2)

        result = run_protocol(server_fn, client_fn)
        got1, got2 = result.client
        assert (got1 == msgs1[np.arange(m), choices1]).all()
        assert (got2 == msgs2[np.arange(30), choices2]).all()

    def test_choice_out_of_range(self, test_group):
        def server_fn(ch):
            Kk13Sender(ch, 4, group=test_group, seed=1).send_chosen(
                np.zeros((2, 4, 1), dtype=np.uint64)
            )

        def client_fn(ch):
            return Kk13Receiver(ch, 4, group=test_group, seed=2).recv_chosen([0, 4], 1)

        with pytest.raises(CryptoError):
            run_protocol(server_fn, client_fn, timeout_s=5)

    def test_invalid_n_values(self, test_group):
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        with pytest.raises(CryptoError):
            Kk13Sender(chan, 1, group=test_group)
        with pytest.raises(CryptoError):
            Kk13Receiver(chan, 500, group=test_group)

    def test_message_shape_mismatch(self, test_group):
        from repro.net.channel import make_channel_pair

        chan, _ = make_channel_pair()
        sender = Kk13Sender(chan, 4, group=test_group)
        with pytest.raises(CryptoError):
            sender.send_chosen(np.zeros((2, 3, 1), dtype=np.uint64))

    def test_communication_grows_with_n(self, test_group, rng):
        m = 100

        def traffic(n_values):
            msgs = rng.integers(0, 1 << 63, size=(m, n_values, 1), dtype=np.uint64)
            choices = rng.integers(0, n_values, size=m)
            return _run_kk13(msgs, choices, n_values, test_group, 1).total_bytes

        assert traffic(2) < traffic(4) < traffic(8)

    @pytest.mark.parametrize("n_values", [2, 4, 8])
    def test_u_matrix_is_code_length_bits_per_ot(self, n_values, test_group, rng):
        m = 320
        choices = rng.integers(0, n_values, size=m)

        def server_fn(ch):
            sender = Kk13Sender(ch, n_values, group=test_group, seed=1)
            sender.ensure_seeds()
            return sender.pads(m, 1)

        def client_fn(ch):
            receiver = Kk13Receiver(ch, n_values, group=test_group, seed=2)
            receiver.ensure_seeds()  # the handshake, before counting
            before = ch.stats.bytes_sent[ch.party]
            pads = receiver.pads(choices, 1)
            return pads, ch.stats.bytes_sent[ch.party] - before

        result = run_protocol(server_fn, client_fn)
        pads, u_bytes = result.client
        assert u_bytes == codes.code_length(n_values) * m // 8
        assert (pads == result.server[np.arange(m), choices]).all()
