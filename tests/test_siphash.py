"""Vectorized SipHash-2-4 against an independent scalar reference, and
the compiled kernel against the vectorized code."""

import os
import shutil
import stat
import tempfile

import numpy as np
import pytest

from repro.crypto import fastro
from repro.crypto.siphash import FIXED_KEY, prf_expand, siphash24
from repro.errors import CryptoError
from repro.perf.trace import Tracer

MASK = (1 << 64) - 1


def _rotl(x, b):
    return ((x << b) | (x >> (64 - b))) & MASK


def _sipround(v):
    v0, v1, v2, v3 = v
    v0 = (v0 + v1) & MASK
    v1 = _rotl(v1, 13) ^ v0
    v0 = _rotl(v0, 32)
    v2 = (v2 + v3) & MASK
    v3 = _rotl(v3, 16) ^ v2
    v0 = (v0 + v3) & MASK
    v3 = _rotl(v3, 21) ^ v0
    v2 = (v2 + v1) & MASK
    v1 = _rotl(v1, 17) ^ v2
    v2 = _rotl(v2, 32)
    return [v0, v1, v2, v3]


def reference_siphash24(words, key=FIXED_KEY):
    """Scalar SipHash-2-4 for whole-u64 messages, straight from the spec."""
    v = [
        0x736F6D6570736575 ^ key[0],
        0x646F72616E646F6D ^ key[1],
        0x6C7967656E657261 ^ key[0],
        0x7465646279746573 ^ key[1],
    ]
    for m in words:
        v[3] ^= m
        v = _sipround(v)
        v = _sipround(v)
        v[0] ^= m
    final = ((8 * len(words)) % 256) << 56
    v[3] ^= final
    v = _sipround(v)
    v = _sipround(v)
    v[0] ^= final
    v[2] ^= 0xFF
    for _ in range(4):
        v = _sipround(v)
    return v[0] ^ v[1] ^ v[2] ^ v[3]


class TestKnownVector:
    def test_official_len8_vector(self):
        # SipHash reference vectors: key 00..0f, message bytes 00..07
        # digest bytes 62 24 93 9a 79 f5 f5 93 (little endian u64 below).
        msg = np.array([[0x0706050403020100]], dtype=np.uint64)
        assert int(siphash24(msg)[0]) == 0x93F5F5799A932462


class TestAgainstReference:
    @pytest.mark.parametrize("words", [1, 2, 3, 5, 8])
    def test_random_messages(self, words, rng):
        msgs = rng.integers(0, 1 << 63, size=(50, words), dtype=np.uint64)
        got = siphash24(msgs)
        for i in range(msgs.shape[0]):
            assert int(got[i]) == reference_siphash24([int(w) for w in msgs[i]])

    def test_key_changes_output(self, rng):
        msg = rng.integers(0, 1 << 63, size=(1, 2), dtype=np.uint64)
        a = siphash24(msg, key=(1, 2))
        b = siphash24(msg, key=(1, 3))
        assert int(a[0]) != int(b[0])

    def test_multidimensional_batches(self, rng):
        msgs = rng.integers(0, 1 << 63, size=(4, 5, 2), dtype=np.uint64)
        got = siphash24(msgs)
        assert got.shape == (4, 5)
        assert int(got[1, 2]) == reference_siphash24([int(w) for w in msgs[1, 2]])


class TestPrfExpand:
    def test_shape(self, rng):
        msgs = rng.integers(0, 1 << 63, size=(7, 3), dtype=np.uint64)
        out = prf_expand(msgs, out_words=5)
        assert out.shape == (7, 5)

    def test_output_words_differ(self, rng):
        msgs = rng.integers(0, 1 << 63, size=(4, 2), dtype=np.uint64)
        out = prf_expand(msgs, out_words=4)
        # Each column comes from a distinct counter: columns must differ.
        assert len({int(x) for x in out[0]}) == 4

    def test_domain_separation(self, rng):
        msgs = rng.integers(0, 1 << 63, size=(4, 2), dtype=np.uint64)
        a = prf_expand(msgs, 2, domain=1)
        b = prf_expand(msgs, 2, domain=2)
        assert (a != b).any()

    def test_matches_direct_siphash(self, rng):
        msgs = rng.integers(0, 1 << 63, size=(3, 2), dtype=np.uint64)
        out = prf_expand(msgs, out_words=2, domain=0)
        for i in range(3):
            for j in range(2):
                expect = reference_siphash24([int(msgs[i, 0]), int(msgs[i, 1]), j])
                assert int(out[i, j]) == expect

    def test_invalid_out_words(self):
        with pytest.raises(CryptoError):
            prf_expand(np.zeros((1, 1), dtype=np.uint64), 0)


# --------------------------------------------------------------------- #
# the compiled kernel (repro.crypto.fastro) against this reference
# --------------------------------------------------------------------- #
needs_compiler = pytest.mark.skipif(
    not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
    reason="no C compiler: the kernel cannot be built here",
)

_ROWS = np.random.default_rng(9).integers(0, 1 << 63, size=4096 * 17, dtype=np.uint64)


def _rows(*shape):
    return _ROWS[: int(np.prod(shape))].reshape(shape)


@pytest.fixture
def fresh_probe(monkeypatch, tmp_path):
    """Re-run the once-per-process kernel probe against an empty cache."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(fastro, "_kernel", None)
    return tmp_path / f"abnn2-{os.getuid()}"


class TestKernel:
    @needs_compiler
    @pytest.mark.parametrize("domain", [0, 1, 2**32 - 1])
    @pytest.mark.parametrize("shape,width", [
        ((7, 3), 1), ((5, 4, 5), 16), ((1, 1), 4), ((33, 2, 6), 3),  # ragged leads
        ((0, 3), 2), ((2, 0, 3), 2),  # no rows
        ((9, 1), 17), ((4, 2, 1), 5),  # one-word rows
        ((4096, 3), 2),  # past _GIL_HELD_WORDS: the GIL-releasing entry point
    ])
    def test_kernel_matches_reference(self, shape, width, domain):
        assert fastro.kernel_active()
        rows = _rows(*shape)
        got = fastro.expand(rows, width, domain)
        assert got.shape == shape[:-1] + (width,)
        assert np.array_equal(got, prf_expand(rows, width, domain))

    @needs_compiler
    @pytest.mark.parametrize("width", range(1, 18))
    def test_kernel_matches_reference_across_a_row_block(self, width, monkeypatch):
        """Row counts one short of, at, and one past a block boundary."""
        assert fastro.kernel_active()
        monkeypatch.setattr(fastro, "_ROW_BLOCK_WORDS", 64 * width)
        for n_rows in (63, 64, 65, 129):
            rows = _rows(n_rows, 5)
            assert np.array_equal(fastro.expand(rows, width, 3), prf_expand(rows, width, 3))

    @needs_compiler
    def test_forced_fallback_matches_kernel(self, monkeypatch):
        rows = _rows(19, 4, 5)
        monkeypatch.setattr(fastro, "_ROW_BLOCK_WORDS", 8 * 30)  # several blocks
        kernel = fastro.expand(rows, 8, 2)
        monkeypatch.setattr(fastro, "_kernel", False)
        assert not fastro.kernel_active()
        assert np.array_equal(fastro.expand(rows, 8, 2), kernel)

    @needs_compiler
    def test_cache_is_private_and_reused(self, fresh_probe):
        assert fastro.kernel_active()
        assert stat.S_IMODE(fresh_probe.stat().st_mode) == 0o700
        (so_path,) = fresh_probe.iterdir()  # no .c / .tmp left behind
        built = so_path.stat().st_mtime_ns
        fastro._kernel = None
        assert fastro.kernel_active() and so_path.stat().st_mtime_ns == built

    @needs_compiler
    @pytest.mark.parametrize("planted", ["directory", "so"])
    def test_untrusted_cache_is_not_loaded(self, fresh_probe, planted):
        """A cache anyone else could have written falls back to the reference."""
        rows = _rows(11, 5)
        want = fastro.expand(rows, 4, 1)
        assert fastro.kernel_active()
        (so_path,) = fresh_probe.iterdir()
        (fresh_probe if planted == "directory" else so_path).chmod(0o777)
        fastro._kernel = None
        with pytest.warns(RuntimeWarning, match="SipHash kernel unavailable"):
            assert not fastro.kernel_active()
        assert np.array_equal(fastro.expand(rows, 4, 1), want)

    def test_fallback_warns_once_and_the_trace_says_so(self, fresh_probe, monkeypatch):
        """No compiler on PATH: one warning per process, ``ro_kernel: false``."""
        monkeypatch.setenv("PATH", str(fresh_probe))
        rows = _rows(6, 2)
        with pytest.warns(RuntimeWarning) as caught:
            got = fastro.expand(rows, 3, 0)
            fastro.expand(rows, 3, 0)
            assert Tracer().to_dict()["root"]["attrs"]["ro_kernel"] is False
        assert len(caught) == 1
        assert np.array_equal(got, prf_expand(rows, 3, 0))

    def test_trace_header_names_the_active_path(self):
        assert Tracer().to_dict()["root"]["attrs"]["ro_kernel"] is fastro.kernel_active()
