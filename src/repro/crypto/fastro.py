"""The compiled kernel: the OT extension's inner loops and the base OT's powers.

ABY, the paper's substrate, runs its OT-extension PRG and pad hashing as
fixed-key AES-NI code and its base OTs in native code.  This module is
the stand-in: one small C source, built once per user and machine and
called through ``ctypes``.  Every entry point computes bit-for-bit what
its numpy or Python reference computes, and that reference is also the
fallback:

* **Hashing.**  :func:`expand` is
  :func:`repro.crypto.siphash.prf_expand` — output word ``j`` of a row is
  ``SipHash-2-4(FIXED_KEY, row || domain << 32 | j)`` — with the row
  prefix absorbed once instead of once per output word.
* **OT pads.**  :func:`pads` hashes the rows ``(row_i ^ offset_j) ||
  first + i`` as :func:`expand` would, forming each row as it absorbs it,
  so the KK13 sender's ``(m, N, c/64 + 1)`` hash-input tensor is never
  built.  Its reference builds a bounded block of rows at a time.
* **Column PRG.**  :func:`philox` is multi-key Philox4x64-10 over a
  counter range, the words :func:`repro.crypto.prg._philox_blocks`
  computes; :class:`repro.crypto.prg.BatchPrg` draws through it.
* **Bit transpose.**  :func:`transpose_packed` is the 64x64-tile transpose
  of :func:`repro.utils.bits.transpose_packed`, with the same butterfly.
* **Powers.**  :func:`powers_fixed_exponent` (``b_k^e mod p``: Montgomery
  multiplication on 64-bit limbs, a 4-bit window per base) and
  :func:`powers_fixed_base` (``base^e_k mod p``: a radix-2^6 comb built
  once per call) serve the base OT through
  :class:`repro.crypto.group.ModpGroup`, for an odd ``p`` of at most
  :data:`MAX_MODULUS_LIMBS` limbs and exponents below ``2^256``
  (:func:`modexp_ready`).  They return the same integers as :func:`pow`,
  and like it they are not constant-time.

A call of real size releases the GIL, so shard threads overlap; a small
one (a garbled-gate level is ~1k words, ~20 us) keeps it, because handing
the GIL over a thousand times per prediction makes latency depend on what
the process's other sessions happen to be doing.  :func:`expand` and
:func:`pads` work in bounded row blocks: scratch stays flat and a huge
request becomes a sequence of medium-sized calls.  The powers always
release the GIL.

When the kernel cannot be built or loaded (no C compiler, untrusted
cache) every entry point runs its reference — the same bytes, slower —
and one ``RuntimeWarning`` per process names each fallback.

The shared object is cached in ``<tempfile.gettempdir()>/abnn2-<uid>/``,
created ``0o700``; a directory or ``.so`` that is not owned by the
current user, or that group/other can write, is never loaded.  It is
built on first use, never at import, and a build removes the cached
kernels of older sources (only those the same check admits).
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from repro.crypto.siphash import FIXED_KEY, prf_expand
from repro.utils import bits

#: Soft cap on (rows * out_words) per block: bounds the reference path's
#: scratch to a few MiB per message word and keeps each call short.
_ROW_BLOCK_WORDS = 1 << 19

#: Cap on the working set of one row block of :func:`pads`' reference
#: path, in words: per output word, ``prf_expand``'s message (the row, the
#: OT index and the counter) and about ten words of SipHash state.  256 KiB
#: (measured peak: at most 1.4 times that), whatever the batch, unless a
#: single OT's pads need more.
_PAD_BLOCK_WORDS = 1 << 15

#: Calls touching fewer (input + output) words than this keep the GIL:
#: ~0.2 ms at most, less than one big-int ``pow`` of the base OTs.
_GIL_HELD_WORDS = 1 << 14

#: Widest modulus the exponentiation entry points take, in 64-bit limbs,
#: and the width of their exponents, in 64-bit words (``[0, 2^256)``).
MAX_MODULUS_LIMBS = 32
EXPONENT_WORDS = 4

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>

#define ROTL(x, b) (uint64_t)(((x) << (b)) | ((x) >> (64 - (b))))
#define SIPROUND do { \
    v0 += v1; v1 = ROTL(v1, 13); v1 ^= v0; v0 = ROTL(v0, 32); \
    v2 += v3; v3 = ROTL(v3, 16); v3 ^= v2; \
    v0 += v3; v3 = ROTL(v3, 21); v3 ^= v0; \
    v2 += v1; v1 = ROTL(v1, 17); v1 ^= v2; v2 = ROTL(v2, 32); \
  } while (0)

/* SipHash-2-4 over whole words: a state p[4] absorbs one word, or
 * absorbs the last word c and finalizes. */
static inline void sip_init(uint64_t p[4], uint64_t k0, uint64_t k1) {
    p[0] = 0x736F6D6570736575ULL ^ k0;
    p[1] = 0x646F72616E646F6DULL ^ k1;
    p[2] = 0x6C7967656E657261ULL ^ k0;
    p[3] = 0x7465646279746573ULL ^ k1;
}

static inline void sip_absorb(uint64_t p[4], uint64_t m) {
    uint64_t v0 = p[0], v1 = p[1], v2 = p[2], v3 = p[3];
    v3 ^= m; SIPROUND; SIPROUND; v0 ^= m;
    p[0] = v0; p[1] = v1; p[2] = v2; p[3] = v3;
}

static inline uint64_t sip_finish(const uint64_t p[4], uint64_t c, uint64_t final) {
    uint64_t v0 = p[0], v1 = p[1], v2 = p[2], v3 = p[3];
    v3 ^= c; SIPROUND; SIPROUND; v0 ^= c;
    v3 ^= final; SIPROUND; SIPROUND; v0 ^= final;
    v2 ^= 0xFF;
    SIPROUND; SIPROUND; SIPROUND; SIPROUND;
    return v0 ^ v1 ^ v2 ^ v3;
}

void siphash24_expand(const uint64_t *rows, size_t n_rows, size_t words,
                      uint64_t *out, size_t out_words,
                      uint64_t domain, uint64_t k0, uint64_t k1) {
    uint64_t final = (uint64_t)((8 * (words + 1)) % 256) << 56;
    for (size_t r = 0; r < n_rows; r++) {
        uint64_t p[4];
        sip_init(p, k0, k1);
        for (size_t i = 0; i < words; i++) sip_absorb(p, rows[r * words + i]);
        for (size_t j = 0; j < out_words; j++)
            out[r * out_words + j] = sip_finish(p, (uint64_t)j | (domain << 32), final);
    }
}

/* OT pads: out[r][o][j] hashes the row (rows[r] ^ offsets[o]) || first + r
 * as siphash24_expand hashes it, without building that row. */
void siphash24_pads(const uint64_t *rows, size_t n_rows, size_t words,
                    const uint64_t *offsets, size_t n_off, uint64_t first,
                    uint64_t *out, size_t out_words,
                    uint64_t domain, uint64_t k0, uint64_t k1) {
    uint64_t final = (uint64_t)((8 * (words + 2)) % 256) << 56;
    for (size_t r = 0; r < n_rows; r++) {
        const uint64_t *row = rows + r * words;
        for (size_t o = 0; o < n_off; o++) {
            const uint64_t *off = offsets + o * words;
            uint64_t p[4];
            sip_init(p, k0, k1);
            for (size_t i = 0; i < words; i++) sip_absorb(p, row[i] ^ off[i]);
            sip_absorb(p, first + r);
            uint64_t *dst = out + (r * n_off + o) * out_words;
            for (size_t j = 0; j < out_words; j++)
                dst[j] = sip_finish(p, (uint64_t)j | (domain << 32), final);
        }
    }
}

/* Philox4x64-10 (Random123, as numpy's Philox runs it) for k keys over
 * the counters first, first + 1, ...: out[key][4 b + i] is word i of
 * block b, so each key's row is its output stream. */
typedef unsigned __int128 u128;

void philox4x64_10(const uint64_t *key0, const uint64_t *key1, size_t k,
                   uint64_t first, size_t blocks, uint64_t *out) {
    const uint64_t M0 = 0xD2E7470EE14C6C93ULL, M1 = 0xCA5A826395121157ULL;
    const uint64_t W0 = 0x9E3779B97F4A7C15ULL, W1 = 0xBB67AE8584CAA73BULL;
    for (size_t key = 0; key < k; key++) {
        uint64_t *dst = out + key * 4 * blocks;
        for (size_t b = 0; b < blocks; b++) {
            uint64_t x0 = first + b, x1 = 0, x2 = 0, x3 = 0;
            uint64_t k0 = key0[key], k1 = key1[key];
            for (int round = 0; round < 10; round++) {
                if (round) { k0 += W0; k1 += W1; }
                u128 p0 = (u128)M0 * x0, p1 = (u128)M1 * x2;
                uint64_t y0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;
                uint64_t y2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
                x1 = (uint64_t)p1; x3 = (uint64_t)p0; x0 = y0; x2 = y2;
            }
            dst[4 * b] = x0; dst[4 * b + 1] = x1;
            dst[4 * b + 2] = x2; dst[4 * b + 3] = x3;
        }
    }
}

/* The packed 64x64 bit-tile transpose: rows is (r, w) words, r a multiple
 * of 64; out is (64 w, r / 64) words, out[64 wc + c] bit i of word rt is
 * bit c of rows[64 rt + i][wc].  The same butterfly masked swaps, in the
 * same order, as utils.bits._transpose_tiles. */
void transpose_packed(const uint64_t *rows, size_t r, size_t w, uint64_t *out) {
    static const uint64_t masks[6] = {
        0xFFFFFFFF00000000ULL, 0xFFFF0000FFFF0000ULL, 0xFF00FF00FF00FF00ULL,
        0xF0F0F0F0F0F0F0F0ULL, 0xCCCCCCCCCCCCCCCCULL, 0xAAAAAAAAAAAAAAAAULL,
    };
    size_t tiles = r / 64;
    for (size_t wc = 0; wc < w; wc++) {
        for (size_t rt = 0; rt < tiles; rt++) {
            uint64_t x[64];
            for (size_t i = 0; i < 64; i++) x[i] = rows[(64 * rt + i) * w + wc];
            for (int s = 0; s < 6; s++) {
                unsigned j = 32u >> s;
                uint64_t mask = masks[s];
                for (unsigned g = 0; g < 64; g += 2 * j)
                    for (unsigned i = g; i < g + j; i++) {
                        uint64_t t = ((x[i + j] << j) ^ x[i]) & mask;
                        x[i] ^= t;
                        x[i + j] ^= t >> j;
                    }
            }
            for (size_t c = 0; c < 64; c++) out[(64 * wc + c) * tiles + rt] = x[c];
        }
    }
}

/* Modular exponentiation for the base OT: n little-endian 64-bit limbs
 * per residue, an odd modulus p < 2^(64 n), n <= MAX_LIMBS, Montgomery
 * radix R = 2^(64 n); pinv = -p^-1 mod 2^64 and r2 = R^2 mod p. */
#define MAX_LIMBS 32

/* t = a b / R mod p, fully reduced, for a, b < p.  Product scanning
 * (FIPS): column i of a b + m p, m chosen limb by limb so the low n
 * columns vanish, is summed into a 192-bit accumulator (acc, hi) before
 * the next column starts, so the multiplications of a column do not
 * wait on each other's carries.  t is written last: it may alias a or b. */
static void mont_mul(uint64_t *t, const uint64_t *a, const uint64_t *b,
                     const uint64_t *p, size_t n, uint64_t pinv) {
    uint64_t m[MAX_LIMBS], s[MAX_LIMBS + 1];
    u128 acc = 0;
    uint64_t hi = 0;
#define MAC(x, y) do { u128 pr = (u128)(x) * (y); acc += pr; hi += acc < pr; } while (0)
#define NEXT_COLUMN() do { acc = (acc >> 64) | ((u128)hi << 64); hi = 0; } while (0)
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < i; j++) {
            MAC(a[j], b[i - j]);
            MAC(m[j], p[i - j]);
        }
        MAC(a[i], b[0]);
        m[i] = (uint64_t)acc * pinv;
        MAC(m[i], p[0]);  /* the column's low word is now 0 */
        NEXT_COLUMN();
    }
    for (size_t i = n; i < 2 * n - 1; i++) {
        for (size_t j = i - n + 1; j < n; j++) {
            MAC(a[j], b[i - j]);
            MAC(m[j], p[i - j]);
        }
        s[i - n] = (uint64_t)acc;
        NEXT_COLUMN();
    }
#undef MAC
#undef NEXT_COLUMN
    s[n - 1] = (uint64_t)acc;
    s[n] = (uint64_t)(acc >> 64);
    int ge = s[n] != 0;  /* s < 2p: subtract p once if s >= p */
    if (!ge) {
        ge = 1;
        for (size_t j = n; j-- > 0;)
            if (s[j] != p[j]) { ge = s[j] > p[j]; break; }
    }
    uint64_t borrow = 0;
    for (size_t j = 0; j < n; j++) {
        uint64_t sub = ge ? p[j] : 0;
        u128 d = (u128)s[j] - sub - borrow;
        t[j] = (uint64_t)d; borrow = (uint64_t)(d >> 64) & 1;
    }
}

static void from_mont(uint64_t *out, const uint64_t *x, const uint64_t *p,
                      size_t n, uint64_t pinv) {
    uint64_t one[MAX_LIMBS] = {1};
    mont_mul(out, x, one, p, n, pinv);
}

/* out = base^e mod p, left to right over 4-bit windows of e. */
static void window_pow(uint64_t *out, const uint64_t *base, const uint64_t *e,
                       size_t e_words, const uint64_t *p, size_t n,
                       uint64_t pinv, const uint64_t *r2) {
    uint64_t table[16][MAX_LIMBS], acc[MAX_LIMBS], one[MAX_LIMBS] = {1};
    mont_mul(table[0], one, r2, p, n, pinv);  /* R mod p */
    mont_mul(table[1], base, r2, p, n, pinv);
    for (int d = 2; d < 16; d++)
        mont_mul(table[d], table[d - 1], table[1], p, n, pinv);
    for (size_t j = 0; j < n; j++) acc[j] = table[0][j];
    for (size_t w = 16 * e_words; w-- > 0;) {
        for (int sq = 0; sq < 4; sq++) mont_mul(acc, acc, acc, p, n, pinv);
        unsigned d = (unsigned)(e[w / 16] >> (4 * (w % 16))) & 15;
        if (d) mont_mul(acc, acc, table[d], p, n, pinv);
    }
    from_mont(out, acc, p, n, pinv);
}

/* out[k] = bases[k]^e mod p. */
void modexp_fixed_exponent(const uint64_t *bases, size_t count,
                           const uint64_t *e, size_t e_words,
                           const uint64_t *p, size_t n, uint64_t pinv,
                           const uint64_t *r2, uint64_t *out) {
    for (size_t k = 0; k < count; k++)
        window_pow(out + k * n, bases + k * n, e, e_words, p, n, pinv, r2);
}

/* out[k] = base^(exps[k]) mod p: a radix-2^6 comb whose row i holds
 * base^(d 2^(6 i)) for every digit d, built once per call.  Building
 * its 43 rows of 63 entries costs about as much as 8 windowed powers, so
 * a smaller batch takes the window.  Returns -1 when the comb cannot be
 * allocated. */
int modexp_fixed_base(const uint64_t *base, const uint64_t *exps, size_t count,
                      size_t e_words, const uint64_t *p, size_t n,
                      uint64_t pinv, const uint64_t *r2, uint64_t *out) {
    if (count < 8) {
        for (size_t k = 0; k < count; k++)
            window_pow(out + k * n, base, exps + k * e_words, e_words, p, n, pinv, r2);
        return 0;
    }
    size_t rows = (64 * e_words + 5) / 6;
    uint64_t *comb = malloc(rows * 64 * n * sizeof(uint64_t));
    if (!comb) return -1;
    uint64_t one[MAX_LIMBS] = {1}, step[MAX_LIMBS], acc[MAX_LIMBS];
    mont_mul(step, base, r2, p, n, pinv);
    for (size_t i = 0; i < rows; i++) {
        uint64_t *row = comb + i * 64 * n;
        for (size_t j = 0; j < n; j++) row[n + j] = step[j];
        for (int d = 2; d < 64; d++)
            mont_mul(row + d * n, row + (d - 1) * n, step, p, n, pinv);
        mont_mul(step, row + 63 * n, step, p, n, pinv);  /* base^(2^(6 (i + 1))) */
    }
    for (size_t k = 0; k < count; k++) {
        const uint64_t *e = exps + k * e_words;
        mont_mul(acc, one, r2, p, n, pinv);
        for (size_t i = 0; i < rows; i++) {
            size_t bit = 6 * i, w = bit / 64, off = bit % 64;
            uint64_t v = e[w] >> off;
            if (off > 58 && w + 1 < e_words) v |= e[w + 1] << (64 - off);
            unsigned d = (unsigned)v & 63;
            if (d) mont_mul(acc, acc, comb + (i * 64 + d) * n, p, n, pinv);
        }
        from_mont(out + k * n, acc, p, n, pinv);
    }
    free(comb);
    return 0;
}
"""

class _Kernel(NamedTuple):
    """The loaded shared object, twice: ctypes releases the GIL around
    each call into ``released`` and holds it around calls into ``held``."""

    released: object  # ctypes.CDLL
    held: object  # ctypes.PyDLL

    def call(self, name: str, words: int, *args):
        """Entry point ``name`` on ``args``, with the GIL held when the
        call touches fewer than :data:`_GIL_HELD_WORDS` words."""
        lib = self.held if words < _GIL_HELD_WORDS else self.released
        return getattr(lib, name)(*args)


_kernel_lock = threading.Lock()
# None = not probed, False = unusable, else a _Kernel
_kernel = None


def _signatures(ctypes) -> dict:
    """``name: (argtypes, restype)`` of every entry point."""
    ptr, size, u64 = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64
    return {
        "siphash24_expand": ([ptr, size, size, ptr, size, u64, u64, u64], None),
        "siphash24_pads": (
            [ptr, size, size, ptr, size, u64, ptr, size, u64, u64, u64], None
        ),
        "philox4x64_10": ([ptr, ptr, size, u64, size, ptr], None),
        "transpose_packed": ([ptr, size, size, ptr], None),
        "modexp_fixed_exponent": ([ptr, size, ptr, size, ptr, size, u64, ptr, ptr], None),
        "modexp_fixed_base": ([ptr, ptr, size, size, ptr, size, u64, ptr, ptr], ctypes.c_int),
    }


def _build_kernel():
    """Build (or find cached) and load the kernel; ``None`` if impossible."""
    import ctypes
    import hashlib
    import os
    import stat
    import subprocess
    import tempfile

    def private(path: str, is_kind) -> bool:
        st = os.lstat(path)
        return is_kind(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022

    try:
        cache = os.path.join(tempfile.gettempdir(), f"abnn2-{os.getuid()}")
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not private(cache, stat.S_ISDIR):
            return None
        tag = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
        so_path = os.path.join(cache, f"sipkern-{tag}.so")
        if not os.path.exists(so_path):
            with tempfile.TemporaryDirectory(dir=cache) as build:
                src, built = os.path.join(build, "k.c"), os.path.join(build, "k.so")
                with open(src, "w") as fh:
                    fh.write(_KERNEL_SOURCE)
                for cc in ("cc", "gcc", "clang"):
                    try:
                        proc = subprocess.run(
                            [cc, "-O3", "-shared", "-fPIC", "-o", built, src],
                            capture_output=True, timeout=60.0,
                        )
                    except (OSError, subprocess.TimeoutExpired):
                        continue
                    if proc.returncode == 0:
                        os.chmod(built, 0o700)
                        os.replace(built, so_path)  # atomic vs concurrent builders
                        _remove_stale(cache, so_path, private)
                        break
        if not private(so_path, stat.S_ISREG):
            return None
        kernel = _Kernel(ctypes.CDLL(so_path), ctypes.PyDLL(so_path))
        for name, (argtypes, restype) in _signatures(ctypes).items():
            for lib in kernel:
                entry = getattr(lib, name)
                entry.argtypes, entry.restype = argtypes, restype
    except (OSError, AttributeError):  # AttributeError: no os.getuid (non-POSIX)
        return None
    return kernel


def _remove_stale(cache: str, current: str, private) -> None:
    """Delete the kernels of older sources next to a fresh build: every
    other ``sipkern-*.so`` in the cache that is a regular file of this
    user no one else can write.  Anything else is left alone."""
    import glob
    import os
    import stat

    for path in glob.glob(os.path.join(glob.escape(cache), "sipkern-*.so")):
        try:
            if path != current and private(path, stat.S_ISREG):
                os.remove(path)
        except OSError:
            pass  # gone already, or not ours to remove


def _load_kernel():
    """Probe for the kernel once per process (thread-safe)."""
    global _kernel
    if _kernel is None:
        with _kernel_lock:
            if _kernel is None:
                _kernel = _build_kernel() or False
                if not _kernel:
                    warnings.warn(
                        "compiled kernel unavailable (no C compiler, or an "
                        "untrusted cache directory); the numpy references run "
                        "instead, with the same bytes: hashing about 20x "
                        "slower, the OT pads and the column PRG about 10x, the "
                        "packed bit transpose about 3x, and the base-OT "
                        "exponentiations run on Python's pow, about 5x slower",
                        RuntimeWarning,
                        stacklevel=3,
                    )
    return _kernel


def kernel_active() -> bool:
    """Whether the compiled kernel is loaded: hashing, the OT pads, the
    column PRG and the packed transpose run through it (else through their
    references), and so do the powers :func:`modexp_ready` admits."""
    return bool(_load_kernel())


def expand(rows: np.ndarray, out_words: int, domain: int) -> np.ndarray:
    """Hash ``(..., words)`` uint64 rows to ``(..., out_words)`` words.

    Identical to ``prf_expand(rows, out_words, domain)``; ``out_words >= 1``
    and ``domain`` in ``[0, 2**32)`` are ``default_ro.mask``'s checks.
    """
    lead, words = rows.shape[:-1], rows.shape[-1]
    n_rows = math.prod(lead)
    flat = np.ascontiguousarray(rows.reshape(n_rows, words), dtype=np.uint64)
    out = np.empty((n_rows, out_words), dtype=np.uint64)
    block = max(1, _ROW_BLOCK_WORDS // out_words)
    kernel = _load_kernel()
    for lo in range(0, n_rows, block):
        hi = min(n_rows, lo + block)
        if kernel:
            kernel.call(
                "siphash24_expand", (hi - lo) * (words + out_words),
                flat[lo:hi].ctypes.data, hi - lo, words,
                out[lo:hi].ctypes.data, out_words,
                domain, FIXED_KEY[0], FIXED_KEY[1],
            )
        else:
            out[lo:hi] = prf_expand(flat[lo:hi], out_words, domain)
    return out.reshape(lead + (out_words,))


def pads(
    rows: np.ndarray, offsets: np.ndarray, first: int, out_words: int, domain: int
) -> np.ndarray:
    """OT pads: ``(m, n_off, out_words)`` words, entry ``[i, j]`` being
    ``expand`` of the row ``(rows[i] ^ offsets[j]) || first + i``.

    ``rows`` is ``(m, words)`` and ``offsets`` ``(n_off, words)`` uint64;
    the OT index ``first + i`` wraps mod ``2**64``.  The kernel hashes
    each row without building it; the reference builds a bounded block
    of rows at a time (:data:`_PAD_BLOCK_WORDS`) and hashes it with
    ``prf_expand``.  ``default_ro.pads`` checks the arguments.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    offsets = np.ascontiguousarray(offsets, dtype=np.uint64)
    (m, words), n_off = rows.shape, offsets.shape[0]
    out = np.empty((m, n_off, out_words), dtype=np.uint64)
    kernel = _load_kernel()
    if kernel:
        block = max(1, _ROW_BLOCK_WORDS // (n_off * out_words))
    else:
        block = max(1, _PAD_BLOCK_WORDS // (n_off * out_words * (words + 12)))
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        if kernel:
            kernel.call(
                "siphash24_pads", (hi - lo) * (words + n_off * out_words),
                rows[lo:hi].ctypes.data, hi - lo, words,
                offsets.ctypes.data, n_off, (first + lo) % (1 << 64),
                out[lo:hi].ctypes.data, out_words,
                domain, FIXED_KEY[0], FIXED_KEY[1],
            )
        else:
            msg = np.empty((hi - lo, n_off, words + 1), dtype=np.uint64)
            np.bitwise_xor(rows[lo:hi, None, :], offsets[None, :, :], out=msg[:, :, :words])
            index = np.arange(lo, hi, dtype=np.uint64) + np.uint64(first % (1 << 64))
            msg[:, :, words] = index[:, None]
            out[lo:hi] = prf_expand(msg, out_words, domain)
    return out


def philox(key0: np.ndarray, key1: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 of ``K`` keys over the counters ``first, ...,
    first + blocks - 1``: ``(K, 4 blocks)`` uint64, each row a key's
    output stream.  ``key0``/``key1`` are the keys' ``(K,)`` uint64 low
    and high words; :func:`kernel_active` only.
    :func:`repro.crypto.prg._philox_blocks` is the reference."""
    key0 = np.ascontiguousarray(key0, dtype=np.uint64)
    key1 = np.ascontiguousarray(key1, dtype=np.uint64)
    out = np.empty((key0.shape[0], 4 * blocks), dtype=np.uint64)
    _kernel.call(
        "philox4x64_10", out.size,
        key0.ctypes.data, key1.ctypes.data, key0.shape[0], first, blocks, out.ctypes.data,
    )
    return out


def transpose_packed(rows: np.ndarray) -> np.ndarray:
    """:func:`repro.utils.bits.transpose_packed` through the kernel: the
    same words, and the same function when the kernel is not loaded."""
    arr = np.ascontiguousarray(rows, dtype=np.uint64)
    kernel = _load_kernel()
    if not kernel or arr.ndim != 2 or arr.shape[0] % 64 or arr.size == 0:
        return bits.transpose_packed(arr)  # and its errors
    r, w = arr.shape
    out = np.empty((w * 64, r // 64), dtype=np.uint64)
    kernel.call("transpose_packed", arr.size, arr.ctypes.data, r, w, out.ctypes.data)
    return out


def modexp_ready(p: int) -> bool:
    """Whether powers mod ``p`` run through the kernel: it is loaded, ``p``
    is odd and at most :data:`MAX_MODULUS_LIMBS` limbs, and the host
    stores words little-endian (the limb order :func:`_limbs` writes)."""
    return (
        p > 2 and p & 1 == 1 and p.bit_length() <= 64 * MAX_MODULUS_LIMBS
        and sys.byteorder == "little" and bool(_load_kernel())
    )


@functools.lru_cache(maxsize=8)
def _montgomery(p: int) -> tuple[int, np.ndarray, int, np.ndarray]:
    """``(n, p's limbs, -p^-1 mod 2^64, R^2 mod p's limbs)`` for ``p`` in
    ``n`` limbs and the Montgomery radix ``R = 2^(64 n)``."""
    n = -(-p.bit_length() // 64)
    pinv = -pow(p, -1, 1 << 64) % (1 << 64)
    return n, _limbs([p], n), pinv, _limbs([pow(2, 128 * n, p)], n)


def _limbs(values: Sequence[int], n: int) -> np.ndarray:
    return np.frombuffer(b"".join(v.to_bytes(8 * n, "little") for v in values), dtype=np.uint64)


def _ints(words: np.ndarray, n: int) -> list[int]:
    raw = words.tobytes()
    return [int.from_bytes(raw[k : k + 8 * n], "little") for k in range(0, len(raw), 8 * n)]


def powers_fixed_exponent(bases: Sequence[int], exponent: int, p: int) -> list[int]:
    """``[b^exponent mod p for b in bases]`` in one call: each ``b`` in
    ``[0, p)``, ``exponent`` in ``[0, 2^256)``, :func:`modexp_ready` ``(p)``."""
    n, p_limbs, pinv, r2 = _montgomery(p)
    base_limbs = _limbs(bases, n)
    e_limbs = _limbs([exponent], EXPONENT_WORDS)
    out = np.empty(len(bases) * n, dtype=np.uint64)
    _kernel.released.modexp_fixed_exponent(
        base_limbs.ctypes.data, len(bases), e_limbs.ctypes.data, EXPONENT_WORDS,
        p_limbs.ctypes.data, n, pinv, r2.ctypes.data, out.ctypes.data,
    )
    return _ints(out, n)


def powers_fixed_base(base: int, exponents: Sequence[int], p: int) -> list[int]:
    """``[base^e mod p for e in exponents]`` in one call: ``base`` in
    ``[0, p)``, each ``e`` in ``[0, 2^256)``, :func:`modexp_ready` ``(p)``."""
    n, p_limbs, pinv, r2 = _montgomery(p)
    base_limbs = _limbs([base], n)
    e_limbs = _limbs(exponents, EXPONENT_WORDS)
    out = np.empty(len(exponents) * n, dtype=np.uint64)
    if _kernel.released.modexp_fixed_base(
        base_limbs.ctypes.data, e_limbs.ctypes.data, len(exponents), EXPONENT_WORDS,
        p_limbs.ctypes.data, n, pinv, r2.ctypes.data, out.ctypes.data,
    ):
        raise MemoryError("modexp_fixed_base: comb table allocation failed")
    return _ints(out, n)
