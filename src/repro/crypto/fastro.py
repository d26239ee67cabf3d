"""The compiled kernel: the random oracle's SipHash and the base OT's powers.

ABY, the paper's substrate, hashes OT-extension pads and garbled-gate
labels with fixed-key AES-NI and runs its base OTs in native code.  This
module is the stand-in: one small C kernel, built once per user and
machine and called through ``ctypes``, with two jobs.

Hashing.  :func:`expand` computes bit-for-bit what
:func:`repro.crypto.siphash.prf_expand` computes — output word ``j`` of a
row is ``SipHash-2-4(FIXED_KEY, row || domain << 32 | j)`` — with the row
prefix absorbed once instead of once per output word.  A block of real
size releases the GIL for the call, so shard threads overlap; a small one
(a garbled-gate level is ~1k words, ~20 us) keeps it, because handing the
GIL over a thousand times per prediction makes latency depend on what the
process's other sessions happen to be doing.  :func:`expand` works in
bounded row blocks: scratch stays flat and a huge request becomes a
sequence of medium-sized calls.

Powers.  :func:`powers_fixed_exponent` (``b_k^e mod p``: Montgomery
multiplication on 64-bit limbs, a 4-bit window per base) and
:func:`powers_fixed_base` (``base^e_k mod p``: a radix-2^6 comb built once
per call) serve the base OT through
:class:`repro.crypto.group.ModpGroup`, for an odd ``p`` of at most
:data:`MAX_MODULUS_LIMBS` limbs and exponents below ``2^256``
(:func:`modexp_ready`).  Each call releases the GIL.  They return the
same integers as :func:`pow`, and like it they are not constant-time.

When the kernel cannot be built or loaded (no C compiler, untrusted
cache) each hash block goes through ``prf_expand`` instead — same bytes,
about 20x slower — the group runs its powers with :func:`pow` and its
Python comb tables — same integers, about 5x slower — and one
``RuntimeWarning`` per process says so.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.crypto.siphash import FIXED_KEY, prf_expand

#: Soft cap on (rows * out_words) per block: bounds the reference path's
#: scratch to a few MiB per message word and keeps each call short.
_ROW_BLOCK_WORDS = 1 << 19

#: Blocks of fewer (input + output) words than this hash with the GIL
#: held: ~0.2 ms at most, less than one big-int ``pow`` of the base OTs.
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

void siphash24_expand(const uint64_t *rows, size_t n_rows, size_t words,
                      uint64_t *out, size_t out_words,
                      uint64_t domain, uint64_t k0, uint64_t k1) {
    uint64_t final = (uint64_t)((8 * (words + 1)) % 256) << 56;
    for (size_t r = 0; r < n_rows; r++) {
        uint64_t p0 = 0x736F6D6570736575ULL ^ k0;
        uint64_t p1 = 0x646F72616E646F6DULL ^ k1;
        uint64_t p2 = 0x6C7967656E657261ULL ^ k0;
        uint64_t p3 = 0x7465646279746573ULL ^ k1;
        const uint64_t *row = rows + r * words;
        for (size_t i = 0; i < words; i++) {
            uint64_t m = row[i];
            uint64_t v0 = p0, v1 = p1, v2 = p2, v3 = p3;
            v3 ^= m; SIPROUND; SIPROUND; v0 ^= m;
            p0 = v0; p1 = v1; p2 = v2; p3 = v3;
        }
        for (size_t j = 0; j < out_words; j++) {
            uint64_t c = (uint64_t)j | (domain << 32);
            uint64_t v0 = p0, v1 = p1, v2 = p2, v3 = p3;
            v3 ^= c; SIPROUND; SIPROUND; v0 ^= c;
            v3 ^= final; SIPROUND; SIPROUND; v0 ^= final;
            v2 ^= 0xFF;
            SIPROUND; SIPROUND; SIPROUND; SIPROUND;
            out[r * out_words + j] = v0 ^ v1 ^ v2 ^ v3;
        }
    }
}

/* Modular exponentiation for the base OT: n little-endian 64-bit limbs
 * per residue, an odd modulus p < 2^(64 n), n <= MAX_LIMBS, Montgomery
 * radix R = 2^(64 n); pinv = -p^-1 mod 2^64 and r2 = R^2 mod p. */
#define MAX_LIMBS 32
typedef unsigned __int128 u128;

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
    """The loaded entry points (ctypes functions)."""

    expand: Callable  # siphash24_expand, GIL released for the call
    expand_held: Callable  # the same function, GIL held
    fixed_exponent: Callable  # modexp_fixed_exponent, GIL released
    fixed_base: Callable  # modexp_fixed_base, GIL released


_kernel_lock = threading.Lock()
# None = not probed, False = unusable, else a _Kernel
_kernel = None


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
        released, held = ctypes.CDLL(so_path), ctypes.PyDLL(so_path)
        kernel = _Kernel(
            released.siphash24_expand, held.siphash24_expand,
            released.modexp_fixed_exponent, released.modexp_fixed_base,
        )
    except (OSError, AttributeError):  # AttributeError: no os.getuid (non-POSIX)
        return None
    ptr, size, u64 = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64
    for entry in kernel[:2]:
        entry.argtypes = [ptr, size, size, ptr, size, u64, u64, u64]
        entry.restype = None
    kernel.fixed_exponent.argtypes = [ptr, size, ptr, size, ptr, size, u64, ptr, ptr]
    kernel.fixed_exponent.restype = None
    kernel.fixed_base.argtypes = [ptr, ptr, size, size, ptr, size, u64, ptr, ptr]
    kernel.fixed_base.restype = ctypes.c_int
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
                        "SipHash kernel unavailable (no C compiler, or an "
                        "untrusted cache directory); hashing falls back to the "
                        "numpy reference, about 20x slower, and the base-OT "
                        "exponentiations to Python's pow, about 5x slower",
                        RuntimeWarning,
                        stacklevel=3,
                    )
    return _kernel


def kernel_active() -> bool:
    """Whether the compiled kernel is loaded: hashing runs through it (else
    through the reference), and so do the powers :func:`modexp_ready` admits."""
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
            held = (hi - lo) * (words + out_words) < _GIL_HELD_WORDS
            (kernel.expand_held if held else kernel.expand)(
                flat[lo:hi].ctypes.data, hi - lo, words,
                out[lo:hi].ctypes.data, out_words,
                domain, FIXED_KEY[0], FIXED_KEY[1],
            )
        else:
            out[lo:hi] = prf_expand(flat[lo:hi], out_words, domain)
    return out.reshape(lead + (out_words,))


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
    _kernel.fixed_exponent(
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
    if _kernel.fixed_base(
        base_limbs.ctypes.data, e_limbs.ctypes.data, len(exponents), EXPONENT_WORDS,
        p_limbs.ctypes.data, n, pinv, r2.ctypes.data, out.ctypes.data,
    ):
        raise MemoryError("modexp_fixed_base: comb table allocation failed")
    return _ints(out, n)
