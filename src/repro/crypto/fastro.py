"""The compiled fixed-key SipHash-2-4 kernel behind the random oracle.

ABY, the paper's substrate, hashes OT-extension pads and garbled-gate
labels with fixed-key AES-NI: one compiled function.  This module is the
stand-in: a small C kernel, built once per user and machine, that
computes bit-for-bit what :func:`repro.crypto.siphash.prf_expand`
computes — output word ``j`` of a row is
``SipHash-2-4(FIXED_KEY, row || domain << 32 | j)`` — with the row prefix
absorbed once instead of once per output word, and through ``ctypes``.
A block of real size releases the GIL for the call, so shard threads
overlap; a small one (a garbled-gate level is ~1k words, ~20 us) keeps
it, because handing the GIL over a thousand times per prediction makes
latency depend on what the process's other sessions happen to be doing.

:func:`expand` works in bounded row blocks: scratch stays flat and a
huge request becomes a sequence of medium-sized calls.  When the kernel
cannot be built or loaded (no C compiler, untrusted cache) each block
goes through ``prf_expand`` instead — same bytes, about 20x slower — and
one ``RuntimeWarning`` per process says so.

The shared object is cached in ``<tempfile.gettempdir()>/abnn2-<uid>/``,
created ``0o700``; a directory or ``.so`` that is not owned by the
current user, or that group/other can write, is never loaded.
"""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np

from repro.crypto.siphash import FIXED_KEY, prf_expand

#: Soft cap on (rows * out_words) per block: bounds the reference path's
#: scratch to a few MiB per message word and keeps each call short.
_ROW_BLOCK_WORDS = 1 << 19

#: Blocks of fewer (input + output) words than this hash with the GIL
#: held: ~0.2 ms at most, less than one big-int ``pow`` of the base OTs.
_GIL_HELD_WORDS = 1 << 14

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

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
"""

_kernel_lock = threading.Lock()
# None = not probed, False = unusable, else the kernel entry point twice:
# (GIL released for the call, GIL held)
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
                        break
        if not private(so_path, stat.S_ISREG):
            return None
        entries = tuple(
            dll(so_path).siphash24_expand for dll in (ctypes.CDLL, ctypes.PyDLL)
        )
    except (OSError, AttributeError):  # AttributeError: no os.getuid (non-POSIX)
        return None
    for entry in entries:
        entry.argtypes = [
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
            ctypes.c_void_p, ctypes.c_size_t,
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,
        ]
        entry.restype = None
    return entries


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
                        "numpy reference, about 20x slower",
                        RuntimeWarning,
                        stacklevel=3,
                    )
    return _kernel


def kernel_active() -> bool:
    """Whether hashing runs through the compiled kernel (else the reference)."""
    return bool(_load_kernel())


def expand(rows: np.ndarray, out_words: int, domain: int) -> np.ndarray:
    """Hash ``(..., words)`` uint64 rows to ``(..., out_words)`` words.

    Identical to ``prf_expand(rows, out_words, domain)``; ``out_words >= 1``
    and ``domain`` in ``[0, 2**32)`` are :meth:`RandomOracle.mask`'s checks.
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
            kernel[held](
                flat[lo:hi].ctypes.data, hi - lo, words,
                out[lo:hi].ctypes.data, out_words,
                domain, FIXED_KEY[0], FIXED_KEY[1],
            )
        else:
            out[lo:hi] = prf_expand(flat[lo:hi], out_words, domain)
    return out.reshape(lead + (out_words,))
