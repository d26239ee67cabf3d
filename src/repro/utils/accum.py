"""Exact uint64 segment sums without ``np.add.at``.

``np.add.at`` is a notorious numpy slow path (per-element dispatch of an
unbuffered ufunc), yet triplet generation needs exactly its semantics:
accumulate ``(count, lanes)`` ring elements into ``n_segments`` rows with
arbitrary repeats.  Sorting the rows by segment turns every segment into
one contiguous run, which ``np.add.reduceat`` sums in a single C loop;
uint64 addition wraps mod 2^64, so the sums match ``np.add.at`` bit for
bit.  The triplet span workers pass row-major OT indices, already
sorted, where the stable sort is one linear pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_U64 = np.uint64


def segment_sum_u64(values: np.ndarray, index: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum ``values`` rows into ``n_segments`` buckets, exact mod 2^64.

    ``values`` is ``(count, lanes)`` uint64, ``index`` is ``(count,)``
    with entries in ``[0, n_segments)``; returns ``(n_segments, lanes)``
    uint64 equal to what ``np.add.at(out, index, values)`` would produce
    on a zero-initialized array.
    """
    v = np.ascontiguousarray(values, dtype=_U64)
    if v.ndim != 2:
        raise ConfigError(f"expected (count, lanes) values, got shape {v.shape}")
    count, lanes = v.shape
    out = np.zeros((n_segments, lanes), dtype=_U64)
    if count == 0:
        return out
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (count,):
        raise ConfigError(f"expected {count} indices, got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= n_segments:
        raise ConfigError(f"segment indices must lie in [0, {n_segments})")
    order = np.argsort(idx, kind="stable")
    runs = idx[order]
    starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]])
    out[runs[starts]] = np.add.reduceat(v[order], starts, axis=0)
    return out
