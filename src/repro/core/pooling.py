"""Secure average pooling on additively shared feature maps.

Average pooling over a power-of-two window is *free*: summation
distributes over additive shares, and dividing by ``k^2`` is SecureML's
share-local truncation (:func:`truncate_share`; the linear layers'
rescaling is exact instead, inside the GC ReLU).  No communication, no
rounds — so the GC ReLU stays the protocol's only garbled circuit.

The pooling functions operate on the flat ``(features, batch)`` activation
layout used throughout the pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.nn.lowering import PoolSpec, gather_windows
from repro.utils.ring import Ring


def truncate_share(ring: Ring, share: np.ndarray, bits: int, party: int) -> np.ndarray:
    """SecureML local truncation: divide a shared value by 2^bits.

    Party 0 shifts its share down; party 1 negates, shifts, negates.  The
    reconstructed result equals the arithmetic shift of the true value up
    to one unit in the last place, with failure probability ~|y| / 2^(l-1).
    """
    if bits == 0:
        return ring.reduce(share)
    if party == 0:
        return ring.reduce(np.asarray(share, dtype=np.uint64) >> np.uint64(bits))
    flipped = ring.neg(share)
    return ring.neg(np.asarray(flipped, dtype=np.uint64) >> np.uint64(bits))


def avgpool_share(ring: Ring, spec: PoolSpec, share: np.ndarray, party: int) -> np.ndarray:
    """One party's pooled share: window-sum then truncate by 2*log2(k)."""
    windows = gather_windows(spec, ring.reduce(share))  # (out, win, batch)
    summed = ring.sum(windows, axis=1)
    return truncate_share(ring, summed, spec.avg_shift_bits, party)


def avgpool_exact(ring: Ring, spec: PoolSpec, values: np.ndarray) -> np.ndarray:
    """Plaintext reference: exact arithmetic-shift average."""
    windows = gather_windows(spec, ring.reduce(values))
    summed = ring.to_signed(ring.sum(windows, axis=1))
    return ring.reduce(summed >> np.int64(spec.avg_shift_bits))
