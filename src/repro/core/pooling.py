"""Secure average pooling on additively shared feature maps.

Average pooling over a power-of-two window is *free*: summation
distributes over additive shares, and dividing by ``k^2`` is the same
SecureML share-local truncation used after linear layers.  No
communication, no rounds — so the GC ReLU stays the protocol's only
garbled circuit.

Both functions operate on the flat ``(features, batch)`` activation
layout used throughout the pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.core.relu import truncate_share
from repro.nn.lowering import PoolSpec, gather_windows
from repro.utils.ring import Ring


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
