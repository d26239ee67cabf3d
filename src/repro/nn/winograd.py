"""Winograd F(2x2,3x3) lowering: transform-domain secure convolution.

A stride-1 3x3 convolution can be computed per 4x4 input tile as

    Y_tile = A^T [ (B^T d B) (.) (G g G^T) ] A

with the classic F(2x2,3x3) matrices.  Two facts make this a drop-in
second backend next to im2col (:mod:`repro.nn.lowering`):

* ``B^T d B`` and ``A^T m A`` are **public integer linear maps**, so
  each party applies them to its own additive share locally — exactly
  like the im2col gather, they commute with sharing.
* The only secret-dependent bilinear step is the element-wise tile
  product with the transformed weights, and summed over input channels
  that is 16 independent ``(C_out, C_in) @ (C_in, batch * n_tiles)``
  matrix products — one *grouped* dot-product triplet draw
  (:class:`repro.core.triplets.TripletConfig` with ``groups=16``).

Triplet-element count per layer drops from ``9 C_in * C_out * out_h *
out_w`` (im2col) to ``16 C_in * C_out * n_tiles``: ~2.25x fewer at
stride 1 since each tile covers four output positions.

**Integer-exact scaling.**  ``G`` has half-integer entries; we use
``G2 = 2 G`` (integer), making every transformed weight integral and the
lifted output exactly ``4 * Y``.  The division by 4 is share-local and
*exact* (up to the same wrap-failure class as SecureML truncation):
since ``u + v = 4Y (mod 2^l)`` and ``4 | 4Y``, the shares' low dibits
are complementary — ``u mod 4 = (4 - v mod 4) mod 4`` deterministically.
Hence ``floor(u/4) + ceil(v/4) = (4Y)/4 + c * 2^(l-2) (mod 2^l)`` where
the carry ``c`` is 1 unless the value wraps; party 0 subtracts the
constant ``2^(l-2)`` and both parties end with exact shares of ``Y``
except with probability ``~4|Y|/2^l`` (see PROTOCOLS.md section 14).
No interaction, no leakage: each party only touches its own share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError
from repro.nn.lowering import Im2colSpec
from repro.quant.headroom import (  # noqa: F401  (re-exported for callers)
    WINOGRAD_TILE_POINTS,
    check_winograd_headroom,
    winograd_scheme,
)
from repro.utils.ring import Ring

_U64 = np.uint64

#: ``B^T`` — input transform (row L1 norms all 2).
BT_INT = np.array(
    [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]], dtype=np.int64
)

#: ``2 G`` — integer weight transform; ``G2 g G2^T = 4 * G g G^T``.
G2_INT = np.array([[2, 0, 0], [1, 1, 1], [1, -1, 1], [0, 0, 2]], dtype=np.int64)

#: ``A^T`` — output transform (applied to shares of the tile products).
AT_INT = np.array([[1, 1, 1, 0], [0, 1, -1, -1]], dtype=np.int64)

#: The uniform scale the integer ``G2`` convention introduces: the lifted
#: output is ``4 * conv`` and :func:`divide_share_by4` removes it.
WINOGRAD_OUTPUT_SCALE = 4


@dataclass(frozen=True)
class WinogradSpec:
    """Tile geometry of one F(2x2,3x3) lowering (mirrors Im2colSpec).

    Only ``kernel=3, stride=1`` convolutions are eligible; the right and
    bottom edges are zero-padded up to a whole number of 2x2 output
    tiles (padding zeros is share-exact: both parties pad with 0 and the
    reconstructed padded value is 0).
    """

    in_channels: int
    height: int
    width: int
    kernel: int = 3
    stride: int = 1

    def __post_init__(self) -> None:
        if self.kernel != 3 or self.stride != 1:
            raise ConfigError(
                "winograd F(2x2,3x3) supports kernel=3, stride=1 only; "
                f"got kernel={self.kernel}, stride={self.stride}"
            )
        if min(self.in_channels, self.height, self.width) < 1:
            raise ConfigError("winograd geometry must be positive")
        if self.height < 3 or self.width < 3:
            raise ConfigError(
                f"kernel 3 does not fit a {self.height}x{self.width} input"
            )

    @staticmethod
    def supports(spec: Im2colSpec) -> bool:
        """Whether an im2col geometry is eligible for this backend."""
        return spec.kernel == 3 and spec.stride == 1

    @classmethod
    def from_im2col(cls, spec: Im2colSpec) -> "WinogradSpec":
        if not cls.supports(spec):
            raise ConfigError(
                f"winograd backend cannot lower kernel={spec.kernel}, "
                f"stride={spec.stride} (needs 3x3 stride 1)"
            )
        return cls(spec.in_channels, spec.height, spec.width)

    @property
    def out_h(self) -> int:
        return self.height - 2

    @property
    def out_w(self) -> int:
        return self.width - 2

    @property
    def n_positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def tiles_h(self) -> int:
        return -(-self.out_h // 2)

    @property
    def tiles_w(self) -> int:
        return -(-self.out_w // 2)

    @property
    def n_tiles(self) -> int:
        """2x2 output tiles per image — the per-image triplet batch factor."""
        return self.tiles_h * self.tiles_w

    @property
    def pad_h(self) -> int:
        """Padded input height: each tile reads a 4x4 window at stride 2."""
        return 2 * self.tiles_h + 2

    @property
    def pad_w(self) -> int:
        return 2 * self.tiles_w + 2

    @property
    def in_features(self) -> int:
        return self.in_channels * self.height * self.width


@lru_cache(maxsize=None)
def _transform_mats(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(BT, AT) as ring elements of ``Ring(bits)`` (signed entries reduced)."""
    ring = Ring(bits)
    return ring.reduce(BT_INT), ring.reduce(AT_INT)


def lower_tiles(spec: WinogradSpec, activation: np.ndarray, ring: Ring) -> np.ndarray:
    """Share-locally lower a flat activation into the tile-transform domain.

    ``activation`` is ``(in_features, batch)``; the result is
    ``(16 * in_channels, batch * n_tiles)``: row ``p * C_in + ci`` holds
    tile position ``p = 4a + b`` of channel ``ci`` (the grouped-triplet
    operand block layout), columns are image-major (all tiles of image 0
    first), matching :func:`repro.nn.lowering.lower_shares`.

    All arithmetic is in-ring (uint64 wraparound then mask), so the map
    commutes with additive sharing exactly.
    """
    act = np.asarray(activation)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    batch = act.shape[1]
    bt, _ = _transform_mats(ring.bits)
    cube = ring.reduce(act).reshape(spec.in_channels, spec.height, spec.width, batch)
    padded = np.zeros(
        (spec.in_channels, spec.pad_h, spec.pad_w, batch), dtype=_U64
    )
    padded[:, : spec.height, : spec.width] = cube
    # (C, th, tw, B, 4, 4): 4x4 input windows at stride 2.
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (4, 4), axis=(1, 2)
    )[:, ::2, ::2]
    # x~ = B^T d B per tile; uint64 matmul wraps mod 2^64, reduce masks to 2^l.
    xt = ring.reduce(bt @ windows @ bt.T)  # (C, th, tw, B, 4, 4)
    # rows (a, b, C) -> p * C_in + ci; cols (B, th, tw) -> image-major tiles.
    xt = xt.transpose(4, 5, 0, 3, 1, 2)
    return np.ascontiguousarray(
        xt.reshape(16 * spec.in_channels, batch * spec.n_tiles)
    )


def lower_tiles_block(
    spec: WinogradSpec, activation: np.ndarray, ring: Ring, lo: int, hi: int
) -> np.ndarray:
    """Lower columns ``[lo, hi)`` of :func:`lower_tiles`'s output only.

    Columns are the image-major flat tile axis (``batch * n_tiles``,
    image outer, tiles row-major over ``tiles_h x tiles_w``).  The result
    is ``(16 * in_channels, hi - lo)``, byte-identical to
    ``lower_tiles(spec, activation, ring)[:, lo:hi]``, but only the
    block's 4x4 windows — never the full transformed operand — are
    materialized (the zero-padded input cube is the same size as the
    activation itself, which the caller holds anyway).
    """
    act = np.asarray(activation)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    batch = act.shape[1]
    total = batch * spec.n_tiles
    if not (0 <= lo <= hi <= total):
        raise ConfigError(
            f"column block [{lo}, {hi}) outside [0, {total}) tile columns"
        )
    bt, _ = _transform_mats(ring.bits)
    cube = ring.reduce(act).reshape(spec.in_channels, spec.height, spec.width, batch)
    padded = np.zeros((spec.in_channels, spec.pad_h, spec.pad_w, batch), dtype=_U64)
    padded[:, : spec.height, : spec.width] = cube
    cols = np.arange(lo, hi, dtype=np.int64)
    imgs, tiles = np.divmod(cols, spec.n_tiles)
    ti, tj = np.divmod(tiles, spec.tiles_w)
    span = np.arange(4, dtype=np.int64)
    rows = 2 * ti[:, None] + span[None, :]  # (ncols, 4)
    colns = 2 * tj[:, None] + span[None, :]  # (ncols, 4)
    # (C, ncols, 4, 4): each block column's 4x4 window.
    windows = padded[:, rows[:, :, None], colns[:, None, :], imgs[:, None, None]]
    xt = ring.reduce(bt @ windows @ bt.T)  # (C, ncols, 4, 4)
    return np.ascontiguousarray(
        xt.transpose(2, 3, 0, 1).reshape(16 * spec.in_channels, hi - lo)
    )


def lift_tiles(
    spec: WinogradSpec, out_channels: int, product: np.ndarray, ring: Ring
) -> np.ndarray:
    """Share-locally lift tile products back to flat features.

    ``product`` is ``(16 * out_channels, batch * n_tiles)`` (the grouped
    matmul output, row ``p * C_out + oc``); the result is
    ``(out_channels * n_positions, batch)`` in C order (oc, oh, ow) —
    shares of ``4 * conv`` (see :data:`WINOGRAD_OUTPUT_SCALE`).
    """
    prod = np.asarray(product)
    if prod.ndim != 2 or prod.shape[1] == 0:
        raise ConfigError(f"winograd product has no columns to lift (shape {prod.shape})")
    if prod.shape[0] != 16 * out_channels or prod.shape[1] % spec.n_tiles:
        raise ConfigError(f"unexpected winograd product shape {prod.shape}")
    batch = prod.shape[1] // spec.n_tiles
    _, at = _transform_mats(ring.bits)
    m = ring.reduce(prod).reshape(
        4, 4, out_channels, batch, spec.tiles_h, spec.tiles_w
    )
    m = m.transpose(2, 3, 4, 5, 0, 1)  # (oc, B, th, tw, 4, 4)
    y = ring.reduce(at @ m @ at.T)  # (oc, B, th, tw, 2, 2)
    # Assemble the padded output plane, then crop to the true geometry.
    y = y.transpose(0, 1, 2, 4, 3, 5).reshape(
        out_channels, batch, 2 * spec.tiles_h, 2 * spec.tiles_w
    )
    y = y[:, :, : spec.out_h, : spec.out_w]
    y = y.transpose(0, 2, 3, 1).reshape(out_channels * spec.n_positions, batch)
    return np.ascontiguousarray(y)


def transform_weights(spec: WinogradSpec, w_int: np.ndarray) -> np.ndarray:
    """``G2 g G2^T`` per (oc, ci) filter, stacked for the grouped triplet.

    ``w_int`` is the layer's im2col weight matrix ``(out_channels,
    C_in * 9)`` with patch order (ci, kh, kw); the result is the stacked
    ``(16 * out_channels, C_in)`` int64 matrix whose group-``p`` block
    (rows ``[p * C_out, (p+1) * C_out)``) multiplies operand rows
    ``[p * C_in, (p+1) * C_in)`` of :func:`lower_tiles`.
    """
    w = np.asarray(w_int, dtype=np.int64)
    if w.ndim != 2 or w.shape[1] != spec.in_channels * 9:
        raise ConfigError(
            f"expected weights of shape (oc, {spec.in_channels * 9}), got {w.shape}"
        )
    out_channels = w.shape[0]
    g = w.reshape(out_channels, spec.in_channels, 3, 3)
    wt = G2_INT @ g @ G2_INT.T  # (oc, ci, 4, 4), exact int64
    return np.ascontiguousarray(
        wt.transpose(2, 3, 0, 1).reshape(16 * out_channels, spec.in_channels)
    )


def lower_tiles_value(spec: WinogradSpec, activation: np.ndarray) -> np.ndarray:
    """Float64 twin of :func:`lower_tiles` (overflow accounting, no ring).

    Same layout and transform; used by the quantizer's range check to
    track the true transform-domain magnitudes the integer pipeline hits.
    """
    act = np.asarray(activation, dtype=np.float64)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    batch = act.shape[1]
    cube = act.reshape(spec.in_channels, spec.height, spec.width, batch)
    padded = np.zeros((spec.in_channels, spec.pad_h, spec.pad_w, batch))
    padded[:, : spec.height, : spec.width] = cube
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (4, 4), axis=(1, 2)
    )[:, ::2, ::2]
    bt = BT_INT.astype(np.float64)
    xt = (bt @ windows @ bt.T).transpose(4, 5, 0, 3, 1, 2)
    return xt.reshape(16 * spec.in_channels, batch * spec.n_tiles)


def lift_tiles_value(
    spec: WinogradSpec, out_channels: int, product: np.ndarray
) -> np.ndarray:
    """Float64 twin of :func:`lift_tiles` (result is ``4 * conv`` values)."""
    prod = np.asarray(product, dtype=np.float64)
    if prod.ndim != 2 or prod.shape[0] != 16 * out_channels:
        raise ConfigError(f"unexpected winograd product shape {prod.shape}")
    batch = prod.shape[1] // spec.n_tiles
    at = AT_INT.astype(np.float64)
    m = prod.reshape(4, 4, out_channels, batch, spec.tiles_h, spec.tiles_w)
    y = at @ m.transpose(2, 3, 4, 5, 0, 1) @ at.T
    y = y.transpose(0, 1, 2, 4, 3, 5).reshape(
        out_channels, batch, 2 * spec.tiles_h, 2 * spec.tiles_w
    )
    y = y[:, :, : spec.out_h, : spec.out_w]
    return y.transpose(0, 2, 3, 1).reshape(out_channels * spec.n_positions, batch)


def divide_share_by4(ring: Ring, share: np.ndarray, party: int) -> np.ndarray:
    """Exact share-local division of a 4-divisible shared value by 4.

    Given ``u + v = M (mod 2^l)`` with ``4 | M``: ``u mod 4`` and
    ``v mod 4`` sum to 0 or 4, so ``floor(u/4) + ceil(v/4)`` equals
    ``M/4 + 2^(l-2)`` whenever ``u + v`` wrapped past ``2^l`` once —
    which it does except with probability ``~|M|/2^(l-2)`` over the
    uniform share split.  Party 0 subtracts the constant; the result is
    exact shares of ``M/4`` (same failure class and probability as
    SecureML share truncation, error magnitude ``2^(l-2)`` when it hits).
    """
    if ring.bits < 3:
        raise ConfigError("winograd division needs a ring of at least 3 bits")
    if party not in (0, 1):
        raise ConfigError(f"party must be 0 or 1, got {party}")
    s = ring.reduce(share)
    if party == 0:
        return ring.sub(s >> _U64(2), _U64(1) << _U64(ring.bits - 2))
    return ring.reduce((s >> _U64(2)) + ((s & _U64(3)) != 0).astype(_U64))
