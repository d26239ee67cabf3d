"""Winograd F(2x2,3x3) tile geometry and input transform, kept for one probe.

Every conv layer lowers with im2col (:mod:`repro.nn.lowering`; why, in
EXPERIMENTS.md, *Winograd verdict*).  The frozen end-to-end probe
(``benchmarks/e2e/probes.py::nn_probes``) still times :class:`WinogradSpec`
and :func:`lower_tiles`, the share-local input transform ``B^T d B``, so
they stay for it alone; nothing in the library uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError
from repro.nn.lowering import Im2colSpec
from repro.utils.ring import Ring

_U64 = np.uint64

#: ``B^T`` — input transform (row L1 norms all 2).
BT_INT = np.array(
    [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]], dtype=np.int64
)


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
        """Whether an im2col geometry has an F(2x2,3x3) lowering."""
        return spec.kernel == 3 and spec.stride == 1

    @classmethod
    def from_im2col(cls, spec: Im2colSpec) -> "WinogradSpec":
        if not cls.supports(spec):
            raise ConfigError(
                f"winograd F(2x2,3x3) cannot lower kernel={spec.kernel}, "
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
    def tiles_h(self) -> int:
        return -(-self.out_h // 2)

    @property
    def tiles_w(self) -> int:
        return -(-self.out_w // 2)

    @property
    def n_tiles(self) -> int:
        """2x2 output tiles per image (the lowered operand's columns per image)."""
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
def _bt(bits: int) -> np.ndarray:
    """``B^T`` as ring elements of ``Ring(bits)`` (signed entries reduced)."""
    return Ring(bits).reduce(BT_INT)


def lower_tiles(spec: WinogradSpec, activation: np.ndarray, ring: Ring) -> np.ndarray:
    """Share-locally lower a flat activation into the tile-transform domain.

    ``activation`` is ``(in_features, batch)``; the result is
    ``(16 * in_channels, batch * n_tiles)``: row ``p * C_in + ci`` holds
    tile position ``p = 4a + b`` of channel ``ci``, columns are
    image-major (all tiles of image 0 first), matching
    :func:`repro.nn.lowering.lower_shares`.

    All arithmetic is in-ring (uint64 wraparound then mask), so the map
    commutes with additive sharing exactly.
    """
    act = np.asarray(activation)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    batch = act.shape[1]
    bt = _bt(ring.bits)
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
