"""Lowering convolution onto the secure matmul: im2col on *shares*.

im2col is a linear data rearrangement (gather + duplicate), so it
commutes with additive secret sharing: ``im2col(z0) + im2col(z1) =
im2col(z0 + z1)``.  Each party can therefore lower its share of a conv
layer's input *locally*, after which the layer is an ordinary secure
matrix product ``W_matrix @ im2col(Z)`` with

* ``W_matrix``: ``(out_channels, in_channels * kh * kw)`` quantized weights,
* the triplet batch dimension ``o`` becoming ``out_h * out_w * batch`` —
  which is exactly where ABNN2's multi-batch OT reuse shines.

Activations flow between layers as flat feature vectors in C order
(``channels * height * width``, the same order ``numpy`` flattening and
:class:`repro.nn.layers.Flatten` produce), so a Dense layer can follow a
conv stack without extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

#: Largest element count any derived geometry (flat activations, lowered
#: patch matrices, gather index tables) may reach.  Indices and sizes are
#: carried as int64; products beyond this bound would overflow the index
#: math (and on platforms whose default int is 32-bit, silently corrupt
#: intermediate arithmetic), so specs reject them with a typed error that
#: names the offending dimension instead.
_INDEX_LIMIT = np.iinfo(np.int64).max


def _check_index_limit(what: str, **factors: int) -> None:
    """Raise a :class:`ConfigError` naming the dimension when the product
    of ``factors`` (exact Python ints) exceeds int64 index math."""
    total = 1
    for value in factors.values():
        total *= int(value)
    if total > _INDEX_LIMIT:
        detail = " * ".join(f"{name}={value}" for name, value in factors.items())
        raise ConfigError(
            f"{what} element count overflows int64 index math: "
            f"{detail} = {total} > {_INDEX_LIMIT}"
        )


def column_blocks(total: int, chunk: int | None) -> Iterator[tuple[int, int]]:
    """Yield ``(lo, hi)`` column ranges covering ``[0, total)``.

    ``chunk`` bounds each block; ``None`` (or any chunk >= total) yields
    the single full-width block, so unchunked execution is the
    degenerate case of the same loop.  The grid is shared by the chunked
    lowering, the blocked online matmul, and the streamed triplet dealer
    so their column blocks always line up.
    """
    if total < 0:
        raise ConfigError("column count must be non-negative")
    if chunk is not None and chunk < 1:
        raise ConfigError("chunk_cols must be positive")
    step = total if chunk is None else min(chunk, total)
    if total == 0:
        return
    for lo in range(0, total, step):
        yield lo, min(total, lo + step)


@dataclass(frozen=True)
class Im2colSpec:
    """Geometry of one conv layer's input lowering.

    ``allow_gaps`` opts into ``stride > kernel`` geometries, where the
    sliding window skips input columns/rows entirely.  Such layers are
    well-defined but almost always a configuration mistake, so they are
    rejected unless requested explicitly.

    ``chunk_cols`` bounds how many columns of the lowered operand the
    secure linear layer materializes at once (``None`` = unchunked).
    Chunking is a purely local compute/memory decision: wire bytes and
    results are identical for every setting (matmul columns are
    independent and ring arithmetic is exact), so the two parties need
    not agree on it and it is excluded from model fingerprints.
    """

    in_channels: int
    height: int
    width: int
    kernel: int
    stride: int
    allow_gaps: bool = False
    chunk_cols: int | None = None

    def __post_init__(self) -> None:
        if min(self.in_channels, self.height, self.width, self.kernel, self.stride) < 1:
            raise ConfigError("im2col geometry must be positive")
        if self.chunk_cols is not None and self.chunk_cols < 1:
            raise ConfigError("chunk_cols must be positive (or None for unchunked)")
        if self.kernel > self.height or self.kernel > self.width:
            raise ConfigError(
                f"kernel {self.kernel} does not fit a {self.height}x{self.width} input"
            )
        if self.out_h < 1 or self.out_w < 1:
            raise ConfigError(
                f"stride {self.stride} overshoots the {self.height}x{self.width} "
                f"input for kernel {self.kernel}: no output positions"
            )
        if self.stride > self.kernel and not self.allow_gaps:
            raise ConfigError(
                f"stride {self.stride} > kernel {self.kernel} skips input "
                "columns; pass allow_gaps=True to accept the gap geometry"
            )
        # Derived sizes are computed in exact Python ints here, so any
        # overflow of the int64 index math surfaces as a typed error
        # naming the dimension, never as silently wrapped indices.
        _check_index_limit(
            "im2col input (in_channels * height * width)",
            in_channels=self.in_channels, height=self.height, width=self.width,
        )
        _check_index_limit(
            "im2col patch matrix (patch_len * n_positions)",
            patch_len=self.patch_len, n_positions=self.n_positions,
        )

    @property
    def out_h(self) -> int:
        return (self.height - self.kernel) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.width - self.kernel) // self.stride + 1

    @property
    def n_positions(self) -> int:
        """Patches per image — the per-image factor on the triplet batch."""
        return self.out_h * self.out_w

    @property
    def in_features(self) -> int:
        """Flat activation length entering the layer."""
        return self.in_channels * self.height * self.width

    @property
    def patch_len(self) -> int:
        """Rows of the lowered operand: in_channels * kh * kw."""
        return self.in_channels * self.kernel * self.kernel

    def patch_offsets(self) -> np.ndarray:
        """(patch_len,) within-patch offsets into the flat activation."""
        c_idx, ki, kj = np.meshgrid(
            np.arange(self.in_channels, dtype=np.int64),
            np.arange(self.kernel, dtype=np.int64),
            np.arange(self.kernel, dtype=np.int64),
            indexing="ij",
        )
        return ((c_idx * self.height + ki) * self.width + kj).reshape(-1)

    def position_offsets(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Flat-activation offset of each patch's top-left corner.

        ``positions`` selects a subset of the ``n_positions`` output
        positions (row-major over ``out_h x out_w``); ``None`` means all
        of them.  Chunked lowering passes the block's positions here so
        the full index table is never materialized.
        """
        if positions is None:
            positions = np.arange(self.n_positions, dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
        oi, oj = np.divmod(positions, self.out_w)
        return (oi * self.stride) * self.width + oj * self.stride

    def gather_indices(self, positions: np.ndarray | None = None) -> np.ndarray:
        """(patch_len, len(positions)) indices into the flat activation."""
        return (
            self.patch_offsets()[:, None] + self.position_offsets(positions)[None, :]
        )


def lower_shares(spec: Im2colSpec, activation: np.ndarray) -> np.ndarray:
    """Locally lower a flat activation (share) for the conv matmul.

    ``activation`` is ``(in_features, batch)``; the result is
    ``(patch_len, batch * n_positions)`` with **image-major** column
    order: all positions of image 0, then all positions of image 1, ...
    Keeping each image's positions contiguous makes the lifted output of
    :func:`lift_output` contiguous per image, which is what lets the
    serving layer stack per-client batches as extra column blocks.
    """
    act = np.asarray(activation)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    gathered = act[spec.gather_indices()]  # (patch_len, n_positions, batch)
    # image-major columns: (patch_len, batch * n_positions) with each
    # image's positions contiguous
    return np.ascontiguousarray(
        gathered.transpose(0, 2, 1).reshape(spec.patch_len, -1)
    )


def lower_shares_block(
    spec: Im2colSpec, activation: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Lower columns ``[lo, hi)`` of :func:`lower_shares`'s output only.

    Columns are the image-major flat axis (``batch * n_positions``, image
    outer).  The result is ``(patch_len, hi - lo)`` and byte-identical to
    ``lower_shares(spec, activation)[:, lo:hi]``, but only the block —
    never the full patch matrix or the full gather-index table — is
    materialized.
    """
    act = np.asarray(activation)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    total = act.shape[1] * spec.n_positions
    if not (0 <= lo <= hi <= total):
        raise ConfigError(
            f"column block [{lo}, {hi}) outside [0, {total}) lowered columns"
        )
    cols = np.arange(lo, hi, dtype=np.int64)
    imgs, poss = np.divmod(cols, spec.n_positions)
    idx = spec.gather_indices(poss)  # (patch_len, hi - lo)
    return np.ascontiguousarray(act[idx, imgs[None, :]])


def lift_output(spec: Im2colSpec, out_channels: int, product: np.ndarray) -> np.ndarray:
    """Reshape the conv matmul output back into a flat feature vector.

    ``product`` is ``(out_channels, batch * n_positions)`` (image-major
    columns, as produced against :func:`lower_shares`); the result is
    ``(out_channels * n_positions, batch)`` in C order (oc, oh, ow).
    """
    prod = np.asarray(product)
    if prod.ndim != 2 or prod.shape[1] == 0:
        # A zero-width product must surface as a typed error, not as a
        # bare reshape failure downstream.
        raise ConfigError(f"conv product has no columns to lift (shape {prod.shape})")
    if prod.shape[0] != out_channels or prod.shape[1] % spec.n_positions:
        raise ConfigError(f"unexpected conv product shape {prod.shape}")
    batch = prod.shape[1] // spec.n_positions
    cube = prod.reshape(out_channels, batch, spec.n_positions)
    return np.ascontiguousarray(
        cube.transpose(0, 2, 1).reshape(out_channels * spec.n_positions, batch)
    )


def conv_bias_vector(
    spec: Im2colSpec, bias: np.ndarray, out_channels: int | None = None
) -> np.ndarray:
    """Broadcast a per-channel bias over output positions (flat order).

    ``out_channels`` pins the expected bias length; a wrong-sized bias
    would otherwise silently repeat into a misaligned flat vector and
    corrupt every downstream share.
    """
    b = np.asarray(bias)
    if b.ndim != 1:
        raise ConfigError(f"conv bias must be 1-D per-channel, got shape {b.shape}")
    if out_channels is not None and b.shape[0] != out_channels:
        raise ConfigError(
            f"conv bias has {b.shape[0]} channels, layer expects {out_channels}"
        )
    return np.repeat(b, spec.n_positions)


# --------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PoolSpec:
    """Geometry of a non-overlapping average-pooling step on flat
    activations.

    The window must be a power of two: each party sums its own share per
    window and runs SecureML truncation by ``2 * log2(k)`` bits, so the
    step is share-local with zero communication
    (:mod:`repro.core.pooling`).
    """

    channels: int
    height: int
    width: int
    kernel: int

    def __post_init__(self) -> None:
        if min(self.channels, self.height, self.width, self.kernel) < 1:
            raise ConfigError("pool geometry must be positive")
        if self.height % self.kernel or self.width % self.kernel:
            raise ConfigError(
                f"pool {self.kernel} does not tile a {self.height}x{self.width} map"
            )
        if self.kernel & (self.kernel - 1):
            raise ConfigError(
                "secure average pooling needs a power-of-two window "
                "(division becomes share-local truncation)"
            )
        _check_index_limit(
            "pool input (channels * height * width)",
            channels=self.channels, height=self.height, width=self.width,
        )
        _check_index_limit(
            "pool window table (out_features * window)",
            out_features=self.out_features, window=self.window,
        )

    @property
    def window(self) -> int:
        return self.kernel * self.kernel

    @property
    def out_h(self) -> int:
        return self.height // self.kernel

    @property
    def out_w(self) -> int:
        return self.width // self.kernel

    @property
    def in_features(self) -> int:
        return self.channels * self.height * self.width

    @property
    def out_features(self) -> int:
        return self.channels * self.out_h * self.out_w

    @property
    def avg_shift_bits(self) -> int:
        """Division by k^2 as a right shift."""
        return 2 * (self.kernel.bit_length() - 1)

    def gather_indices(self) -> np.ndarray:
        """(out_features, window) indices into the flat activation."""
        k = self.kernel
        c_idx = np.arange(self.channels, dtype=np.int64)[:, None, None]
        oi = np.arange(self.out_h, dtype=np.int64)[None, :, None]
        oj = np.arange(self.out_w, dtype=np.int64)[None, None, :]
        base = (c_idx * self.height + oi * k) * self.width + oj * k
        base = base.reshape(-1, 1)  # (out_features, 1)
        di, dj = np.meshgrid(
            np.arange(k, dtype=np.int64), np.arange(k, dtype=np.int64), indexing="ij"
        )
        offsets = (di * self.width + dj).reshape(1, -1)  # (1, window)
        return base + offsets


def gather_windows(spec: PoolSpec, activation: np.ndarray) -> np.ndarray:
    """(in_features, batch) share -> (out_features, window, batch) windows."""
    act = np.asarray(activation)
    if act.ndim != 2 or act.shape[0] != spec.in_features:
        raise ConfigError(
            f"expected ({spec.in_features}, batch) activation, got {act.shape}"
        )
    return act[spec.gather_indices()]
