"""Plaintext layers: Dense, ReLU, Flatten, Conv2d, AvgPool2d.

Layers operate on float64 batches shaped ``(batch, features)`` (Dense)
or ``(batch, channels, h, w)`` (Conv/Pool).  Dense carries the gradients
needed by :mod:`repro.nn.train`; convolution supports inference (the
paper's evaluation network is an MLP, convolution is provided as the
natural extension since it lowers to the same secure matmul via im2col).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import derive_rng


class Layer:
    """Base class: stateless unless a subclass adds parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} does not support training")

    @property
    def parameters(self) -> list[np.ndarray]:
        return []


class Dense(Layer):
    """Fully connected layer ``y = x W^T + b`` with He initialization."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigError("Dense dimensions must be positive")
        rng = derive_rng(seed, "dense", in_features, out_features)
        bound = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(scale=bound, size=(out_features, in_features))
        self.bias = np.zeros(out_features)
        self._x: np.ndarray | None = None
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ConfigError("backward called before forward")
        self.grad_weight = grad.T @ self._x
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Elementwise ``max(0, x)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ConfigError("backward called before forward")
        return grad * self._mask


class Flatten(Layer):
    """(batch, ...) -> (batch, prod(...))."""

    def __init__(self) -> None:
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Unfold (b, c, h, w) into (b, out_h * out_w, c * kh * kw) patches."""
    b, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"kernel {kh}x{kw} does not fit input {h}x{w}")
    cols = np.empty((b, out_h * out_w, c * kh * kw), dtype=x.dtype)
    idx = 0
    for i in range(out_h):
        for j in range(out_w):
            patch = x[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            cols[:, idx, :] = patch.reshape(b, -1)
            idx += 1
    return cols, out_h, out_w


class Conv2d(Layer):
    """Valid-padding convolution, lowered to matmul via im2col.

    Inference-only: the secure pipeline treats it as a linear layer whose
    weight matrix is ``(out_channels, in_channels * kh * kw)``, exactly
    like Dense after the im2col transform.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        seed: int = 0,
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) < 1:
            raise ConfigError("Conv2d hyper-parameters must be positive")
        rng = derive_rng(seed, "conv", in_channels, out_channels, kernel_size)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = rng.normal(scale=np.sqrt(2.0 / fan_in), size=(out_channels, fan_in))
        self.bias = np.zeros(out_channels)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self._cols: np.ndarray | None = None
        self._x_shape: tuple | None = None
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, out_h, out_w = im2col(x, self.kernel_size, self.kernel_size, self.stride)
        self._cols = cols
        self._x_shape = x.shape
        out = cols @ self.weight.T + self.bias  # (b, oh*ow, oc)
        return out.transpose(0, 2, 1).reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise ConfigError("backward called before forward")
        b, oc, oh, ow = grad.shape
        flat = grad.reshape(b, oc, oh * ow).transpose(0, 2, 1)  # (b, ohw, oc)
        self.grad_weight = np.einsum("bpo,bpk->ok", flat, self._cols)
        self.grad_bias = flat.sum(axis=(0, 1))
        grad_cols = flat @ self.weight  # (b, ohw, patch_len)
        # Scatter patches back (col2im).
        _, c, h, w = self._x_shape
        k, s = self.kernel_size, self.stride
        out = np.zeros(self._x_shape, dtype=grad.dtype)
        idx = 0
        for i in range(oh):
            for j in range(ow):
                patch = grad_cols[:, idx, :].reshape(b, c, k, k)
                out[:, :, i * s : i * s + k, j * s : j * s + k] += patch
                idx += 1
        return out

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class AvgPool2d(Layer):
    """Non-overlapping average pooling — a public linear map, free to
    evaluate on additive shares (each party averages its own share)."""

    def __init__(self, kernel_size: int) -> None:
        if kernel_size < 1:
            raise ConfigError("pool size must be positive")
        self.kernel_size = kernel_size
        self._in_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ConfigError(f"input {h}x{w} not divisible by pool {k}")
        self._in_shape = x.shape
        return x.reshape(b, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise ConfigError("backward called before forward")
        k = self.kernel_size
        spread = np.repeat(np.repeat(grad, k, axis=2), k, axis=3)
        return spread / (k * k)
