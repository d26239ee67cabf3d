"""Sequential model container and the paper's evaluation architecture."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, Layer, ReLU


class Sequential:
    """An ordered stack of layers with forward/backward passes."""

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ConfigError("a model needs at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = grad
        for layer in reversed(self.layers):
            out = layer.backward(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class indices for a batch of inputs."""
        return np.argmax(self.forward(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y)))

    @property
    def dense_layers(self) -> list[Dense]:
        return [layer for layer in self.layers if isinstance(layer, Dense)]


def mnist_mlp(seed: int = 1, hidden: int = 128, input_dim: int = 784, classes: int = 10) -> Sequential:
    """The paper's Figure-4 network: FC(784->128), ReLU, FC(128->128),
    ReLU, FC(128->10)."""
    return Sequential(
        [
            Dense(input_dim, hidden, seed=seed),
            ReLU(),
            Dense(hidden, hidden, seed=seed + 1),
            ReLU(),
            Dense(hidden, classes, seed=seed + 2),
        ]
    )


def vgg_cifar(
    seed: int = 1, base: int = 8, classes: int = 10, side: int = 32
) -> Sequential:
    """A VGG-style CIFAR-shaped conv stack (valid padding, 3x3 stride 1).

    Conv(3->b) / ReLU / AvgPool2 / Conv(b->2b) / ReLU / Conv(2b->2b) /
    ReLU / Flatten / FC(64) / ReLU / FC(classes).  Every convolution is
    3x3 stride-1, so the whole stack is winograd-eligible; average
    pooling (the only pooling) is share-local, no GC.  ``side=32``
    is the CIFAR geometry; any ``side >= 8`` with ``side - 2`` even
    works (valid 3x3 convs shrink the map by 2, the pool halves it).
    """
    if side < 8 or (side - 2) % 2:
        raise ConfigError(
            f"vgg_cifar needs side >= 8 with side - 2 even, got {side}"
        )
    s1 = (side - 2) // 2  # after conv1 + pool
    s3 = s1 - 4  # after conv2 and conv3
    if s3 < 1:
        raise ConfigError(f"side {side} collapses before the conv stack ends")
    return Sequential(
        [
            Conv2d(3, base, 3, seed=seed),
            ReLU(),
            AvgPool2d(2),
            Conv2d(base, 2 * base, 3, seed=seed + 1),
            ReLU(),
            Conv2d(2 * base, 2 * base, 3, seed=seed + 2),
            ReLU(),
            Flatten(),
            Dense(2 * base * s3 * s3, 64, seed=seed + 3),
            ReLU(),
            Dense(64, classes, seed=seed + 4),
        ]
    )


def vgg_imagenet(
    seed: int = 1, base: int = 16, classes: int = 16, side: int = 226
) -> Sequential:
    """A VGG-style ImageNet-shaped conv stack (valid padding, 3x3 stride 1).

    Conv(3->b) / ReLU / AvgPool2 / Conv(b->2b) / ReLU / AvgPool2 /
    Conv(2b->4b) / ReLU / Flatten / FC(128) / ReLU / FC(classes).
    ``side=226`` reproduces the 224-map ImageNet entry (valid conv eats
    the usual pad); the two conv+pool stages demand ``side % 4 == 2`` so
    every pool sees an even map.  Smaller ``side`` (e.g. 34) gives the
    same layer *structure* at test-tractable scale — the big-model
    benchmark drives the full-size conv layers individually.
    """
    if side < 14 or side % 4 != 2:
        raise ConfigError(
            f"vgg_imagenet needs side % 4 == 2 with side >= 14, got {side}"
        )
    s1 = (side - 2) // 2  # after conv1 + pool
    s2 = (s1 - 2) // 2  # after conv2 + pool
    s3 = s2 - 2  # after conv3
    if s3 < 1:
        raise ConfigError(f"side {side} collapses before the conv stack ends")
    return Sequential(
        [
            Conv2d(3, base, 3, seed=seed),
            ReLU(),
            AvgPool2d(2),
            Conv2d(base, 2 * base, 3, seed=seed + 1),
            ReLU(),
            AvgPool2d(2),
            Conv2d(2 * base, 4 * base, 3, seed=seed + 2),
            ReLU(),
            Flatten(),
            Dense(4 * base * s3 * s3, 128, seed=seed + 3),
            ReLU(),
            Dense(128, classes, seed=seed + 4),
        ]
    )
