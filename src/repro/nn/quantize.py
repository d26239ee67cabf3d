"""Post-training quantization of a Sequential model for secure inference.

A :class:`QuantizedModel` is the object both the plaintext integer
reference and the secure two-party protocol consume.  Design decisions
(also recorded in DESIGN.md):

* **Weights** become integers on the fragment scheme's grid, one scale
  per layer.
* **Activations** are fixed-point ring elements with ``frac_bits``
  fractional bits.
* **Rescaling.**  Multi-bit schemes use power-of-two weight scales
  (``2**-shift``); after each hidden linear layer the pipeline divides the
  accumulator by ``2**shift`` — an exact arithmetic shift, realized
  securely inside the GC ReLU (:mod:`repro.core.relu`), so the secure
  result equals :meth:`QuantizedModel.forward_int`.  This keeps
  activations at the ``2^f`` fixed-point scale so deep nets fit in
  Z_{2^32}.
* **Layer widths.**  One closed-form pass
  (:func:`repro.quant.headroom.relu_widths`) bounds every linear layer's
  output from the weights and the public input domain
  (:data:`~repro.quant.headroom.INPUT_BOUND`); the public width
  ``relu_bits`` sizes that layer's garbled circuit and the ring its
  triplets and shares live in (the last layer's: the logits ring).
* **Float-scale schemes** (ternary/binary) skip truncation: their scale
  is *deferred* to the logits, which is harmless because ReLU is
  positively homogeneous and argmax ignores positive scaling.
* **Biases** are folded in at each layer's accumulator scale so the
  server can add them to its share locally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import QuantizationError
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU
from repro.nn.lowering import (
    Im2colSpec,
    PoolSpec,
    conv_bias_vector,
    gather_windows,
    lift_output,
    lower_shares,
)
from repro.nn.winograd import (
    WinogradSpec,
    check_winograd_headroom,
    lift_tiles,
    lift_tiles_value,
    lower_tiles,
    lower_tiles_value,
    transform_weights,
)
from repro.nn.model import Sequential
from repro.quant.fixed_point import FixedPointEncoder
from repro.quant.fragments import FragmentScheme
from repro.quant.headroom import relu_widths
from repro.quant.schemes import QuantizedTensor, quantize_for_scheme
from repro.utils.ring import Ring


@dataclass
class QuantizedDense:
    """One linear layer of the secure pipeline.

    ``conv`` distinguishes the two linear forms: ``None`` is a plain FC
    layer (weights ``(out, in)``); an :class:`Im2colSpec` means weights
    are ``(out_channels, patch_len)`` and the secure matmul runs against
    the locally-lowered activation (see :mod:`repro.nn.lowering`).

    ``backend`` selects the conv lowering: ``"im2col"`` (default) or
    ``"winograd"`` (F(2x2,3x3) tile transforms, eligible for stride-1
    3x3 convolutions only — :mod:`repro.nn.winograd`).  Weights are
    stored in im2col patch form either way; the winograd path derives
    its transformed weight stack on demand.
    """

    weights: QuantizedTensor  # ints shaped (out, in) / (oc, patch_len)
    bias_int: np.ndarray  # int64 (out,) or (oc,), at accumulator scale
    truncate_bits: int  # right-shift applied to the accumulator (0 = none)
    conv: Im2colSpec | None = None
    pool: PoolSpec | None = None  # applied after this layer's ReLU
    backend: str = "im2col"
    #: public bound m with |layer output| < 2^(m-1) (the ReLU input; the
    #: logits on the last layer); None = the ring width
    relu_bits: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("im2col", "winograd"):
            raise QuantizationError(f"unknown linear backend {self.backend!r}")
        if self.backend == "winograd":
            if self.conv is None:
                raise QuantizationError("winograd backend needs a conv layer")
            WinogradSpec.from_im2col(self.conv)  # validates eligibility

    @property
    def wino(self) -> WinogradSpec | None:
        """Tile geometry when this layer runs the winograd backend."""
        if self.backend != "winograd":
            return None
        return WinogradSpec.from_im2col(self.conv)

    @property
    def w_int(self) -> np.ndarray:
        return self.weights.ints

    @property
    def scheme(self) -> FragmentScheme:
        return self.weights.scheme

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.ints.shape

    @property
    def in_features(self) -> int:
        """Flat activation length entering the layer."""
        return self.conv.in_features if self.conv else self.shape[1]

    @property
    def linear_out_features(self) -> int:
        """Flat activation length after the linear step (before pooling)."""
        if self.conv:
            return self.shape[0] * self.conv.n_positions
        return self.shape[0]

    @property
    def out_features(self) -> int:
        """Flat activation length leaving the layer (after pooling)."""
        return self.pool.out_features if self.pool else self.linear_out_features


class QuantizedModel:
    """Integer FC/ReLU pipeline over Z_{2^l}; ReLU between every FC pair."""

    def __init__(
        self,
        layers: list[QuantizedDense],
        ring: Ring,
        frac_bits: int,
        output_deferral: float = 1.0,
    ) -> None:
        if not layers:
            raise QuantizationError("quantized model needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_features != nxt.in_features:
                raise QuantizationError(
                    f"layers do not chain: {prev.out_features} features out, "
                    f"{nxt.in_features} expected in"
                )
        self.layers = layers
        self.ring = ring
        self.encoder = FixedPointEncoder(ring, frac_bits)
        #: Integer logits approximate ``real_logits * 2^f * output_deferral``.
        self.output_deferral = output_deferral

    # ------------------------------------------------------------------ #
    @property
    def input_dim(self) -> int:
        return self.layers[0].in_features

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_features

    # ------------------------------------------------------------------ #
    def truncate_exact(self, acts: np.ndarray, bits: int) -> np.ndarray:
        """Reference truncation: arithmetic shift of the plaintext value.

        The secure ReLU computes exactly this shift inside its garbled
        circuit, so the two agree bit for bit.
        """
        if bits == 0:
            return acts
        signed = self.ring.to_signed(acts)
        return self.ring.reduce(signed >> np.int64(bits))

    def _pool_exact(self, spec: PoolSpec, acts: np.ndarray) -> np.ndarray:
        """Plaintext average-pooling reference (see repro.core.pooling for
        the share-local realization this mirrors)."""
        windows = gather_windows(spec, acts)  # (out, window, batch)
        summed = self.ring.to_signed(self.ring.sum(windows, axis=1))
        return self.ring.reduce(summed >> np.int64(spec.avg_shift_bits))

    def forward_int(self, x_ring: np.ndarray) -> np.ndarray:
        """The plaintext integer reference of the secure computation.

        ``x_ring`` is ``(features, batch)`` of ring elements; the result is
        ``(classes, batch)`` integer logits.
        """
        acts = self.ring.reduce(x_ring)
        for i, layer in enumerate(self.layers):
            if layer.backend == "winograd":
                # Transform-domain conv: the lifted value is exactly
                # 4 * (W * x), so the plaintext division is an exact
                # arithmetic shift — this path equals the im2col path
                # bit-for-bit (given the headroom check).
                wspec = layer.wino
                operand = lower_tiles(wspec, acts, self.ring)
                wt = self.ring.reduce(transform_weights(wspec, layer.w_int))
                oc, ci = layer.shape[0], wspec.in_channels
                prod = self.ring.zeros((16 * oc, operand.shape[1]))
                for g in range(16):
                    prod[g * oc : (g + 1) * oc] = self.ring.matmul(
                        wt[g * oc : (g + 1) * oc], operand[g * ci : (g + 1) * ci]
                    )
                acts = lift_tiles(wspec, oc, prod, self.ring)
                acts = self.truncate_exact(acts, 2)  # exact /4 on the value
                bias = conv_bias_vector(layer.conv, layer.bias_int, oc)
                acts = self.ring.add(acts, self.ring.reduce(bias)[:, None])
            else:
                w_ring = self.ring.reduce(layer.w_int)
                operand = lower_shares(layer.conv, acts) if layer.conv else acts
                acts = self.ring.matmul(w_ring, operand)
                acts = self.ring.add(acts, self.ring.reduce(layer.bias_int)[:, None])
                if layer.conv:
                    acts = lift_output(layer.conv, layer.shape[0], acts)
            if i < len(self.layers) - 1:
                acts = self.truncate_exact(acts, layer.truncate_bits)
                signed = self.ring.to_signed(acts)
                acts = self.ring.reduce(np.where(signed > 0, signed, 0))
                if layer.pool:
                    acts = self._pool_exact(layer.pool, acts)
        return acts

    def predict(self, x_float: np.ndarray) -> np.ndarray:
        """Float batch (batch, features) -> class indices, via the integer path."""
        x_ring = self.encoder.encode(np.asarray(x_float).T)
        logits = self.forward_int(x_ring)
        return np.argmax(self.ring.to_signed(logits), axis=0)

    def logits_float(self, x_float: np.ndarray) -> np.ndarray:
        """Decoded float logits, (batch, classes)."""
        x_ring = self.encoder.encode(np.asarray(x_float).T)
        logits = self.forward_int(x_ring)
        return self.encoder.decode(logits, extra_scale=self.output_deferral).T

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == np.asarray(y)))

    # ------------------------------------------------------------------ #
    def max_abs_activation(self, x_float: np.ndarray) -> float:
        """Largest |integer value| along the pipeline (overflow check)."""
        acts = np.asarray(x_float, dtype=np.float64).T * self.encoder.scale
        worst = float(np.abs(acts).max()) if acts.size else 0.0
        for i, layer in enumerate(self.layers):
            if layer.backend == "winograd":
                # Track the true transform-domain peaks: the input tiles
                # (gain <= 4), the 16 grouped accumulators, and the
                # pre-division 4*conv output.
                wspec = layer.wino
                xt = lower_tiles_value(wspec, acts)
                worst = max(worst, float(np.abs(xt).max()))
                wt = transform_weights(wspec, layer.w_int).astype(np.float64)
                oc, ci = layer.shape[0], wspec.in_channels
                prod = np.empty((16 * oc, xt.shape[1]))
                for g in range(16):
                    prod[g * oc : (g + 1) * oc] = (
                        wt[g * oc : (g + 1) * oc] @ xt[g * ci : (g + 1) * ci]
                    )
                worst = max(worst, float(np.abs(prod).max()))
                lifted = lift_tiles_value(wspec, oc, prod)
                worst = max(worst, float(np.abs(lifted).max()))
                bias = conv_bias_vector(layer.conv, layer.bias_int, oc)
                acts = np.floor(lifted / 4.0) + bias[:, None].astype(np.float64)
                worst = max(worst, float(np.abs(acts).max()))
            else:
                operand = lower_shares(layer.conv, acts) if layer.conv else acts
                acts = layer.w_int.astype(np.float64) @ operand + layer.bias_int[:, None]
                worst = max(worst, float(np.abs(acts).max()))
                if layer.conv:
                    acts = lift_output(layer.conv, layer.shape[0], acts)
            if i < len(self.layers) - 1:
                acts = np.floor(acts / 2.0**layer.truncate_bits)
                acts = np.maximum(acts, 0.0)
                if layer.pool:
                    windows = gather_windows(layer.pool, acts)
                    acts = np.floor(windows.sum(axis=1) / 2.0**layer.pool.avg_shift_bits)
        return worst

    def check_range(self, x_float: np.ndarray) -> None:
        worst = self.max_abs_activation(x_float)
        limit = 2.0 ** (self.ring.bits - 1)
        if worst >= limit:
            raise QuantizationError(
                f"activations reach {worst:.3g}, overflowing the "
                f"{self.ring.bits}-bit ring; lower frac_bits or widen the ring"
            )


def _collect_linear_layers(
    model: Sequential, input_shape: tuple[int, int, int] | None
) -> list[tuple]:
    """Walk the model; return (layer, Im2colSpec | None, PoolSpec | None)
    per linear layer.

    Tracks activation geometry through Conv2d and pooling layers so each
    convolution gets a concrete :class:`Im2colSpec` and each pooling step
    a :class:`PoolSpec`; Flatten and ReLU are transparent (flat C-order
    feature vectors are the pipeline's native activation form).  Pooling
    must appear in the Conv2d -> ReLU -> pool pattern: the secure layer
    applies it after the ReLU of its linear layer.
    """
    collected: list[list] = []  # [layer, conv_spec, pool_spec]
    geometry = input_shape  # (channels, height, width) or None
    seen_relu_since_linear = False
    for layer in model.layers:
        if isinstance(layer, Dense):
            collected.append([layer, None, None])
            geometry = None
            seen_relu_since_linear = False
        elif isinstance(layer, Conv2d):
            if geometry is None:
                raise QuantizationError(
                    "Conv2d needs input_shape=(channels, height, width) "
                    "and cannot follow a Dense layer"
                )
            spec = Im2colSpec(
                in_channels=geometry[0],
                height=geometry[1],
                width=geometry[2],
                kernel=layer.kernel_size,
                stride=layer.stride,
            )
            if spec.in_channels != layer.in_channels:
                raise QuantizationError(
                    f"Conv2d expects {layer.in_channels} channels, "
                    f"geometry provides {spec.in_channels}"
                )
            collected.append([layer, spec, None])
            geometry = (layer.out_channels, spec.out_h, spec.out_w)
            seen_relu_since_linear = False
        elif isinstance(layer, AvgPool2d):
            if geometry is None or not collected:
                raise QuantizationError(
                    "pooling needs a preceding Conv2d (known geometry)"
                )
            if not seen_relu_since_linear:
                raise QuantizationError(
                    "the secure pipeline supports the Conv2d -> ReLU -> pool "
                    "pattern; put the activation before the pooling layer"
                )
            if collected[-1][2] is not None:
                raise QuantizationError("two pooling layers in a row")
            pool = PoolSpec(
                channels=geometry[0],
                height=geometry[1],
                width=geometry[2],
                kernel=layer.kernel_size,
            )
            collected[-1][2] = pool
            geometry = (pool.channels, pool.out_h, pool.out_w)
        elif isinstance(layer, ReLU):
            seen_relu_since_linear = True
        elif not isinstance(layer, Flatten):
            raise QuantizationError(
                f"cannot quantize layer {type(layer).__name__}; "
                "supported: Dense, Conv2d, ReLU, Flatten, AvgPool2d"
            )
    if collected and collected[-1][2] is not None:
        raise QuantizationError("pooling after the final linear layer is unsupported")
    return [tuple(entry) for entry in collected]


def set_chunk_cols(model: QuantizedModel, chunk_cols: int | None) -> QuantizedModel:
    """A copy of ``model`` with every conv layer's ``chunk_cols`` replaced.

    ``chunk_cols`` bounds the lowered-operand columns the secure linear
    layers materialize at once (see :class:`~repro.nn.lowering.Im2colSpec`).
    Weights, bias, and scheme objects are shared with the original —
    chunking is a local memory policy, it never changes results, wire
    bytes, or the model fingerprint — so variants are cheap to spawn.
    """
    layers = [
        replace(layer, conv=replace(layer.conv, chunk_cols=chunk_cols))
        if layer.conv is not None
        else layer
        for layer in model.layers
    ]
    return QuantizedModel(
        layers, model.ring, model.encoder.frac_bits,
        output_deferral=model.output_deferral,
    )


def quantize_model(
    model: Sequential,
    scheme: FragmentScheme | list[FragmentScheme],
    ring: Ring,
    frac_bits: int = 6,
    input_shape: tuple[int, int, int] | None = None,
    linear_backend: str = "im2col",
    chunk_cols: int | None = None,
) -> QuantizedModel:
    """Quantize every linear layer of ``model`` onto fragment scheme(s).

    ``scheme`` may be a single scheme for all layers or one per linear
    layer.  Dense/ReLU architectures need no extra arguments; models with
    Conv2d layers must pass ``input_shape=(channels, height, width)`` so
    each convolution's im2col lowering (:mod:`repro.nn.lowering`) can be
    resolved.  ReLU is implied between linear layers on the secure path;
    Flatten is a no-op (activations are already flat feature vectors).

    ``linear_backend`` selects the conv lowering: ``"winograd"`` marks
    every *eligible* convolution (3x3, stride 1) to run the F(2x2,3x3)
    tile backend; ineligible geometries and Dense layers stay on im2col.
    Each marked layer must pass the transform-domain ring-headroom check
    (:func:`repro.nn.winograd.check_winograd_headroom`) or a
    :class:`~repro.errors.ConfigError` is raised.

    ``chunk_cols`` bounds the lowered-operand columns each conv layer's
    secure matmul materializes at once (``None`` = unchunked; see
    :func:`set_chunk_cols` to change it on an existing model).

    Every layer's width (``relu_bits``: its GC ReLU and its ring) is
    sized for inputs in the public domain ``|x| <= INPUT_BOUND``
    (:mod:`repro.quant.headroom`); the secure client refuses inputs
    beyond it.
    """
    if linear_backend not in ("im2col", "winograd"):
        raise QuantizationError(f"unknown linear backend {linear_backend!r}")
    linear_layers = _collect_linear_layers(model, input_shape)
    if isinstance(scheme, FragmentScheme):
        schemes = [scheme] * len(linear_layers)
    else:
        schemes = list(scheme)
        if len(schemes) != len(linear_layers):
            raise QuantizationError(
                f"got {len(schemes)} schemes for {len(linear_layers)} linear layers"
            )

    encoder = FixedPointEncoder(ring, frac_bits)
    quantized = []
    deferral = 1.0  # integer activations = real * 2^f * deferral
    for idx, ((layer, spec, pool), layer_scheme) in enumerate(zip(linear_layers, schemes)):
        q = quantize_for_scheme(layer.weight, layer_scheme)
        last = idx == len(linear_layers) - 1
        accumulator_deferral = deferral / q.scale
        bias_int = np.rint(layer.bias * encoder.scale * accumulator_deferral).astype(
            np.int64
        )
        if q.shift is not None and not last:
            truncate_bits = q.shift
            deferral = accumulator_deferral * q.scale  # shift undoes 1/scale
        else:
            truncate_bits = 0
            deferral = accumulator_deferral
        backend = "im2col"
        if (
            linear_backend == "winograd"
            and spec is not None
            and WinogradSpec.supports(spec)
        ):
            check_winograd_headroom(
                ring.bits, layer_scheme, spec.in_channels, frac_bits
            )
            backend = "winograd"
        quantized.append(
            QuantizedDense(
                weights=q,
                bias_int=bias_int,
                truncate_bits=truncate_bits,
                conv=spec if spec is None or chunk_cols is None
                else replace(spec, chunk_cols=chunk_cols),
                pool=pool,
                backend=backend,
            )
        )
    widths = relu_widths(
        [
            (layer.w_int, layer.bias_int, layer.truncate_bits, layer.pool is not None)
            for layer in quantized
        ],
        ring.bits, frac_bits,
    )
    quantized = [replace(layer, relu_bits=width) for layer, width in zip(quantized, widths)]
    return QuantizedModel(quantized, ring, frac_bits, output_deferral=deferral)
