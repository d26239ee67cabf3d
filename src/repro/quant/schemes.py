"""Weight quantizers: float tensors -> integer weights + a deferred scale.

The trained float weights are mapped onto the integer grids the fragment
schemes can carry:

* :func:`quantize_symmetric` — eta-bit symmetric quantization (INT4/INT8
  style): ``w_int = round(w / s)`` with ``s = max|w| / (2^(eta-1) - 1)``.
* :func:`quantize_ternary` — {-1, 0, 1} with a magnitude threshold
  (QUOTIENT's weight space).
* :func:`quantize_binary` — {0, 1} (the paper's binary scheme).

Each returns a :class:`QuantizedTensor` carrying the integers, the scale
to divide out at the end of inference, and the matching
:class:`~repro.quant.fragments.FragmentScheme`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.quant.fragments import FragmentScheme


@dataclass
class QuantizedTensor:
    """Integer weights plus the scale that maps them back to floats.

    ``shift`` is set for power-of-two scales (``scale = 2**-shift``):
    those layers can be rescaled after the secure matmul by SecureML-style
    *local share truncation*, keeping activations inside the ring.  Float
    scales (ternary/binary) leave ``shift`` as ``None`` and defer the
    rescaling to the logits (ReLU is positively homogeneous).
    """

    ints: np.ndarray  # int64
    scale: float  # w_float ~ ints * scale
    scheme: FragmentScheme
    shift: int | None = None

    def dequantize(self) -> np.ndarray:
        return self.ints.astype(np.float64) * self.scale

    def quantization_error(self, reference: np.ndarray) -> float:
        """RMS error against the original float tensor."""
        diff = self.dequantize() - np.asarray(reference, dtype=np.float64)
        return float(np.sqrt(np.mean(diff**2)))


def quantize_symmetric(
    weights, scheme: FragmentScheme
) -> QuantizedTensor:
    """Symmetric uniform quantization onto a fragment scheme's range.

    The scale is constrained to a power of two (``2**-shift``) so the
    secure pipeline can undo it with an exact shift inside the GC ReLU.
    A scheme with no positive weight (signed 1-bit: ``[-1, 0]``) is
    refused: it cannot carry a symmetric grid.
    """
    lo, hi = scheme.weight_range
    if lo >= 0:
        raise QuantizationError(
            f"scheme {scheme.name} is unsigned; use quantize_binary instead"
        )
    # Use the symmetric part of the range so +max and -max both fit.
    bound = min(hi, -lo - 1) if -lo - 1 >= 1 else hi
    if bound < 1:
        raise QuantizationError(
            f"scheme {scheme.name} has no positive weight (range [{lo}, {hi}]); "
            "use the 'binary' or 'ternary' scheme for 1- or 2-level weights"
        )
    w = np.asarray(weights, dtype=np.float64)
    max_abs = float(np.max(np.abs(w))) if w.size else 0.0
    if max_abs > 0:
        # Largest power of two with round(w * 2^shift) still within bound.
        shift = int(np.floor(np.log2(bound / max_abs)))
        while np.abs(np.rint(w * 2.0**shift)).max() > bound:
            shift -= 1
    else:
        shift = 0
    shift = max(shift, 0)
    ints = np.clip(np.rint(w * 2.0**shift), lo, hi).astype(np.int64)
    return QuantizedTensor(ints=ints, scale=2.0**-shift, scheme=scheme, shift=shift)


def quantize_ternary(weights, threshold_ratio: float = 0.5) -> QuantizedTensor:
    """{-1, 0, 1} quantization with threshold ``t = ratio * mean|w|``."""
    w = np.asarray(weights, dtype=np.float64)
    scheme = FragmentScheme.ternary()
    threshold = threshold_ratio * float(np.mean(np.abs(w))) if w.size else 0.0
    ints = np.zeros(w.shape, dtype=np.int64)
    ints[w > threshold] = 1
    ints[w < -threshold] = -1
    nonzero = np.abs(w)[ints != 0]
    scale = float(np.mean(nonzero)) if nonzero.size else 1.0
    return QuantizedTensor(ints=ints, scale=scale, scheme=scheme)


def quantize_binary(weights, threshold: float = 0.0) -> QuantizedTensor:
    """{0, 1} quantization (the paper's binary scheme).

    Positive weights become 1 at scale mean(|positive|); everything else
    drops to 0.  Crude — which is the point: the binary rows of the
    evaluation trade accuracy for protocol speed.
    """
    w = np.asarray(weights, dtype=np.float64)
    scheme = FragmentScheme.binary()
    ints = (w > threshold).astype(np.int64)
    kept = w[ints == 1]
    scale = float(np.mean(kept)) if kept.size else 1.0
    return QuantizedTensor(ints=ints, scale=scale, scheme=scheme)


def quantize_for_scheme(weights, scheme: FragmentScheme) -> QuantizedTensor:
    """Dispatch on the scheme kind — the one-stop API used by nn.quantize."""
    if scheme.name == "binary":
        return quantize_binary(weights)
    if scheme.name == "ternary":
        return quantize_ternary(weights)
    return quantize_symmetric(weights, scheme)
