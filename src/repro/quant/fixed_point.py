"""Fixed-point encoding of activations into Z_{2^l}.

The paper keeps activations in fixed-point form ("activations will be in
float-point form and be encoded as fixed-point to utilize the
cryptographic protocol").  We use the classic two's-complement encoding
with ``frac_bits`` fractional bits: ``encode(x) = round(x * 2^f) mod 2^l``.

Because ReLU is positively homogeneous (``ReLU(s*y) = s*ReLU(y)`` for
``s > 0``), a float weight scale (binary/ternary schemes) is deferred to
the final logits instead of being divided out layer by layer, and
:meth:`decode` accepts the accumulated ``extra_scale``.  Power-of-two
weight scales are divided out after each hidden layer by an exact
arithmetic shift, which the secure pipeline performs inside the GC ReLU
(:mod:`repro.core.relu`); :mod:`repro.nn.quantize` has the details.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError
from repro.utils.ring import Ring


class FixedPointEncoder:
    """Encode/decode floats as ring elements with ``frac_bits`` precision."""

    def __init__(self, ring: Ring, frac_bits: int) -> None:
        if not 0 <= frac_bits < ring.bits:
            raise QuantizationError(
                f"frac_bits must be in [0, {ring.bits}), got {frac_bits}"
            )
        self.ring = ring
        self.frac_bits = frac_bits
        self.scale = float(1 << frac_bits)

    def encode(self, values) -> np.ndarray:
        """Floats -> ring elements (two's complement, round-to-nearest)."""
        arr = np.asarray(values, dtype=np.float64)
        scaled = np.rint(arr * self.scale)
        limit = 2.0 ** (self.ring.bits - 1)
        if (np.abs(scaled) >= limit).any():
            raise QuantizationError(
                f"value magnitude exceeds the {self.ring.bits}-bit ring after scaling"
            )
        return self.ring.reduce(scaled.astype(np.int64))

    def decode(self, elements, extra_scale: float = 1.0) -> np.ndarray:
        """Ring elements -> floats, dividing out ``2^f * extra_scale``.

        ``extra_scale`` carries the product of deferred per-layer
        quantization scales (see module docstring).
        """
        signed = self.ring.to_signed(elements)
        return signed.astype(np.float64) / (self.scale * extra_scale)

    def __repr__(self) -> str:
        return f"FixedPointEncoder(bits={self.ring.bits}, frac_bits={self.frac_bits})"
