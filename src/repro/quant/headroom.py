"""Ring-headroom accounting: the public width of every linear layer.

:func:`relu_widths` is one closed-form pass over a model's integer
weights that bounds every linear layer's output ``y = W z + b`` from the
public input domain :data:`INPUT_BOUND`: the width ``m`` with
``|y| < 2^(m-1)`` that the GC ReLU needs (:mod:`repro.core.relu`) and
the ring ``Z_(2^m)`` the layer's triplets and shares can live in.  No
data pass: the bound is interval arithmetic on that domain.
"""

from __future__ import annotations

import math

import numpy as np

#: The public input domain ``|x| <= INPUT_BOUND`` every model is quantized
#: for (the zoo's, the datasets' and the benchmark's inputs lie in
#: ``[0, 1]``).  It sizes the GC ReLUs (:func:`relu_widths`), and the
#: secure client refuses an input beyond it.
INPUT_BOUND = 1.0


def input_bound_int(frac_bits: int) -> int:
    """The fixed-point bound ``B_0``: every input ``|x| <= INPUT_BOUND``
    encodes to an integer of magnitude at most this."""
    return math.ceil(INPUT_BOUND * (1 << frac_bits))


def relu_widths(
    layers: list[tuple],
    ring_bits: int,
    frac_bits: int,
) -> list[int]:
    """Public output widths ``m_i`` of every linear layer, logits included.

    ``layers`` holds ``(w_int, bias_int, truncate_bits, pooled)`` per
    linear layer.  With ``B_0 = INPUT_BOUND * 2^frac_bits``:

    * ``A_i = max_row ||W_i||_1 * B_i + max |b_i|`` bounds ``|y_i|``;
    * ``m_i = min(l, bitlen(A_i) + 1)``, and at least ``f_i + 1`` so the
      shifted value keeps its sign bit;
    * ``B_(i+1) = floor(A_i / 2^f_i)``, plus 1 after an average pool
      (its share-local shift may round up by one unit).

    A hidden layer's ``m_i`` sizes its GC ReLU; every layer's sizes the
    ring its triplets and shares live in
    (:meth:`repro.core.protocol.ModelMeta.layer_ring`), the last one's
    being the logits width.  A conv layer's weight rows are its patches,
    so the same row norm bounds each output position.  The bound reveals
    about ``log2`` of each layer's worst-case accumulator, the same kind
    of fact as the public ``truncate_bits``.
    """
    bound = input_bound_int(frac_bits)
    widths = []
    for w_int, bias_int, shift, pooled in layers:
        row_l1 = int(np.abs(np.asarray(w_int, dtype=np.int64)).sum(axis=1).max())
        bias = int(np.abs(np.asarray(bias_int, dtype=np.int64)).max(initial=0))
        accumulator = row_l1 * bound + bias
        widths.append(min(ring_bits, max(shift + 1, accumulator.bit_length() + 1)))
        bound = (accumulator >> shift) + (1 if pooled else 0)
    return widths

