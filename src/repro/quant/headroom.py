"""Ring-headroom accounting: layer widths and Winograd convolution.

:func:`relu_widths` is one closed-form pass over a model's integer
weights that bounds every linear layer's output ``y = W z + b`` from the
public input domain :data:`INPUT_BOUND`: the width ``m`` with
``|y| < 2^(m-1)`` that the GC ReLU needs (:mod:`repro.core.relu`) and
the ring ``Z_(2^m)`` the layer's triplets and shares can live in.  No
data pass: the bound is interval arithmetic on that domain.

The F(2x2,3x3) backend (:mod:`repro.nn.winograd`) multiplies in the
*tile-transform domain*, where both operands grow beyond their quantized
ranges:

* **Weights** pass through ``G2 g G2^T`` with ``G2 = 2G`` integer; the
  worst row L1 norm of ``G2 (x) G2`` is ``3 * 3 = 9``, so a scheme whose
  weights live in ``[lo, hi]`` produces transformed weights bounded by
  ``9 * max(|lo|, |hi|)``.  The secure dot products therefore run on a
  *derived* fragment scheme wide enough for that range —
  :func:`winograd_scheme`.  The derivation is a pure function of the
  public scheme (never of the actual weights), so using it leaks nothing.
* **Activations** pass through ``B^T d B`` with row L1 norms <= 2 per
  1-D pass, i.e. a 2-D tile gain of up to ``4``; and the output
  transform sums up to ``16`` tile products (with the uniform scale 4
  the ``G2`` convention introduces).  :func:`check_winograd_headroom`
  refuses the backend unless the ring leaves
  ``log2(16 * max_tile_gain) = 6`` slack bits above the layer's
  plaintext accumulator width — the condition under which the exact
  share-local division by 4 (and every intermediate) cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError
from repro.quant.fragments import FragmentScheme

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


#: Worst-case 2-D input-tile gain: max row L1 of ``B^T (x) B^T`` (2 * 2).
WINOGRAD_MAX_TILE_GAIN = 4

#: Tile products per output tile in F(2x2,3x3).
WINOGRAD_TILE_POINTS = 16

#: Worst-case growth of a transformed weight: max row L1 of ``G2 (x) G2``.
WINOGRAD_WEIGHT_GAIN = 9

#: Slack bits the backend demands: ``ceil(log2(16 * max_tile_gain))``.
WINOGRAD_SLACK_BITS = math.ceil(math.log2(WINOGRAD_TILE_POINTS * WINOGRAD_MAX_TILE_GAIN))


def winograd_scheme(scheme: FragmentScheme) -> FragmentScheme:
    """The fragment scheme the Winograd tile products decompose over.

    Transformed weights ``G2 g G2^T`` span ``[-9M, 9M]`` for a base
    scheme with weights in ``[-M, M]``-ish ranges; the derived scheme is
    the narrowest signed 2-bit-radix decomposition covering that.  Being
    derived from the (public) base scheme only, both parties compute it
    independently and identically.
    """
    lo, hi = scheme.weight_range
    bound = WINOGRAD_WEIGHT_GAIN * max(abs(lo), abs(hi))
    if bound < 1:
        raise ConfigError(f"scheme {scheme.name!r} has an empty weight range")
    # Smallest eta' with [-2^(eta'-1), 2^(eta'-1) - 1] covering [-bound, bound].
    eta = bound.bit_length() + 1
    widths = (2,) * (eta // 2) + ((1,) if eta % 2 else ())
    return FragmentScheme.from_bits(widths, signed=True)


def check_winograd_headroom(
    ring_bits: int,
    scheme: FragmentScheme,
    in_channels: int,
    frac_bits: int,
) -> None:
    """Refuse the Winograd backend when the ring cannot absorb the gains.

    The accumulator of one tile product sums ``in_channels`` transformed
    products of an ``eta'``-bit weight with a ``frac_bits``-scaled
    activation; on top of that the backend needs
    :data:`WINOGRAD_SLACK_BITS` bits for the input-tile gain, the output
    transform's 16-term sums, and one sign bit.
    """
    wino = winograd_scheme(scheme)
    accum_bits = wino.eta + frac_bits + math.ceil(math.log2(max(2, in_channels)))
    needed = accum_bits + WINOGRAD_SLACK_BITS + 1
    if ring_bits < needed:
        raise ConfigError(
            f"winograd backend needs {needed} ring bits for scheme "
            f"{scheme.name!r} (transformed eta={wino.eta}, frac_bits="
            f"{frac_bits}, C_in={in_channels}, slack={WINOGRAD_SLACK_BITS}) "
            f"but the ring has {ring_bits}; use im2col or widen the ring"
        )
