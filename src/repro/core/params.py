"""Fragment-scheme selection: the paper's optimal (N, gamma) choices.

Contribution 2 of the paper: "Among all possible combinations of protocol
parameters N and gamma, we give the optimal parameter values for
different bitwidth of quantized weights."  This module reproduces that
search analytically from Table 1's cost formulas:

* one-batch communication per weight element:
  ``sum_i [ l * (N_i - 1) + 2*kappa ]`` bits,
* multi-batch communication per weight element:
  ``sum_i [ o * l * N_i + 2*kappa ]`` bits,

with ``N_i = 2**b_i`` over all compositions ``(b_1, .., b_gamma)`` of the
weight bitwidth eta (fragment width capped at 4 bits — the paper caps N
at 16).  A "time" objective uses the same formulas as a proxy for OT
masking work, which is what dominates wall-clock in the offline phase.

The search keeps the paper's ``2*kappa`` per OT.  The running protocol
pays less: KK13 sends ``c(N)`` bits of ``U`` per OT
(:func:`repro.crypto.codes.code_length`: 128 for ``N = 2``, 192 for
``N = 3, 4``, 256 beyond; :mod:`repro.perf.costmodel` prices it).  At
that cost the one-batch optimum for ``eta = 8, l = 32`` is ``(2,2,2,2)``
at 1152 bits per weight, not the paper's ``(2,3,3)``, which costs 1248.
The running protocol also sends ``N - 1`` messages at every batch width
(:func:`repro.perf.costmodel.abnn2_comm_bits`), and under that layout
binary fragments ``(1,...,1)`` are the cheapest 8-bit scheme once
``o * l > 64``.

So the protocol does not run a layer's declared split as is.
:func:`wire_split` re-splits every bit-sliced scheme per linear layer:
it keeps eta and the sign, and picks the composition of eta that is
cheapest at the wire prices
(:func:`repro.perf.costmodel.abnn2_comm_bits_radices`) for the layer's
public ``(o, l)``.  :func:`repro.core.protocol.layer_triplet_config`
applies it, so both parties and the dealer run the same split.
:func:`optimal_scheme` and :func:`enumerate_costs` stay the paper's
Table-1 search.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigError
from repro.perf.costmodel import abnn2_comm_bits_radices
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme

KAPPA = 128
MAX_FRAGMENT_BITS = 4  # the paper caps N at 16 = 2^4


def _check_eta(eta: int) -> None:
    """The weight bitwidths both searches accept; the composition count
    grows about 1.9x per bit, so this also bounds their work."""
    if not 1 <= eta <= 16:
        raise ConfigError(f"eta must be in [1, 16], got {eta}")


def scheme_for(name: str) -> FragmentScheme:
    """Look up a scheme by Table 2 notation (e.g. ``"8(2,2,2,2)"``)."""
    if name in TABLE2_SCHEMES:
        return TABLE2_SCHEMES[name]
    raise ConfigError(
        f"unknown scheme {name!r}; known: {sorted(TABLE2_SCHEMES)}"
    )


@lru_cache(maxsize=None)
def _compositions(eta: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    """All ordered compositions of ``eta`` into parts in [1, max_part]."""
    if eta == 0:
        return ((),)
    out = []
    for head in range(1, min(eta, max_part) + 1):
        for tail in _compositions(eta - head, max_part):
            out.append((head,) + tail)
    return tuple(out)


def comm_bits_per_weight(
    bit_widths: tuple[int, ...], ring_bits: int, batch: int, kappa: int = KAPPA
) -> int:
    """Table 1 communication (bits) for one weight element's OTs."""
    total = 0
    for width in bit_widths:
        n = 1 << width
        if batch == 1:
            total += ring_bits * (n - 1) + 2 * kappa
        else:
            total += batch * ring_bits * n + 2 * kappa
    return total


def ot_count_per_weight(bit_widths: tuple[int, ...]) -> int:
    """gamma — the number of (N 1)-OT invocations per weight element."""
    return len(bit_widths)


def optimal_scheme(
    eta: int,
    ring_bits: int = 32,
    batch: int = 1,
    objective: str = "comm",
    kappa: int = KAPPA,
) -> FragmentScheme:
    """The cheapest fragment decomposition of an eta-bit weight.

    ``objective`` is ``"comm"`` (bits on the wire, the Table 1 measure) or
    ``"ots"`` (fewest OT invocations, i.e. smallest gamma; ties broken by
    communication).  The search space is every composition of eta into
    fragments of at most :data:`MAX_FRAGMENT_BITS` bits.
    """
    _check_eta(eta)
    if objective not in ("comm", "ots"):
        raise ConfigError(f"unknown objective {objective!r}")
    candidates = _compositions(eta, MAX_FRAGMENT_BITS)

    def cost(widths: tuple[int, ...]) -> tuple:
        comm = comm_bits_per_weight(widths, ring_bits, batch, kappa)
        ots = ot_count_per_weight(widths)
        return (comm, ots) if objective == "comm" else (ots, comm)

    best = min(candidates, key=cost)
    return FragmentScheme.from_bits(best)


def enumerate_costs(
    eta: int, ring_bits: int = 32, batch: int = 1, kappa: int = KAPPA
) -> list[dict]:
    """Cost table over all compositions at the paper's Table 1 prices."""
    _check_eta(eta)
    rows = []
    for widths in _compositions(eta, MAX_FRAGMENT_BITS):
        rows.append(
            {
                "bit_widths": widths,
                "gamma": len(widths),
                "max_n": 1 << max(widths),
                "comm_bits": comm_bits_per_weight(widths, ring_bits, batch, kappa),
            }
        )
    rows.sort(key=lambda r: r["comm_bits"])
    return rows


# --------------------------------------------------------------------- #
# the split the protocol runs
# --------------------------------------------------------------------- #
def bit_widths(scheme: FragmentScheme) -> tuple[int, ...] | None:
    """The LSB-first widths of a bit-sliced scheme, or ``None``.

    A scheme is bit-sliced when it equals
    ``FragmentScheme.from_bits(widths, scheme.signed)`` fragment for
    fragment, whatever its name (a scheme read back from a bundle keeps
    its value tables, not its constructor).  ``binary`` is the one-bit
    unsigned slice; ``ternary`` and other value tables are not slices.
    """
    widths = []
    for frag in scheme.fragments:
        width = (frag.n_values - 1).bit_length()
        if frag.n_values != 1 << width:
            return None
        widths.append(width)
    widths = tuple(widths)
    if sum(widths) != scheme.eta:
        return None
    sliced = FragmentScheme.from_bits(widths, signed=scheme.signed)
    if [f.values for f in sliced.fragments] != [f.values for f in scheme.fragments]:
        return None
    return widths


def wire_bits_per_weight(widths: tuple[int, ...], o: int, ring_bits: int) -> int:
    """Bits one weight element's OTs put on the wire at batch width ``o``
    (:func:`~repro.perf.costmodel.abnn2_comm_bits_radices` at
    ``m = n = 1``), next to :func:`comm_bits_per_weight`'s Table-1 price."""
    return abnn2_comm_bits_radices([1 << b for b in widths], 1, 1, o, ring_bits)


@lru_cache(maxsize=1024)
def _wire_widths(
    declared: tuple[int, ...], o: int, ring_bits: int
) -> tuple[int, ...]:
    """The cheapest composition of ``sum(declared)`` at ``(o, l)``: wire
    bits, then fewer radix groups, then the declared split first."""

    def cost(widths: tuple[int, ...]) -> tuple[int, int, bool]:
        return wire_bits_per_weight(widths, o, ring_bits), len(set(widths)), widths != declared

    return min(_compositions(sum(declared), MAX_FRAGMENT_BITS), key=cost)


def wire_split(scheme: FragmentScheme, o: int, ring_bits: int) -> FragmentScheme:
    """The fragment split one layer's OTs run, at batch width ``o`` and
    ring width ``l``.

    The candidates are the compositions of ``scheme.eta`` into fragments
    of at most :data:`MAX_FRAGMENT_BITS` bits, top fragment signed as in
    ``scheme``.  Each is priced per weight by
    :func:`~repro.perf.costmodel.abnn2_comm_bits_radices` (``N - 1``
    messages of ``o * l`` bits and ``c(N)`` bits of ``U`` per OT); ties go
    to fewer radix groups, then to the declared split.  Every candidate
    covers the same weight range with the same two's-complement digits,
    and the choice reads only public facts, so the parties need not agree
    on anything new.  A scheme that is not bit-sliced (:func:`bit_widths`:
    ``ternary``, custom value tables) or wider than the searches' 16 bits
    is returned unchanged, and so is one whose split is already the
    cheapest.
    """
    declared = bit_widths(scheme)
    if declared is None or scheme.eta > 16:
        return scheme
    widths = _wire_widths(declared, o, ring_bits)
    if widths == declared:
        return scheme
    return FragmentScheme.from_bits(widths, signed=scheme.signed)
