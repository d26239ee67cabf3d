"""Analytic communication/OT-count models (the formulas behind Table 1).

These reproduce the paper's closed forms so benchmarks can print the
predicted columns next to the measured ones:

=========  =====================================  ================================
System     #OT                                    Communication (bits)
=========  =====================================  ================================
SecureML   ``l(l+1)/128 * m*n*o``                 ``m*n*o * l(l+1) * (1 + k/64)``
ABNN2      ``gamma * m * n``                      ``gamma*m*n*(o*l*(N-1) + c(N))``
=========  =====================================  ================================

The ABNN2 row is one form at every batch width ``o``: the client's share
is the pad of message 0, so ``N - 1`` messages of ``o`` elements cross
the wire per OT (:mod:`repro.core.triplets`).  At ``o = 1`` it is the
paper's 1-Batch column; its M-Batch column sends all ``N`` messages,
``gamma*m*n*o*l`` bits more than this form.

The paper's Table 1 charges ``2k = 256`` bits of KK13 ``U`` matrix per
OT.  The ABNN2 forms here price the running protocol instead: ``c(N)``
(:func:`kk13_code_bits`) is the KK13 code length of radix ``N`` — 128 for
``N = 2``, 192 for ``N = 3, 4``, 256 beyond — so for ``N <= 4`` the wire
sits ``gamma*m*n*(256 - c(N))`` bits below the paper's figure.
:mod:`repro.core.params` keeps the paper's ``2k`` for its scheme search.

Mixed-radix schemes replace the uniform ``gamma * (... N ...)`` by a sum
over fragments with their individual ``N_i``.  The base-OT set-up is not
in these per-layer forms: it is one handshake per channel and direction
(:func:`base_ot_setup_bits`), counted once per prediction.

Each layer is priced at its own ring width ``l`` (the protocol narrows
every layer to its output width, :meth:`repro.core.protocol.ModelMeta.
layer_ring`); the paper's rows fix ``l = 32``.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import MATMUL_EXPANSION_WORDS

KAPPA = 128


# --------------------------------------------------------------------- #
# SecureML (Table 1, column 1)
# --------------------------------------------------------------------- #
def secureml_ot_count(m: int, n: int, o: int, ring_bits: int, kappa: int = KAPPA) -> float:
    """``l(l+1)/128 * m*n*o`` — OTs counted in 128-bit-packed units."""
    return ring_bits * (ring_bits + 1) / kappa * m * n * o


def secureml_comm_bits(m: int, n: int, o: int, ring_bits: int, kappa: int = KAPPA) -> float:
    """``m*n*o * l(l+1) * (1 + kappa/64)`` bits."""
    return m * n * o * ring_bits * (ring_bits + 1) * (1 + kappa / 64)


# --------------------------------------------------------------------- #
# KK13 code length and the base-OT set-up (repro.crypto.otsetup)
# --------------------------------------------------------------------- #
def kk13_code_bits(n_values: int) -> int:
    """``c(N)``: the KK13 ``U`` bits per OT, and base OTs, at radix ``N``.

    The closed form of :func:`repro.crypto.codes.code_length` (kept here
    so the cost model prices a trace without importing the protocol
    stack; ``tests/test_perf.py`` pins agreement for every ``N``): the
    Walsh–Hadamard columns some codeword of ``[0, N)`` uses are the
    ``256 - 256 / 2^r`` with a nonzero low ``r = bitlen(N - 1)`` bits,
    kept when a multiple of 64 and otherwise rounded up to all 256.
    """
    if not 2 <= n_values <= 256:
        raise ConfigError(f"N must be in [2, 256], got {n_values}")
    used = 256 - (256 >> (n_values - 1).bit_length())
    return used if used % 64 == 0 else 256


def base_ot_setup_bits(columns: int, element_bits: int) -> int:
    """One set-up handshake: the sender's ``A`` plus one ``B_j`` per column.

    ``(columns + 1) * element_bits``.  A one-shot prediction runs exactly
    one, of ``c_max`` columns (the largest :func:`kk13_code_bits` of the
    model's fragments: 192 when every ``N <= 4``; the GC label OT reuses
    the first 128), and a served bank session one of 128 columns.
    """
    return (columns + 1) * element_bits


# --------------------------------------------------------------------- #
# ABNN2 (Table 1, columns 2-3)
# --------------------------------------------------------------------- #
def abnn2_ot_count(scheme: FragmentScheme, m: int, n: int) -> int:
    """``gamma * m * n`` at every batch width."""
    return scheme.gamma * m * n


def abnn2_comm_bits_radices(
    radices,
    m: int,
    n: int,
    o: int,
    ring_bits: int,
    code_bits=None,
) -> int:
    """Table 1 closed form from the raw fragment radices ``[N_1, ..]``.

    The per-fragment form the trace conformance checker uses: traces
    carry ``frag_n_values`` (one N per fragment) and ``code_bits`` (the
    ``U`` bits per OT of each fragment's KK13 session) rather than a
    :class:`FragmentScheme` object.  ``code_bits=None`` prices each
    fragment at :func:`kk13_code_bits`.
    """
    radices = list(radices)
    if code_bits is None:
        code_bits = [kk13_code_bits(n_values) for n_values in radices]
    if len(code_bits) != len(radices):
        raise ConfigError("code_bits needs one entry per fragment")
    total = 0
    for n_values, code in zip(radices, code_bits):
        total += m * n * (o * ring_bits * (n_values - 1) + code)
    return total


def abnn2_comm_bits(
    scheme: FragmentScheme,
    m: int,
    n: int,
    o: int,
    ring_bits: int,
) -> int:
    """Predicted offline communication of the ABNN2 matmul protocol."""
    return abnn2_comm_bits_radices(
        [frag.n_values for frag in scheme.fragments], m, n, o, ring_bits
    )


def winograd_reduction_ratio(out_h: int, out_w: int, n_tiles: int, kernel: int = 3) -> float:
    """im2col/Winograd F(2x2,3x3) triplet-element ratio (2.25 on even
    stride-1 maps, where ``n_tiles = out_h * out_w / 4``).

    Kept for the frozen end-to-end probe
    (``benchmarks/e2e/probes.py::nn_probes``) only; no conv layer runs
    the Winograd lowering (:mod:`repro.nn.winograd`).
    """
    return (kernel * kernel * out_h * out_w) / (16.0 * n_tiles)


def share_frame_bits(count: int, ring_bits: int) -> int:
    """An online share frame (the input ``x - r``, the logits share):
    ``count`` ring elements packed back to back, padded to a word."""
    return 64 * _words(count, ring_bits)


def network_offline_comm_bits(
    layer_shapes: list[tuple[int, int]],
    scheme: FragmentScheme,
    o: int,
    ring_bits: int,
) -> int:
    """Offline triplet traffic for a whole FC network (Table 2 predictor)."""
    return sum(abnn2_comm_bits(scheme, m, n, o, ring_bits) for m, n in layer_shapes)


# --------------------------------------------------------------------- #
# memory: peak working sets of the linear online pass
# --------------------------------------------------------------------- #
#: int64 ring words everywhere in the share pipeline.
WORD_BYTES = 8


def _matmul_intermediate_words(m: int, n: int, cols: int) -> int:
    """Peak expanded (rows, n, cols) intermediate of ``Ring.matmul``.

    The ring product materializes row chunks of the elementwise
    ``(m, n, cols)`` expansion under the
    :data:`repro.utils.ring.MATMUL_EXPANSION_WORDS` budget, so the
    transient is ``min(m, budget // (n cols)) * n * cols`` words (at
    least one row).
    """
    if cols == 0:
        return 0
    rows = min(m, max(1, MATMUL_EXPANSION_WORDS // (n * cols)))
    return rows * n * cols


def lowered_operand_bytes(n: int, total_cols: int, word_bytes: int = WORD_BYTES) -> int:
    """Bytes of one layer's fully-materialized lowered operand.

    The share matrix the linear engines consume is ``(n, total_cols)``
    int64 — ``n`` is the operand rows (``patch_len`` for im2col,
    ``in_features`` for dense) and ``total_cols`` is ``batch *
    n_positions`` / ``batch``.  This is the allocation the chunked path
    (``Im2colSpec.chunk_cols``) avoids.
    """
    if n < 1 or total_cols < 0:
        raise ConfigError("operand dimensions must be positive")
    return n * total_cols * word_bytes


def linear_working_set_bytes(
    m: int,
    n: int,
    total_cols: int,
    chunk_cols: int | None = None,
    word_bytes: int = WORD_BYTES,
) -> int:
    """Predicted transient peak of the server's online linear step for
    one layer, excluding persistent state (weights, the banked ``U``,
    the accumulated output share).

    Unchunked, the pass materializes the whole lowered operand (``n``
    rows), the product (``m`` rows) and the summed output (``m`` rows)
    at full width: ``total_cols * (n + 2m)`` words.  Chunked at ``c =
    min(chunk_cols, total_cols)`` columns, each block holds the lowered
    block, the product, the sum *and* a copy of the served ``U`` columns
    (block reads may concatenate across bank blocks): ``c * (n + 3m)``
    words.  Both forms add the row-chunked expansion transient of
    ``Ring.matmul`` at the block's column count.  The ratio to :func:`lowered_operand_bytes` is what the big-model
    benchmark's RSS gate measures end to end.
    """
    if min(m, n) < 1 or total_cols < 0:
        raise ConfigError("matmul dimensions must be positive")
    if chunk_cols is None or chunk_cols >= total_cols:
        return word_bytes * (
            total_cols * (n + 2 * m)
            + _matmul_intermediate_words(m, n, total_cols)
        )
    if chunk_cols < 1:
        raise ConfigError("chunk_cols must be positive")
    return word_bytes * (
        chunk_cols * (n + 3 * m)
        + _matmul_intermediate_words(m, n, chunk_cols)
    )


def client_linear_working_set_bytes(m: int, o: int, word_bytes: int = WORD_BYTES) -> int:
    """Predicted transient peak of the client's online linear step for one
    layer: its product share is the banked ``V`` (it multiplies nothing),
    which it lifts back to flat form, ``m * o`` words."""
    if min(m, o) < 1:
        raise ConfigError("matmul dimensions must be positive")
    return word_bytes * m * o


# --------------------------------------------------------------------- #
# memory: the offline triplet working set
# --------------------------------------------------------------------- #
#: The wire-chunk constant mirrored from :mod:`repro.core.triplets` (kept
#: numeric: the cost model prices a trace without importing the protocol
#: stack).  ``tests/test_trace_memory.py`` pins agreement.
TRIPLET_SUB_BLOCK_WORDS = 1 << 19
#: ``c/8`` B-per-OT rows (``c`` = :func:`kk13_code_bits`) one chunk's
#: extension holds at once across the pair, at most: PRG blocks, the U
#: blob and its encoding, the decoded copy, the Q columns, and the copy
#: and output of each side's bit transpose.
_EXTENSION_ROWS = 10
#: Mirrors :data:`repro.crypto.fastro._PAD_BLOCK_WORDS`: the working set,
#: in words, of one row block of the OT pads' numpy reference (the path a
#: host without the compiled kernel hashes on; the kernel holds none).
PAD_BLOCK_WORDS = 1 << 15
#: Fixed per-layer allowance: KK13 session state, the base-OT handshake
#: of the first layer, span and interpreter objects (measured: under
#: 0.5 MiB on a 3x5 layer).
_SESSION_BYTES = 1 << 20


def _words(n_elems: int, bits: int) -> int:
    return (n_elems * bits + 63) // 64


def triplet_sub_block_ots(n_values: int, o: int) -> int:
    """OTs per wire chunk (:meth:`repro.core.triplets.TripletConfig.sub_block`)."""
    return max(64, TRIPLET_SUB_BLOCK_WORDS // (n_values * o) // 64 * 64)


def triplet_working_set_bytes(
    m: int,
    n: int,
    o: int,
    ring_bits: int,
    frag_n_values,
    word_bytes: int = WORD_BYTES,
) -> int:
    """Upper bound on one layer's triplet-generation allocation peak,
    both parties in one process (the in-memory channel pair).

    The layer runs in two passes over its wire chunks of ``B`` OTs
    (:func:`triplet_sub_block_ots`), and the bound is the larger of them.
    Across all radix groups each party holds ``H`` words of rows between
    the passes (``k = c(N) / 64`` words per OT), and the client's message
    frames total ``M`` words (``N - 1`` messages of ``o`` elements per OT,
    ``words(T (N - 1) o l)`` for a group of ``T`` OTs).  Sends never
    block, so a flight may sit whole in the channel:

    * **extension** (pass 1): both parties' rows and every ``U`` frame in
      flight (``3 H``), plus one chunk's :data:`_EXTENSION_ROWS` rows of
      ``k`` words per OT;
    * **messages** (pass 2): both parties' rows and every message frame in
      flight (``2 H + M``), plus one chunk at the worst group: the
      client's pads, shares, products, their masked difference, the
      packed messages and the packed stream of their pads (``N (4 o + W +
      1)`` words per OT), its frame and the server's decoded copy
      (``2 F``), the server's pads, openings and segment sums (``B (5 W +
      6 o)`` words), and each party's pad-hashing scratch: ``2 min(B h,
      max(P, h))`` for ``h = n W (k + 12)``, at ``n = N`` pads per OT for
      the client and ``n = 1`` for the server (:data:`PAD_BLOCK_WORDS`).

    ``W = words(o l)`` and ``F = words(B (N - 1) o l)``.  Neither party
    builds the hash inputs ``(row ^ offset) || index`` of a chunk: the
    compiled kernel hashes each as it forms it, and its numpy reference
    builds a block of at most ``P`` words at a time.  The layer adds the
    server's digit and choice vectors (one byte per OT each), both
    parties' ``(m, o)`` accumulators and :data:`_SESSION_BYTES`.
    """
    radices = list(frag_n_values)
    if min(m, n, o, len(radices)) < 1:
        raise ConfigError("triplet dimensions must be positive")
    width = _words(o, ring_bits)
    held = frames = extension = chunk_peak = 0
    for nv in set(radices):
        total = m * n * radices.count(nv)
        block = min(triplet_sub_block_ots(nv, o), total)
        code_words = kk13_code_bits(nv) // 64
        held += code_words * total
        frames += _words(total * (nv - 1) * o, ring_bits)
        extension = max(extension, _EXTENSION_ROWS * code_words * block)
        client = block * nv * (4 * o + width + 1)
        server = block * (5 * width + 6 * o)
        frame = _words(block * (nv - 1) * o, ring_bits)
        hashing = 0
        for pads in (nv, 1):  # the client's N pads per OT, the server's one
            per_ot = pads * width * (code_words + 12)
            hashing += 2 * min(block * per_ot, max(PAD_BLOCK_WORDS, per_ot))
        chunk_peak = max(chunk_peak, client + 2 * frame + server + hashing)
    worst = max(3 * held + extension, 2 * held + frames + chunk_peak)
    return word_bytes * (4 * m * o + worst) + 2 * m * n * len(radices) + _SESSION_BYTES


# --------------------------------------------------------------------- #
# online GC (the non-linear layers)
# --------------------------------------------------------------------- #
def relu_and_gates(
    out_bits: int, width: int | None = None, shift: int = 0, kind: str = "relu"
) -> int:
    """AND gates of the ReLU gadget (:mod:`repro.gc.builder`).

    ``m = width`` input bits (default ``l' = out_bits``, the output
    ring's width), ``k = m - shift`` output bits, of which the circuit
    keeps ``k' = min(k, l')``.  The adder takes ``m - 1``;
    ``kind="sign"`` stops there.  The subtraction takes ``k`` with its
    borrow out when ``k < l'``, else ``k' - 1``, where no high bits
    remain.  ``kind="relu"`` also masks: ``k - 1`` narrowed (the sign bit
    masks to a free 0), else ``k'``.
    """
    m = out_bits if width is None else width
    k = m - shift
    if kind == "sign":
        return m - 1
    narrowed = k < out_bits
    kept = min(k, out_bits)
    subtract = k if narrowed else kept - 1
    mask = 0 if kind == "reconstruct" else (k - 1 if narrowed else kept)
    return (m - 1) + mask + subtract


def relu_half_gates(
    out_bits: int, width: int | None = None, shift: int = 0, kind: str = "relu"
) -> int:
    """ANDs of the ReLU gadget with one garbler-known operand.

    Each is a one-ciphertext garbler half gate: the adder's first AND
    (``y0[0] & y1[0]``, when ``m > 1``) and, unless ``kind="sign"``, the
    subtraction's first (it ORs in ``~z1[0]``, when the subtraction has
    an AND at all).  Every other AND has two labelled operands.
    """
    m = out_bits if width is None else width
    adder = int(m > 1)
    if kind == "sign":
        return adder
    k = m - shift
    return adder + int(k < out_bits or min(k, out_bits) > 1)


def _gc_relu_layer_bits(
    out_bits: int, n: int, width: int | None, shift: int, kind: str, kappa: int
) -> int:
    """Wire bits of one ReLU-gadget execution on ``n`` instances: the
    garbler's frame and the evaluator's label-OT ``U``."""
    m = out_bits if width is None else width
    k = 1 if kind == "sign" else min(m - shift, out_bits)
    ands = relu_and_gates(out_bits, width, shift, kind)
    half = relu_half_gates(out_bits, width, shift, kind)
    high = out_bits - (m - shift)
    rows = 64 * _words(2 * n, high) if kind != "sign" and high > 0 else 0
    return (
        n * (2 * ands - half) * kappa  # garbled tables: one row per half gate
        + n * m * 2 * kappa  # label C-OT: U column and correction per y0 bit
        + 8 * ((k * n + 7) // 8)  # decode bits, packed
        + rows  # the 2-row table, packed at l' - k bits per row
    )


def gc_relu_comm_bits(
    out_bits: int,
    n_relus: int,
    width: int | None = None,
    shift: int = 0,
    kappa: int = KAPPA,
) -> int:
    """Online traffic of the oblivious ReLU layer at ``(l', m, f, n)``.

    Per instance, with ``m = width`` (default ``l'``, the output ring's
    width) and ``k = min(m - f, l')`` output bits: :func:`relu_and_gates`
    AND gates at two kappa-bit ciphertexts each (half-gates), less one
    per :func:`relu_half_gates` garbler half gate; an ``m``-bit label
    C-OT for the evaluator's input (kappa bits of OT-extension matrix and
    one kappa-bit correction per bit).  The garbler's ``m + k`` input
    bits cost nothing: they are folded into the garbling.  Per layer,
    the ``k n`` decode bits packed into bytes and, when ``m - f < l'``,
    the ``2n`` rows of the high-bits table packed at ``l' - (m - f)``
    bits each.  At full width (``m = l'``, ``f = 0``) the circuit is the
    paper's ``3l - 2``-AND one.
    """
    return _gc_relu_layer_bits(out_bits, n_relus, width, shift, "relu", kappa)


def gc_relu_wire_bits(
    out_bits: int,
    n_relus: int,
    width: int | None = None,
    shift: int = 0,
    variant: str = "oblivious",
    n_positive: int | None = None,
    kappa: int = KAPPA,
) -> int:
    """Exact wire bits of one GC ReLU layer, base OTs excluded.

    ``oblivious``: :func:`gc_relu_comm_bits`.  ``optimized``
    (``n_positive`` of the ``n_relus`` signs came out non-negative, a
    fact both parties learn): the sign stage on every instance, the
    packed sign frame back, the reconstruct stage on the positives and
    the ``-z1`` shares of the negatives packed at ``l'`` bits.  Every
    term is byte-exact on the wire: half-gate tables are 128-bit
    ciphertexts, the IKNP U column is ``kappa`` bits per OT and the
    label correction ``kappa``; decode bits, rows and shares pad only to
    their frame's byte or word.  The conformance suite asserts
    *equality*.
    """
    if variant == "oblivious":
        return gc_relu_comm_bits(out_bits, n_relus, width, shift, kappa)
    if variant != "optimized":
        raise ConfigError(f"unknown ReLU variant {variant!r}")
    if n_positive is None:
        raise ConfigError("the optimized ReLU is priced from its n_positive")
    return (
        _gc_relu_layer_bits(out_bits, n_relus, width, 0, "sign", kappa)
        + 8 * ((n_relus + 7) // 8)  # the revealed sign pattern
        + _gc_relu_layer_bits(out_bits, n_positive, width, shift, "reconstruct", kappa)
        + 64 * _words(n_relus - n_positive, out_bits)  # -z1 for the negatives
    )


# --------------------------------------------------------------------- #
# MiniONN (Table 4 anchor model)
# --------------------------------------------------------------------- #
# The paper reports MiniONN's measured traffic for the Figure-4 network:
# 18.1 MB at batch 1 and 1621.3 MB at batch 128 (Enc(W) transferred
# once).  A two-point affine model comm(o) = fixed + o * per_prediction
# reproduces both anchors; our Paillier re-implementation undercounts
# MiniONN's SEAL ciphertext sizes, so harnesses quote this model
# alongside the measured bytes.
_MINIONN_BATCH1_MB = 18.1
_MINIONN_BATCH128_MB = 1621.3


def minionn_comm_model_mb(batch: int) -> float:
    """Paper-anchored MiniONN traffic for the Figure-4 MNIST network."""
    if batch < 1:
        raise ConfigError("batch must be positive")
    per = (_MINIONN_BATCH128_MB - _MINIONN_BATCH1_MB) / 127.0
    fixed = _MINIONN_BATCH1_MB - per
    return fixed + per * batch
