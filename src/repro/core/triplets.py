"""Dot-product / matrix triplet generation over 1-out-of-N OT extension.

This is the paper's Algorithm 1 plus both Section 4.1 optimizations, for
server weight matrix ``W`` (eta-bit quantized, m x n) and client random
matrix ``R`` (uniform in Z_{2^l}, n x o):

* **OT layout.**  Every weight element contributes gamma fragments; OT
  ``(i, j, k)`` (row, column, fragment) carries the product of fragment
  value ``vt_k[digit]`` with the client's row ``R[j, :]``.  OTs are
  grouped by fragment radix (mixed-radix schemes like (3,3,2) run one
  KK13 session per distinct N).
* **Two passes, two flights.**  A product's OTs cross in wire chunks of
  :meth:`TripletConfig.sub_block` OTs, one ``U`` frame and one message
  frame each, and the generation runs in two passes over all of them.
  Pass 1 (:func:`start_triplets_server` / :func:`start_triplets_client`):
  the server extends every chunk and sends its ``U``, keeping its ``T``
  rows; the client receives every ``U`` and extends it, keeping its
  ``Q`` rows — ``c(N)/8`` B per OT held on each side.  Pass 2 (the
  ``finish`` those return): the client hashes, masks, packs and sends
  every chunk's message frame, and the server hashes its pads and opens
  it.  The client sends nothing before it holds the last ``U``, so the
  offline phase of a whole model is one server flight and one client
  flight, however many chunks and layers it has, and each party's work
  on chunk ``k`` overlaps the other's on its neighbours.  Shares and
  bytes do not depend on the chunk grid; frame boundaries, frame order
  and hence the transcript digests do.  The chunk also bounds the
  ``N * o``-wide working set (hash inputs, pads, products, openings,
  segment sums), in closed form in
  :func:`repro.perf.costmodel.triplet_working_set_bytes`.
* **One layout at every batch width (Sections 4.1.2 and 4.1.3).**  The
  server's choice digit is identical for all ``o`` columns, so one OT
  carries ``o`` masked products (the multi-batch reuse), and the pad of
  message 0 *is* the client's share (the one-batch correlated-OT trick,
  which works lane by lane): ``s`` is the low ``o*l`` bits of pad 0, read
  as ``o`` ring elements, and only messages ``1 .. N-1`` cross the wire,
  ``{vt[t] * R[j, :] - s}``, each element XORed with the low ``l`` bits of
  its pad element and a chunk's ``(count, N - 1, o)`` elements packed
  back to back.  The server takes ``-pad`` for digit 0 and opens message
  ``digit - 1`` otherwise.  Per-OT communication:
  ``o*l*(N-1) + c(N)`` bits, up to one word per span (only a span's
  last chunk can end inside a word) — Table 1's 1-Batch
  column at ``o = 1``, and its M-Batch column less the ``o*l`` bits of
  message 0 at ``o > 1``.  The trick needs ``vt[0] == 0`` (digit 0 adds
  nothing), which the client checks for every fragment.

Table 1 charges ``2*kappa = 256`` bits of KK13 ``U`` matrix per OT; the
running protocol sends ``c(N)`` = :func:`repro.crypto.codes.code_length`
bits, the Walsh–Hadamard columns some codeword in ``[0, N)`` uses: 128
for ``N = 2``, 192 for ``N = 3, 4``, 256 beyond.  Both generators reserve
the widest ``c(N)`` of their radix groups on the channel's base-OT
set-up first, so a mixed-radix product still runs one handshake.

Outputs satisfy ``U + V = W_signed @ R  (mod 2^l)`` with ``U`` on the
server and ``V`` on the client.  Signed weights cost nothing extra: the
top fragment's value table interprets its digit in two's complement (the
client enumerates message contents for every digit anyway).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.crypto.codes import code_length
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.kk13 import Kk13Receiver, Kk13Sender
from repro.crypto.otsetup import channel_setup
from repro.errors import ConfigError
from repro.net.channel import Channel
from repro.net.frames import checked_frame
from repro.perf.trace import channel_resume, channel_span
from repro.quant.fragments import FragmentScheme
from repro.utils.accum import segment_sum_u64
from repro.utils.bits import (
    concat_packed_rows,
    gather_bit_rows,
    pack_ring_words,
    packed_word_count,
    unpack_ring_words,
)
from repro.utils.ring import Ring

_U64 = np.uint64

#: Soft cap on the ``N * o``-wide words of one wire chunk (~4 MiB of
#: uint64): the chunk's hash inputs, pads, products, openings and segment
#: sums exist one chunk at a time.
_SUB_BLOCK_WORDS = 1 << 19
_TRIPLET_DOMAIN = 23


@dataclass
class TripletConfig:
    """Shared public parameters of one triplet generation.

    Both parties must construct identical configs (the model architecture
    and scheme are public); shapes are (m, n) for W and (n, o) for R.

    ``groups > 1`` runs a *block-diagonal* product over one OT session:
    W is stacked ``(groups * m, n)``, R stacked ``(groups * n, o)``, and
    block ``g`` of the output is ``W[g m:(g+1) m] @ R[g n:(g+1) n]`` —
    the shape the Winograd backend's 16 per-tile-position products take
    (:mod:`repro.nn.winograd`).  The OT layout is unchanged (flat index
    still runs over all ``rows * n`` weight elements); only the client's
    R-row lookup becomes group-aware, and ``groups=1`` reduces to the
    historical wire format byte-for-byte.
    """

    ring: Ring
    scheme: FragmentScheme
    m: int
    n: int
    o: int
    group: ModpGroup = DEFAULT_GROUP
    groups: int = 1

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.o) < 1:
            raise ConfigError("matrix dimensions must be positive")
        if self.groups < 1:
            raise ConfigError("groups must be positive")

    @property
    def rows(self) -> int:
        """Stacked output rows: ``groups * m`` (equals ``m`` when ungrouped)."""
        return self.groups * self.m

    @property
    def w_shape(self) -> tuple[int, int]:
        return (self.rows, self.n)

    @property
    def r_shape(self) -> tuple[int, int]:
        return (self.groups * self.n, self.o)

    @property
    def out_shape(self) -> tuple[int, int]:
        """Shape of U, V, and the online product share."""
        return (self.rows, self.o)

    @property
    def radix_groups(self) -> list[tuple[int, list[int]]]:
        """Fragment indices grouped by radix N, deterministic order."""
        groups: dict[int, list[int]] = {}
        for idx, frag in enumerate(self.scheme.fragments):
            groups.setdefault(frag.n_values, []).append(idx)
        return sorted(groups.items())

    @property
    def code_bits(self) -> int:
        """Base OTs the widest KK13 session of this product needs: the
        largest code length ``c(N)`` over the radix groups."""
        return max(code_length(n_values) for n_values, _ in self.radix_groups)

    def sub_block(self, n_values: int) -> int:
        """OTs per wire chunk: a multiple of 64, so every chunk but a
        span's last fills whole words and the PRG streams, the frames'
        word padding and the shares do not depend on the grid."""
        return max(64, _SUB_BLOCK_WORDS // (n_values * self.o) // 64 * 64)

    @property
    def total_ots(self) -> int:
        """gamma * rows * n — Table 1's #OT row at every batch width."""
        return self.scheme.gamma * self.rows * self.n


class BlockedShare:
    """An offline share matrix held as contiguous column blocks.

    The streamed dealer (:mod:`repro.serve.dealer`) produces a conv
    layer's ``U``/``V`` block-by-block so the full ``(rows, o)`` matrix
    is never a single allocation, and the chunked online path consumes
    it the same way.  Semantically it *is* the concatenation of its
    blocks — :meth:`columns` serves any ``[lo, hi)`` range regardless of
    how the producer's block grid lines up with the consumer's, and
    :meth:`materialize` recovers the plain array for legacy callers.

    Blocks are never mutated after construction (the fault-recovery
    contract: re-running an online round must see identical material).
    """

    __slots__ = ("_blocks", "_bounds", "_rows")

    def __init__(self, blocks: list[np.ndarray]) -> None:
        if not blocks:
            raise ConfigError("BlockedShare needs at least one column block")
        arrs = [np.asarray(b) for b in blocks]
        rows = arrs[0].shape[0] if arrs[0].ndim == 2 else -1
        for arr in arrs:
            if arr.ndim != 2 or arr.shape[0] != rows:
                raise ConfigError(
                    f"BlockedShare blocks must share a row count; got "
                    f"{[a.shape for a in arrs]}"
                )
        self._blocks = arrs
        self._rows = rows
        bounds = []
        hi = 0
        for arr in arrs:
            hi += arr.shape[1]
            bounds.append(hi)
        self._bounds = bounds

    @classmethod
    def from_array(cls, arr: np.ndarray, chunk: int | None = None) -> "BlockedShare":
        """Split a plain share matrix on a ``chunk``-column grid."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ConfigError(f"expected a 2-D share matrix, got shape {a.shape}")
        if a.shape[1] == 0:
            return cls([a])
        step = a.shape[1] if chunk is None else max(1, min(chunk, a.shape[1]))
        return cls([a[:, lo : lo + step] for lo in range(0, a.shape[1], step)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, self._bounds[-1] if self._bounds else 0)

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    def blocks(self) -> list[np.ndarray]:
        """The underlying column blocks, in order (do not mutate)."""
        return list(self._blocks)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``[lo, hi)`` of the logical matrix.

        A range inside one block is a zero-copy view; a straddling range
        concatenates only the touched pieces.
        """
        total = self.shape[1]
        if not (0 <= lo <= hi <= total):
            raise ConfigError(f"column range [{lo}, {hi}) outside [0, {total})")
        pieces = []
        block_lo = 0
        for arr, block_hi in zip(self._blocks, self._bounds):
            if block_hi > lo and block_lo < hi:
                pieces.append(arr[:, max(lo, block_lo) - block_lo : min(hi, block_hi) - block_lo])
            if block_hi >= hi:
                break
            block_lo = block_hi
        if len(pieces) == 1:
            return pieces[0]
        if not pieces:
            return self._blocks[0][:, :0]
        return np.concatenate(pieces, axis=1)

    def materialize(self) -> np.ndarray:
        """The full share matrix as one contiguous array (legacy callers)."""
        if len(self._blocks) == 1:
            return self._blocks[0]
        return np.concatenate(self._blocks, axis=1)


def _flat_coords(start: int, count: int, n: int, k_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose flat OT indices (i, j, k_pos lexicographic) of one group."""
    flat = np.arange(start, start + count, dtype=np.int64)
    i_idx = flat // (n * k_count)
    rem = flat % (n * k_count)
    return i_idx, rem // k_count, rem % k_count


def _add_rows(acc: np.ndarray, values: np.ndarray, start: int, config: TripletConfig, k_count: int) -> None:
    """``acc[i] += values[t]`` for the output row ``i`` of flat OT ``start + t``.

    Flat indices run row-major, so one chunk's OTs touch a contiguous
    run of rows: the segment sum spans only those rows.
    """
    per_row = config.n * k_count
    first = start // per_row
    rows = (start + len(values) - 1) // per_row - first + 1
    i_idx = np.arange(start, start + len(values), dtype=np.int64) // per_row - first
    # bincount-based segment sum; np.add.at is a numpy slow path.
    sums = segment_sum_u64(values, i_idx, rows)
    acc[first : first + rows] = config.ring.add(acc[first : first + rows], sums)


#: What pass 1 leaves for pass 2, per chunk: the chunk's flat OT range
#: ``[lo, hi)``, its first OT index and its T (server) or Q (client) rows.
Held = deque[tuple[int, int, int, np.ndarray]]


# --------------------------------------------------------------------- #
# span workers: the two passes over one flat-index range of one radix
# group.  The generators below run them over [0, total); the sharded
# execution engine (repro.exec.triplets) runs disjoint spans on
# independent OT sessions — OT instances are independent, so a span's
# contribution to U/V depends only on its own indices.
# --------------------------------------------------------------------- #
def extend_span(
    session: Kk13Receiver | Kk13Sender,
    choices: np.ndarray | None,
    start: int,
    stop: int,
    chunk: int,
) -> Held:
    """Pass 1 over flat OTs ``[start, stop)``: extend one wire chunk of
    ``chunk`` OTs at a time, so one ``U`` frame moves per chunk, and hold
    its rows for pass 2.  The server passes the group's full digit
    vector, the client ``None``.
    """
    held: Held = deque()
    for lo in range(start, stop, chunk):
        hi = min(stop, lo + chunk)
        batch = hi - lo if choices is None else choices[lo:hi]
        held.append((lo, hi, *session.extend(batch)))
    return held


def server_span_open(
    chan: Channel,
    receiver: Kk13Receiver,
    choices: np.ndarray,
    config: TripletConfig,
    n_values: int,
    k_count: int,
    held: Held,
) -> np.ndarray:
    """Pass 2 of the server's span: per chunk, hash its pads, receive the
    client's message frame and add the openings to the partial ``U``,
    which it returns.  Each chunk's rows are released once hashed.

    ``choices`` is the *full* flattened digit vector of the group, so
    absolute flat indices keep addressing the right (i, j, k) triple.
    """
    ring, o = config.ring, config.o
    width = packed_word_count(o, ring.bits)
    per_ot = (n_values - 1) * o  # message elements per OT on the wire
    u = ring.zeros(config.out_shape)

    def open_chunk(lo: int, hi: int, first: int, rows: np.ndarray) -> None:
        """Add one chunk's openings to ``u``.  Its rows, pads and frame
        die on return, before the next chunk's exist."""
        count = hi - lo
        pad = receiver.pads_at(rows, first, width, _TRIPLET_DOMAIN)
        del rows
        with channel_span(chan, "ot-transfer", m=count, width=width):
            packed = checked_frame(
                chan.recv(), (packed_word_count(count * per_ot, ring.bits),),
                "triplet message frame",
            )
        sel = choices[lo:hi].astype(np.int64)
        # Any digit t > 0 opens message t - 1's o * l bits.  Digit 0
        # takes -pad: the client's share is its pad 0.
        message = np.arange(count, dtype=np.int64) * (n_values - 1) + np.maximum(sel - 1, 0)
        got = gather_bit_rows(packed, message * o * ring.bits, o * ring.bits)
        zero = sel == 0
        got[zero] = 0
        values = unpack_ring_words(got ^ pad, ring.bits, o)
        values[zero] = ring.neg(values[zero])
        _add_rows(u, values, lo, config, k_count)

    while held:
        open_chunk(*held.popleft())
    return u


def client_span_send(
    chan: Channel,
    sender: Kk13Sender,
    value_table: np.ndarray,
    r: np.ndarray,
    config: TripletConfig,
    n_values: int,
    k_count: int,
    held: Held,
) -> np.ndarray:
    """Pass 2 of the client's span: per chunk, hash its pads, take pad 0
    as the shares and send the masked messages; returns the partial
    ``V``.  Each chunk's rows are released once hashed.

    The shares are the pads of message 0, so a span's output is a pure
    function of ``(sender, value_table, r)`` and its OT range.
    """
    ring, o = config.ring, config.o
    width = packed_word_count(o, ring.bits)
    v = ring.zeros(config.out_shape)

    def send_chunk(lo: int, hi: int, first: int, rows: np.ndarray) -> None:
        """Send one chunk's message frame and add its shares to ``v``.
        Its rows, pads and products die on return, before the next
        chunk's exist."""
        count = hi - lo
        pads = sender.pads_at(rows, first, width, _TRIPLET_DOMAIN)  # (count, N, W)
        del rows
        # vt_k[digit] * R[j, :] for digits 1 .. N-1: (count, N - 1, o).
        # Group-aware R row: stacked row i belongs to block i // m, whose
        # operand rows start at (i // m) * n.  Reduces to r[j_idx] when
        # groups == 1 (i // m is then always 0).
        i_idx, j_idx, k_pos = _flat_coords(lo, count, config.n, k_count)
        r_rows = r[(i_idx // config.m) * config.n + j_idx]  # (count, o)
        products = ring.mul(value_table[k_pos][:, 1:, None], r_rows[:, None, :])
        # Pad 0's low o * l bits are the shares.  Messages 1 .. N-1 are
        # packed, then XORed with their pads' low o * l bits, packed back
        # to back the same way.
        s = unpack_ring_words(pads[:, 0], ring.bits, o)  # (count, o)
        _add_rows(v, s, lo, config, k_count)
        messages = ring.sub(products, s[:, None, :])
        del products, s
        frame = pack_ring_words(messages.reshape(1, -1), ring.bits)[0]
        del messages
        stream = concat_packed_rows(pads[:, 1:].reshape(-1, width), o * ring.bits)
        del pads
        frame.view(np.uint8)[: len(stream)] ^= np.frombuffer(stream, dtype=np.uint8)
        del stream
        with channel_span(chan, "ot-transfer", m=count, width=width):
            chan.send(frame)

    while held:
        send_chunk(*held.popleft())
    return v


def fragment_value_table(config: TripletConfig, k_list: list[int]) -> np.ndarray:
    """Per-digit signed contributions ``(|K|, N)`` of one radix group's
    fragments, as ring elements.

    Digit 0 must contribute nothing: the server's share for it is
    ``-pad 0``, which the client's share (pad 0) cancels exactly.
    """
    table = np.stack([config.scheme.values(k) for k in k_list])
    if (table[:, 0] != 0).any():
        raise ConfigError(
            f"fragment value tables of {config.scheme.name} must map digit 0 to 0, "
            f"got {table[:, 0].tolist()}"
        )
    return config.ring.reduce(table)


# --------------------------------------------------------------------- #
# server: holds W, acts as OT receiver (choice = fragment digit)
# --------------------------------------------------------------------- #
def start_triplets_server(
    chan: Channel,
    w_int: np.ndarray,
    config: TripletConfig,
    seed: int | None = None,
) -> Callable[[], np.ndarray]:
    """Pass 1 of the server's side: every chunk's ``U`` goes out.
    Returns pass 2, which receives the client's frames and returns ``U``
    of shape ``(rows, o)`` ring elements."""
    w = np.asarray(w_int, dtype=np.int64)
    if w.shape != config.w_shape:
        raise ConfigError(f"expected W of shape {config.w_shape}, got {w.shape}")
    ring = config.ring
    digits = config.scheme.digits(w)  # (rows, n, gamma) uint8

    channel_setup(chan, config.group).reserve(config.code_bits)
    groups = []
    for n_values, k_list in config.radix_groups:
        group_seed = None if seed is None else seed + n_values
        with channel_span(
            chan, f"radix{n_values}", n_values=n_values, fragments=len(k_list),
            m=config.rows, n=config.n, o=config.o, ring_bits=ring.bits,
        ) as span:
            receiver = Kk13Receiver(chan, n_values, group=config.group, seed=group_seed)
            choices = digits[:, :, k_list].reshape(-1)
            held = extend_span(
                receiver, choices, 0, choices.shape[0], config.sub_block(n_values)
            )
        groups.append((span, receiver, choices, n_values, len(k_list), held))
    del digits

    def finish() -> np.ndarray:
        u = ring.zeros(config.out_shape)
        for span, receiver, choices, n_values, k_count, held in groups:
            with channel_resume(chan, span):
                u = ring.add(
                    u,
                    server_span_open(chan, receiver, choices, config, n_values, k_count, held),
                )
        return ring.reduce(u)

    return finish


def generate_triplets_server(
    chan: Channel,
    w_int: np.ndarray,
    config: TripletConfig,
    seed: int | None = None,
) -> np.ndarray:
    """Server side, both passes; returns ``U`` of shape ``(rows, o)``."""
    return start_triplets_server(chan, w_int, config, seed)()


# --------------------------------------------------------------------- #
# client: holds R, acts as OT sender (N - 1 messages per OT)
# --------------------------------------------------------------------- #
def start_triplets_client(
    chan: Channel,
    r_mat: np.ndarray,
    config: TripletConfig,
    seed: int | None = None,
) -> Callable[[], np.ndarray]:
    """Pass 1 of the client's side: every chunk's ``U`` is received and
    extended.  Returns pass 2, which sends every message frame and
    returns ``V`` of shape ``(rows, o)`` ring elements."""
    r = np.asarray(r_mat, dtype=_U64)
    if r.shape != config.r_shape:
        raise ConfigError(f"expected R of shape {config.r_shape}, got {r.shape}")
    ring = config.ring
    tables = [fragment_value_table(config, k_list) for _, k_list in config.radix_groups]

    channel_setup(chan, config.group).reserve(config.code_bits)
    groups = []
    for (n_values, k_list), table in zip(config.radix_groups, tables):
        group_seed = None if seed is None else seed + n_values
        with channel_span(
            chan, f"radix{n_values}", n_values=n_values, fragments=len(k_list),
            m=config.rows, n=config.n, o=config.o, ring_bits=ring.bits,
        ) as span:
            sender = Kk13Sender(chan, n_values, group=config.group, seed=group_seed)
            held = extend_span(
                sender, None, 0, config.rows * config.n * len(k_list),
                config.sub_block(n_values),
            )
        groups.append((span, sender, table, n_values, len(k_list), held))

    def finish() -> np.ndarray:
        v = ring.zeros(config.out_shape)
        for span, sender, table, n_values, k_count, held in groups:
            with channel_resume(chan, span):
                v = ring.add(
                    v,
                    client_span_send(chan, sender, table, r, config, n_values, k_count, held),
                )
        return ring.reduce(v)

    return finish


def generate_triplets_client(
    chan: Channel,
    r_mat: np.ndarray,
    config: TripletConfig,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Client side, both passes; returns ``V`` of shape ``(rows, o)``.

    ``rng`` is accepted for call compatibility and not drawn from: the
    shares are pads of the OT extension, seeded by ``seed``.
    """
    return start_triplets_client(chan, r_mat, config, seed)()
