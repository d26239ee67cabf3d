"""One round of offline material: two typed halves and one codec.

The paper's offline phase (Section 3, Figure 2) leaves each party with
the correlated randomness one prediction batch consumes online:

* the **server half** — per-layer ``U`` triplet shares;
* the **client half** — the input mask ``r``, per-layer ``V`` triplet
  shares, and the fresh ReLU output share of every hidden layer.

``U + V = W @ R`` per layer, where ``R`` is the (lowered) operand the
client's walk chains from the mask: layer 0's ``R`` is the mask, each
later ``R`` is the previous ReLU share after (share-local average)
pooling.  Every share lives in its layer's public ring
(:meth:`~repro.core.protocol.ModelMeta.layer_ring`): the mask and layer
``i``'s ``U``/``V`` in layer ``i``'s, the ReLU share of hidden layer
``i`` in layer ``i + 1``'s.  Both producers — the two-party OT offline phase
(:meth:`repro.core.protocol.Abnn2Client.offline`) and the closed-form
dealer (:mod:`repro.serve.dealer`) — run that walk in
:func:`chain_operands` and differ only in the linear step.

A ``U``/``V`` share is a plain ``(rows, cols)`` array or a
:class:`~repro.core.triplets.BlockedShare` of column blocks.  Every other
share is a plain array.

Codec: a half encodes as ``(JSON header, uint64 arrays...)``.  The
header of either half is ``{"n_layers"}``.  A ``"blocks"`` list of
per-layer block counts (0 for a plain share) is added only when some
share is blocked, so an all-plain half has one layout.  The array order is:

* client: input mask, ``V`` per layer, ReLU share per hidden layer;
* server: ``U`` per layer.

A blocked share contributes its blocks in order.  The same parts are the
session wire frame (:meth:`encode` / :meth:`decode`) and the bank file
(:mod:`repro.serve.persist`).  :meth:`decode` checks structure only and
raises :class:`ProtocolError`; ``validate`` checks shapes against the
model and raises :class:`ConfigError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from repro.core.pooling import avgpool_share
from repro.core.triplets import BlockedShare
from repro.errors import ConfigError, ProtocolError
from repro.utils.ring import Ring

if TYPE_CHECKING:
    from repro.core.protocol import LayerMeta, ModelMeta

#: A per-layer ``U``/``V`` triplet share.
Share = Union[np.ndarray, BlockedShare]


def materialize(share: Share) -> np.ndarray:
    """The share as one plain array."""
    return share.materialize() if isinstance(share, BlockedShare) else share


def _check_shape(what: str, arr, expected: tuple[int, int]) -> None:
    shape = tuple(getattr(arr, "shape", ()))
    if shape != expected:
        raise ConfigError(f"expected {what} of shape {expected}, got {shape}")


def _check_linear(meta, batch, shares: list, name: str) -> list:
    """Shape-check one ``U``/``V`` per layer and reduce the plain ones in
    their layer's ring (a blocked share is kept as is, so loading never
    copies it whole)."""
    if len(shares) != len(meta.layers):
        raise ConfigError(
            f"offline round has {len(shares)} layers, model has {len(meta.layers)}"
        )
    out = []
    for idx, (layer, share) in enumerate(zip(meta.layers, shares)):
        expected = (layer.matmul_rows, batch * layer.batch_multiplier())
        _check_shape(f"layer {idx} {name}", share, expected)
        out.append(share if isinstance(share, BlockedShare) else meta.layer_ring(idx).reduce(share))
    return out


# --------------------------------------------------------------------- #
# codec
# --------------------------------------------------------------------- #
def _flatten(shares) -> tuple[list[int], list[np.ndarray]]:
    counts, arrays = [], []
    for share in shares:
        if isinstance(share, BlockedShare):
            counts.append(share.n_blocks)
            arrays.extend(share.blocks())
        else:
            counts.append(0)
            arrays.append(share)
    return counts, [_u64(a) for a in arrays]


def _u64(arr) -> np.ndarray:
    return np.asarray(arr, dtype=np.uint64)


def _block_counts(header: dict, n_layers: int) -> list[int]:
    """The header's per-layer block counts; all 0 when ``"blocks"`` is absent."""
    if "blocks" not in header:
        return [0] * n_layers
    counts = header["blocks"]
    if (
        not isinstance(counts, list)
        or len(counts) != n_layers
        or any(type(c) is not int for c in counts)
    ):
        raise ProtocolError("offline-material header field 'blocks' is malformed")
    if any(c < 0 for c in counts):
        raise ProtocolError("offline-material block counts must be non-negative")
    return counts


def _unflatten(arrays: list, counts: list[int]) -> list[Share]:
    shares = []
    for count in counts:
        if count == 0:
            shares.append(arrays.pop(0))
            continue
        blocks = arrays[:count]
        del arrays[:count]
        try:
            shares.append(BlockedShare(blocks))
        except ConfigError as exc:
            raise ProtocolError(f"malformed blocked share: {exc}") from exc
    return shares


class _Half:
    """Codec shared by both halves.  A subclass supplies ``to_parts``,
    ``_plain_count`` (its arrays besides the linear shares, given the
    layer count) and ``_from_arrays``."""

    def encode(self) -> tuple:
        """One wire frame: ``(JSON header bytes, uint64 arrays...)``."""
        header, arrays = self.to_parts()
        return (json.dumps(header, sort_keys=True).encode(), *arrays)

    @classmethod
    def decode(cls, frame):
        """Inverse of :meth:`encode`; structural checks only."""
        if (
            not isinstance(frame, tuple)
            or not frame
            or not isinstance(frame[0], (bytes, bytearray))
        ):
            raise ProtocolError("malformed offline-material frame")
        try:
            header = json.loads(bytes(frame[0]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed offline-material header: {exc}") from exc
        return cls.from_parts(header, list(frame[1:]))

    @classmethod
    def from_parts(cls, header, arrays: list):
        """Rebuild a half from its header and arrays.

        Raises :class:`ProtocolError` on a wrong part count, a part that
        is not a 2-D ``uint64`` array, or block counts the parts do not
        match.
        """
        if not isinstance(header, dict):
            raise ProtocolError("offline-material header must be a JSON object")
        n_layers = header.get("n_layers")
        if type(n_layers) is not int or n_layers < 1:
            raise ProtocolError(f"offline-material header has n_layers={n_layers!r}")
        counts = _block_counts(header, n_layers)
        expected = cls._plain_count(n_layers) + sum(max(c, 1) for c in counts)
        if len(arrays) != expected:
            raise ProtocolError(
                f"offline-material frame has {len(arrays)} arrays, expected {expected}"
            )
        for arr in arrays:
            if not isinstance(arr, np.ndarray) or arr.dtype != np.uint64 or arr.ndim != 2:
                raise ProtocolError(
                    "offline-material parts must be 2-D uint64 arrays, got "
                    f"{type(arr).__name__} {getattr(arr, 'dtype', '')}"
                    f"{getattr(arr, 'shape', '')}"
                )
        return cls._from_arrays(n_layers, counts, list(arrays))


def _with_blocks(header: dict, counts: list[int]) -> dict:
    if any(counts):
        header["blocks"] = counts
    return header


@dataclass(frozen=True)
class ServerHalf(_Half):
    """The server's offline material: per-layer ``U``."""

    u: list

    def validate(self, meta: "ModelMeta", batch: int) -> "ServerHalf":
        """Shape-check against the model; returns the ring-reduced half."""
        return ServerHalf(_check_linear(meta, batch, list(self.u), "U"))

    def to_parts(self) -> tuple[dict, list[np.ndarray]]:
        counts, arrays = _flatten(self.u)
        return _with_blocks({"n_layers": len(self.u)}, counts), arrays

    @classmethod
    def _plain_count(cls, n_layers) -> int:
        return 0

    @classmethod
    def _from_arrays(cls, n_layers, counts, arrays) -> "ServerHalf":
        return cls(_unflatten(arrays, counts))


@dataclass(frozen=True)
class ClientHalf(_Half):
    """The client's offline material (see the module docstring).

    ``relu`` has one entry per hidden layer.
    """

    input_mask: np.ndarray
    v: list
    relu: list

    def validate(self, meta: "ModelMeta", batch: int) -> "ClientHalf":
        """Shape-check against the model; returns the ring-reduced half."""
        v = _check_linear(meta, batch, list(self.v), "V")
        hidden = meta.layers[:-1]
        if len(self.relu) != len(hidden):
            raise ConfigError("offline round must carry one ReLU share per hidden layer")
        _check_shape("input mask", self.input_mask, (meta.layers[0].in_features, batch))
        relu = []
        for idx, (layer, z1) in enumerate(zip(hidden, self.relu)):
            _check_shape(f"layer {idx} ReLU share", z1, (layer.relu_features, batch))
            relu.append(meta.layer_ring(idx + 1).reduce(z1))
        return ClientHalf(meta.layer_ring(0).reduce(self.input_mask), v, relu)

    def to_parts(self) -> tuple[dict, list[np.ndarray]]:
        counts, v_arrays = _flatten(self.v)
        arrays = [_u64(self.input_mask), *v_arrays, *map(_u64, self.relu)]
        return _with_blocks({"n_layers": len(self.v)}, counts), arrays

    @classmethod
    def _plain_count(cls, n_layers) -> int:
        return n_layers  # the input mask and one ReLU share per hidden layer

    @classmethod
    def _from_arrays(cls, n_layers, counts, arrays) -> "ClientHalf":
        input_mask = arrays.pop(0)
        v = _unflatten(arrays, counts)
        relu = [arrays.pop(0) for _ in range(n_layers - 1)]
        return cls(input_mask, v, relu)


@dataclass(frozen=True)
class OfflineRound:
    """Both halves of one single-use round; ``round_id`` is the bank's."""

    server: ServerHalf
    client: ClientHalf
    round_id: int | None = None


# --------------------------------------------------------------------- #
# the operand-chaining walk
# --------------------------------------------------------------------- #
def chain_operands(
    meta: "ModelMeta",
    batch: int,
    rng: np.random.Generator,
    linear_step: Callable[[int, "LayerMeta", Ring, np.ndarray], Share],
) -> ClientHalf:
    """Walk the layers, chaining each linear layer's operand ``R``.

    ``linear_step(idx, layer, ring, operand)`` turns layer ``idx``'s flat
    operand, in the layer's ring, into its ``V`` (lowering it as the
    layer needs).  The OT offline phase's step only starts the layer's
    triplets and fills ``V`` in after the walk (its second pass).  The
    walk draws, in this order: the input mask, then
    per layer whatever the step draws and the ReLU output share (in the
    next layer's ring, where it is that layer's operand).
    """
    rings = [meta.layer_ring(idx) for idx in range(len(meta.layers))]
    operand = rings[0].sample(rng, (meta.layers[0].in_features, batch))
    input_mask = operand
    v, relu = [], []
    last = len(meta.layers) - 1
    for idx, layer in enumerate(meta.layers):
        v.append(linear_step(idx, layer, rings[idx], operand))
        if idx == last:
            break
        # The ReLU output share z1 doubles as the next R, after pooling.
        z1 = rings[idx + 1].sample(rng, (layer.relu_features, batch))
        relu.append(z1)
        if layer.pool is not None:
            # Average pooling is share-local and deterministic, so the
            # next operand is derivable offline.
            z1 = avgpool_share(rings[idx + 1], layer.pool, z1, party=1)
        operand = z1
    return ClientHalf(input_mask, v, relu)
