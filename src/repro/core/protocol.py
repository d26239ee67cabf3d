"""End-to-end two-party QNN prediction (the full ABNN2 pipeline).

Flow (paper Section 3, Figure 2):

* **Offline** — for every linear layer the parties generate dot-product
  triplets.  The client's triplet operand for layer 0 is the input mask
  ``r`` (= ``<x>_1``); for layer ``i > 0`` it is the random ReLU output
  share ``z1^i`` it will reuse online.  All OT traffic happens here.
* **Online** — the client sends ``<x>_0 = x - r``; each linear layer is
  then *local* (``<y>_0 = W <z>_0 + u + b``, ``<y>_1 = v``); hidden layers
  truncate shares locally and run the GC ReLU; finally the server sends
  ``<y>_0`` of the logits and the client reconstructs.

Security: semi-honest, as composed from the proven sub-protocols (KK13
OTs, additive sharing, Yao GC).  The ``optimized`` ReLU variant
additionally reveals the activation sign pattern — see
:mod:`repro.core.relu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.matmul import SecureMatmulClient, SecureMatmulServer
from repro.core.offline import ClientHalf, ServerHalf, chain_operands, materialize
from repro.core.plan import LayerGraphPlan, build_plan
from repro.core.pooling import avgpool_share, maxpool_client, maxpool_server
from repro.core.relu import relu_layer_client, relu_layer_server, truncate_share
from repro.core.triplets import TripletConfig
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.hash_ro import RandomOracle, default_ro
from repro.errors import ConfigError, ProtocolError
from repro.gc.protocol import GcSessions
from repro.net.channel import Channel
from repro.net.runner import run_protocol
from repro.perf.trace import Tracer
from repro.nn.quantize import QuantizedModel
from repro.nn.lowering import (
    Im2colSpec,
    PoolSpec,
    column_blocks,
    conv_bias_vector,
    lift_output,
    lower_shares,
    lower_shares_block,
)
from repro.nn.winograd import (
    WINOGRAD_TILE_POINTS,
    WinogradSpec,
    divide_share_by4,
    lift_tiles,
    lower_tiles,
    lower_tiles_block,
    transform_weights,
    winograd_scheme,
)
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class LayerMeta:
    """Public facts about one linear layer (architecture is not secret).

    ``conv`` carries the im2col geometry for convolution layers; for
    those, ``matmul_rows/cols`` describe the lowered product while
    ``in_features``/``out_features`` stay in flat-activation terms.

    ``backend`` selects the conv lowering (``"im2col"`` or
    ``"winograd"``).  A winograd layer's secure product is *grouped*:
    16 block-diagonal ``(C_out, C_in) x (C_in, batch * n_tiles)``
    products over the transformed operand (see
    :mod:`repro.nn.winograd`), and its triplet/OT scheme is the
    *transformed-weight* scheme (public, derived from the layer scheme's
    weight range).
    """

    out_features: int
    in_features: int
    scheme: FragmentScheme
    truncate_bits: int
    conv: Im2colSpec | None = None
    pool: PoolSpec | None = None
    backend: str = "im2col"

    @property
    def relu_features(self) -> int:
        """Flat feature count entering the ReLU (before any pooling)."""
        if self.pool:
            return self.pool.in_features
        return self.out_features

    @property
    def wino(self) -> WinogradSpec | None:
        """Tile geometry when this layer runs the winograd backend."""
        if self.backend != "winograd":
            return None
        return WinogradSpec.from_im2col(self.conv)

    @property
    def matmul_rows(self) -> int:
        """m of the secure product (out_channels for conv)."""
        if self.conv:
            return self.relu_features // self.conv.n_positions
        return self.relu_features

    @property
    def matmul_cols(self) -> int:
        """n of the secure product (patch length for conv, in_channels
        per tile point for winograd)."""
        if self.backend == "winograd":
            return self.conv.in_channels
        return self.conv.patch_len if self.conv else self.in_features

    @property
    def matmul_groups(self) -> int:
        """Block-diagonal group count of the secure product (16 tile
        points for winograd, 1 otherwise)."""
        return WINOGRAD_TILE_POINTS if self.backend == "winograd" else 1

    @property
    def ot_scheme(self) -> FragmentScheme:
        """The fragment scheme the offline OTs actually decompose: the
        layer scheme, or its transformed-weight widening for winograd."""
        if self.backend == "winograd":
            return winograd_scheme(self.scheme)
        return self.scheme

    def batch_multiplier(self) -> int:
        """Factor on the triplet batch o (output positions for conv,
        tile count for winograd)."""
        if self.backend == "winograd":
            return self.wino.n_tiles
        return self.conv.n_positions if self.conv else 1


@dataclass(frozen=True)
class ModelMeta:
    """Everything the *client* needs to know about the model: shapes and
    schemes, but no weights."""

    layers: tuple[LayerMeta, ...]
    ring_bits: int
    frac_bits: int

    @classmethod
    def from_model(cls, model: QuantizedModel) -> "ModelMeta":
        layers = tuple(
            LayerMeta(
                out_features=layer.out_features,
                in_features=layer.in_features,
                scheme=layer.scheme,
                truncate_bits=layer.truncate_bits,
                conv=layer.conv,
                pool=layer.pool,
                backend=layer.backend,
            )
            for layer in model.layers
        )
        return cls(layers=layers, ring_bits=model.ring.bits, frac_bits=model.encoder.frac_bits)


def layer_triplet_config(
    ring: Ring,
    layer: LayerMeta,
    batch: int,
    group: ModpGroup = DEFAULT_GROUP,
    ro: RandomOracle = default_ro,
) -> TripletConfig:
    """The offline triplet configuration for one linear layer.

    One definition for both parties and the dealer, so the grouped
    winograd shape (``groups=16``, transformed-weight OT scheme) can
    never diverge between them.
    """
    return TripletConfig(
        ring=ring,
        scheme=layer.ot_scheme,
        m=layer.matmul_rows,
        n=layer.matmul_cols,
        o=batch * layer.batch_multiplier(),
        group=group,
        ro=ro,
        groups=layer.matmul_groups,
    )


@dataclass
class PhaseStats:
    """Traffic and time attributable to one protocol phase.

    Derived from the phase's tracer span: ``payload_bytes`` is the
    span's inclusive sent+received payload, ``rounds`` its inclusive
    direction-flip count (the :class:`~repro.net.channel.ChannelStats`
    convention — pinned by ``tests/test_rounds_convention.py``).
    """

    seconds: float
    payload_bytes: int
    rounds: int


class _PartyBase:
    def __init__(
        self,
        chan: Channel,
        meta: ModelMeta,
        batch: int,
        relu_variant: str = "oblivious",
        group: ModpGroup = DEFAULT_GROUP,
        ro: RandomOracle = default_ro,
        seed: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if batch < 1:
            raise ConfigError("batch must be positive")
        self.chan = chan
        self.meta = meta
        self.batch = batch
        self.relu_variant = relu_variant
        self.group = group
        self.ro = ro
        self.ring = Ring(meta.ring_bits)
        self.rng = make_rng(seed)
        self._seed = seed
        self.tracer = tracer if tracer is not None else Tracer(
            party="server" if chan.party == 0 else "client"
        )
        # Every byte this party moves is attributed to the innermost span.
        chan.tracer = self.tracer
        self.offline_stats: PhaseStats | None = None
        self.online_stats: PhaseStats | None = None

    @property
    def plan(self) -> LayerGraphPlan:
        """The layer-graph plan the online phase walks for this party's
        architecture."""
        return build_plan(self.meta)

    def _layer_config(self, layer: LayerMeta) -> TripletConfig:
        return layer_triplet_config(
            self.ring, layer, self.batch, group=self.group, ro=self.ro
        )

    def _track_phase(self, label: str, fn):
        span = self.tracer.start_span(label)
        try:
            return fn()
        finally:
            # Recorded even when the phase dies mid-way (channel fault,
            # peer crash): error reports can then cite partial stats.
            # end_span also closes any inner spans the failure left open.
            self.tracer.end_span(span)
            totals = span.totals()
            stats = PhaseStats(
                seconds=span.duration_s,
                payload_bytes=totals["sent_bytes"] + totals["recv_bytes"],
                rounds=totals["rounds"],
            )
            setattr(self, f"{label}_stats", stats)

    def _triplet_span(self, idx: int, layer: LayerMeta, round_idx: int):
        """Span for one layer's offline triplet generation, carrying the
        public dimensions the conformance checker feeds the cost model."""
        config = self._layer_config(layer)
        # m is the *stacked* row count (groups * m): the grouped product
        # runs gamma * rows * n OTs of o columns each, which is exactly
        # what the closed-form cost model prices for an (m, n, o) triple,
        # so conformance stays byte-exact for both backends.
        return self.tracer.span(
            f"layer{idx}/triplets",
            m=config.rows,
            n=config.n,
            o=config.o,
            ring_bits=self.ring.bits,
            mode=config.resolved_mode,
            frag_n_values=[frag.n_values for frag in config.scheme.fragments],
            groups=config.groups,
            backend=layer.backend,
            round=round_idx,
        )


def _matmul_weights(layer, meta: LayerMeta) -> np.ndarray:
    """The weight matrix the secure product actually multiplies: the
    stored im2col form, or its winograd transform ``G2 g G2^T`` stacked
    per tile point (both are public structure; values stay secret)."""
    if meta.backend == "winograd":
        return transform_weights(meta.wino, layer.w_int)
    return layer.w_int


def _chunked_online(ring, engine, total, chunk, lower_block, lower_full):
    """Run one linear layer's online step over a bounded-column loop.

    ``lower_block(lo, hi)`` materializes operand columns ``[lo, hi)``
    only; each block goes straight through the engine so at most one
    chunk of the lowered operand exists at a time.  Purely local compute
    (no channel), and byte-identical for every chunk grid because matmul
    columns are independent and ring arithmetic is exact.  ``chunk=None``
    (or >= ``total``) keeps the historical single-allocation path via
    ``lower_full()`` (the whole-operand lowering is cheaper than a
    full-width gather through the block index math).
    """
    if chunk is None or chunk >= total:
        return engine.online(lower_full())
    out = ring.zeros(engine.config.out_shape)
    for lo, hi in column_blocks(total, chunk):
        out[:, lo:hi] = engine.online_block(lower_block(lo, hi), lo, hi)
    return out


def server_linear_share(ring, layer, meta: LayerMeta, engine, share0) -> np.ndarray:
    """The server's linear-node math: ``W <z>_0 + U + b`` with lowering,
    lifting, and (winograd) the exact share-local division by 4.

    ``share0``'s column count is the batch; conv layers run the chunked
    im2col loop driven by the conv spec's ``chunk_cols``.  Truncation
    stays with the caller (:meth:`Abnn2Server._linear_layer`).
    """
    if meta.backend == "winograd":
        wspec = meta.wino
        total = share0.shape[1] * wspec.n_tiles
        y0 = _chunked_online(
            ring, engine, total, layer.conv.chunk_cols,
            lambda lo, hi: lower_tiles_block(wspec, share0, ring, lo, hi),
            lambda: lower_tiles(wspec, share0, ring),
        )
        y0 = lift_tiles(wspec, layer.shape[0], y0, ring)
        # The reconstructed lifted value is exactly 4 * (W * z); both
        # parties divide their share locally (exact w.h.p., see
        # repro.nn.winograd.divide_share_by4).
        y0 = divide_share_by4(ring, y0, party=0)
        bias = conv_bias_vector(layer.conv, layer.bias_int, layer.shape[0])
        return ring.add(y0, ring.reduce(bias)[:, None])
    if layer.conv:
        spec = layer.conv
        total = share0.shape[1] * spec.n_positions
        y0 = _chunked_online(
            ring, engine, total, spec.chunk_cols,
            lambda lo, hi: lower_shares_block(spec, share0, lo, hi),
            lambda: lower_shares(spec, share0),
        )
        y0 = lift_output(spec, layer.shape[0], y0)
        bias = conv_bias_vector(spec, layer.bias_int, layer.shape[0])
        return ring.add(y0, ring.reduce(bias)[:, None])
    y0 = engine.online(share0)
    return ring.add(y0, ring.reduce(layer.bias_int)[:, None])


class Abnn2Server(_PartyBase):
    """The model owner.  Construct, then call :meth:`offline`, then
    :meth:`online` once per prediction batch."""

    #: Hook for baselines that swap the offline triplet generation.
    matmul_server_cls = SecureMatmulServer

    def __init__(self, chan: Channel, model: QuantizedModel, batch: int, **kwargs) -> None:
        super().__init__(chan, ModelMeta.from_model(model), batch, **kwargs)
        self.model = model
        self._weights = [
            _matmul_weights(layer, meta) for layer, meta in zip(model.layers, self.meta.layers)
        ]
        self._pending: list[ServerHalf] = []
        self._gc = GcSessions(chan, "evaluator", group=self.group, ro=self.ro, seed=self._seed)

    def _engine(self, idx: int, seed: int | None = None) -> SecureMatmulServer:
        return self.matmul_server_cls(
            self.chan, self._weights[idx], self._layer_config(self.meta.layers[idx]),
            seed=seed,
        )

    def offline(self, rounds: int = 1) -> None:
        """Precompute triplet material for ``rounds`` prediction batches.

        Triplet material is strictly single-use (reusing the client's
        masks would leak input differences), so each future :meth:`online`
        call consumes one precomputed round.  Callable again later to
        top up.
        """
        if rounds < 1:
            raise ConfigError("rounds must be positive")

        def _run():
            for round_idx in range(rounds):
                us = []
                for idx, layer in enumerate(self.meta.layers):
                    engine = self._engine(
                        idx,
                        seed=None
                        if self._seed is None
                        else self._seed + 101 * idx + 10007 * round_idx,
                    )
                    with self._triplet_span(idx, layer, round_idx):
                        engine.offline()
                    us.append(engine.u)
                self._pending.append(ServerHalf(us))

        self._track_phase("offline", _run)

    @property
    def rounds_available(self) -> int:
        """Prediction batches the precomputed material still covers."""
        return len(self._pending)

    def export_offline_round(self) -> ServerHalf:
        """Pop one precomputed round's :class:`ServerHalf` (no channel use)."""
        if not self._pending:
            raise ProtocolError(
                "offline material exhausted: call offline(rounds=...) first"
            )
        return self._pending.pop(0)

    def load_offline_round(self, half: ServerHalf) -> None:
        """Queue one round produced elsewhere (a bank, a dealer, another
        party's :meth:`export_offline_round`).  It is shape-checked
        against the model (:class:`ConfigError`); no communication
        happens, so the next :meth:`online` runs with zero offline
        traffic on this channel."""
        self._pending.append(half.validate(self.meta, self.batch))

    def online(self) -> np.ndarray:
        """Run one prediction batch; returns the server's logit share
        (already transmitted to the client).  Consumes one offline round
        — but only a round that *completed*: a fault mid-round leaves the
        round queued, so it is genuinely re-runnable (the linear engines
        never mutate their triplet shares)."""
        if not self._pending:
            raise ProtocolError(
                "offline material exhausted: call offline(rounds=...) first "
                "(checked before any bytes cross the wire)"
            )
        half = self._pending[0]
        y0 = self._track_phase("online", lambda: self._online_sequential(half))
        self._pending.pop(0)
        return y0

    def _linear_layer(self, half: ServerHalf, idx: int, share0: np.ndarray) -> np.ndarray:
        """One linear node: ``W <z>_0 + U + b`` plus conv lowering/lifting
        inside the layer's matmul span, then (hidden layers) truncation."""
        layer = self.model.layers[idx]
        meta = self.meta.layers[idx]
        engine = self._engine(idx)
        engine.preload(half.u[idx])
        with self.tracer.span(
            f"layer{idx}/matmul", m=meta.matmul_rows, n=meta.matmul_cols,
            o=self.batch * meta.batch_multiplier(),
            groups=meta.matmul_groups, backend=meta.backend,
            chunk_cols=layer.conv.chunk_cols if layer.conv else None,
        ):
            y0 = server_linear_share(self.ring, layer, meta, engine, share0)
        if idx < len(self.model.layers) - 1:
            y0 = truncate_share(self.ring, y0, layer.truncate_bits, party=0)
        return y0

    def _pool_layer(self, idx: int, share0: np.ndarray) -> np.ndarray:
        layer = self.model.layers[idx]
        with self.tracer.span(f"layer{idx}/pool", kind=layer.pool.kind):
            if layer.pool.kind == "avg":
                return avgpool_share(self.ring, layer.pool, share0, party=0)
            return maxpool_server(self.chan, layer.pool, share0, self._gc, self.ring)

    def _online_sequential(self, half: ServerHalf) -> np.ndarray:
        """Walk the plan node by node on the raw channel (paper Fig. 2)."""
        share0 = y0 = None
        for node in self.plan:
            if node.kind == "input":
                with self.tracer.span("input-share"):
                    share0 = self.ring.reduce(self.chan.recv())  # <x>_0
            elif node.kind == "linear":
                y0 = self._linear_layer(half, node.layer, share0)
            elif node.kind == "relu":
                meta = self.meta.layers[node.layer]
                with self.tracer.span(
                    f"layer{node.layer}/relu", variant=self.relu_variant,
                    n_relus=meta.relu_features * self.batch,
                    ring_bits=self.ring.bits,
                ):
                    share0 = relu_layer_server(
                        self.chan, y0, self._gc, self.ring, self.relu_variant
                    )
            elif node.kind == "pool":
                share0 = self._pool_layer(node.layer, share0)
            else:  # logits
                with self.tracer.span("logits-share"):
                    self.chan.send(y0)
        return y0


class Abnn2Client(_PartyBase):
    """The data owner.  Knows the architecture (:class:`ModelMeta`) but
    never the weights; learns the prediction."""

    #: Hook for baselines that swap the offline triplet generation.
    matmul_client_cls = SecureMatmulClient

    def __init__(self, chan: Channel, meta: ModelMeta, batch: int, **kwargs) -> None:
        super().__init__(chan, meta, batch, **kwargs)
        self._pending: list[ClientHalf] = []
        self._gc = GcSessions(chan, "garbler", group=self.group, ro=self.ro, seed=self._seed)

    def offline(self, rounds: int = 1) -> None:
        """Precompute triplets and fresh shares for ``rounds`` batches.

        Must mirror the server's ``offline(rounds=...)`` call; material
        is single-use (see :meth:`Abnn2Server.offline`).
        """
        if rounds < 1:
            raise ConfigError("rounds must be positive")

        def _run():
            for round_idx in range(rounds):
                self._pending.append(
                    chain_operands(
                        self.ring, self.meta, self.batch, self.rng,
                        partial(self._triplet_step, round_idx),
                    )
                )

        self._track_phase("offline", _run)

    def _triplet_step(self, round_idx: int, idx: int, layer: LayerMeta, operand) -> np.ndarray:
        """The OT linear step of the offline walk: lower the operand to
        ``R`` and run the layer's KK13 triplet generation; returns ``V``."""
        if layer.backend == "winograd":
            r_mat = lower_tiles(layer.wino, operand, self.ring)
        elif layer.conv:
            r_mat = lower_shares(layer.conv, operand)
        else:
            r_mat = operand
        engine = self.matmul_client_cls(
            self.chan,
            self._layer_config(layer),
            self.rng,
            r_mat=r_mat,
            seed=None if self._seed is None else self._seed + 101 * idx + 10007 * round_idx,
        )
        with self._triplet_span(idx, layer, round_idx):
            engine.offline()
        return engine.v

    @property
    def rounds_available(self) -> int:
        """Prediction batches the precomputed material still covers."""
        return len(self._pending)

    def export_offline_round(self) -> ClientHalf:
        """Pop one precomputed round's :class:`ClientHalf` (no channel use)."""
        if not self._pending:
            raise ProtocolError(
                "offline material exhausted: call offline(rounds=...) first"
            )
        return self._pending.pop(0)

    def load_offline_round(self, half: ClientHalf) -> None:
        """Queue one round produced elsewhere (see
        :meth:`Abnn2Server.load_offline_round`).  Shapes are checked
        against the architecture metadata, so a malformed or mismatched
        round surfaces as a :class:`ConfigError` here, not as a
        desynchronized online phase."""
        self._pending.append(half.validate(self.meta, self.batch))

    def online(self, x_ring: np.ndarray) -> np.ndarray:
        """Run one prediction batch on fixed-point inputs shaped
        ``(features, batch)``; returns the reconstructed integer logits.
        Consumes one offline round."""
        if not self._pending:
            raise ProtocolError(
                "offline material exhausted: call offline(rounds=...) first "
                "(checked before any bytes cross the wire)"
            )
        x = self.ring.reduce(x_ring)
        expected = (self.meta.layers[0].in_features, self.batch)
        if x.shape != expected:
            raise ConfigError(f"expected input of shape {expected}, got {x.shape}")
        half = self._pending[0]
        logits = self._track_phase(
            "online", lambda: self._online_sequential(half, x)
        )
        # Only a completed round consumes the material (mirrors the server).
        self._pending.pop(0)
        return logits

    def _linear_layer(self, half: ClientHalf, idx: int) -> np.ndarray:
        """One linear node: ``y1 = V`` (wire-free) plus conv lifting inside
        the matmul span, then (hidden layers) truncation."""
        layer = self.meta.layers[idx]
        with self.tracer.span(
            f"layer{idx}/matmul", m=layer.matmul_rows, n=layer.matmul_cols,
            o=self.batch * layer.batch_multiplier(),
            groups=layer.matmul_groups, backend=layer.backend,
        ):
            y1 = materialize(half.v[idx])
            if layer.backend == "winograd":
                y1 = lift_tiles(layer.wino, layer.matmul_rows, y1, self.ring)
                y1 = divide_share_by4(self.ring, y1, party=1)
            elif layer.conv:
                y1 = lift_output(layer.conv, layer.matmul_rows, y1)
        if idx < len(self.meta.layers) - 1:
            y1 = truncate_share(self.ring, y1, layer.truncate_bits, party=1)
        return y1

    def _online_sequential(self, half: ClientHalf, x) -> np.ndarray:
        """Walk the plan node by node on the raw channel (paper Fig. 2)."""
        logits = y1 = z1_relu = None
        for node in self.plan:
            if node.kind == "input":
                # <x>_0 = x - r travels in flat form; each party lowers its
                # own share locally where a conv layer needs it.
                with self.tracer.span("input-share"):
                    self.chan.send(self.ring.sub(x, half.input_mask))
            elif node.kind == "linear":
                y1 = self._linear_layer(half, node.layer)
            elif node.kind == "relu":
                layer = self.meta.layers[node.layer]
                with self.tracer.span(
                    f"layer{node.layer}/relu", variant=self.relu_variant,
                    n_relus=layer.relu_features * self.batch,
                    ring_bits=self.ring.bits,
                ):
                    z1_relu = relu_layer_client(
                        self.chan,
                        y1,
                        half.relu[node.layer],
                        self._gc,
                        self.ring,
                        self.rng,
                        self.relu_variant,
                    )
            elif node.kind == "pool":
                layer = self.meta.layers[node.layer]
                if layer.pool.kind == "max":
                    with self.tracer.span(f"layer{node.layer}/pool", kind="max"):
                        maxpool_client(
                            self.chan,
                            layer.pool,
                            z1_relu,
                            half.pool[node.layer],
                            self._gc,
                            self.ring,
                            self.rng,
                        )
                # avg pooling is share-local and applied to the *next*
                # operand offline; the client does nothing here.
            else:  # logits
                with self.tracer.span("logits-share"):
                    y0 = self.ring.reduce(self.chan.recv())
                logits = self.ring.add(y0, y1)
        return logits


# --------------------------------------------------------------------- #
# one-call convenience API
# --------------------------------------------------------------------- #
@dataclass
class PredictionReport:
    """Everything a benchmark or example wants from one joint run."""

    logits_int: np.ndarray  # (classes, batch) ring elements
    predictions: np.ndarray  # (batch,) argmax class indices
    offline_server: PhaseStats
    offline_client: PhaseStats
    online_server: PhaseStats
    online_client: PhaseStats
    total_bytes: int
    rounds: int
    wall_time_s: float
    #: exported trace documents (see :mod:`repro.perf.trace`), one per party
    server_trace: dict | None = None
    client_trace: dict | None = None

    @property
    def offline_bytes(self) -> int:
        return self.offline_client.payload_bytes

    @property
    def online_bytes(self) -> int:
        return self.online_client.payload_bytes


def _joint_predict(
    server_cls,
    client_cls,
    model: QuantizedModel,
    x_float: np.ndarray,
    relu_variant: str = "oblivious",
    group: ModpGroup = DEFAULT_GROUP,
    ro: RandomOracle = default_ro,
    seed: int | None = 0,
    timeout_s: float = 600.0,
    channels=None,
) -> PredictionReport:
    """Shared driver for ABNN2 and the baseline predictors."""
    x = np.atleast_2d(np.asarray(x_float, dtype=np.float64))
    batch = x.shape[0]
    meta = ModelMeta.from_model(model)
    x_ring = model.encoder.encode(x.T)

    def server_fn(chan: Channel):
        server = server_cls(
            chan, model, batch, relu_variant=relu_variant, group=group, ro=ro,
            seed=None if seed is None else seed + 1,
        )
        server.offline()
        server.online()
        return server

    def client_fn(chan: Channel):
        client = client_cls(
            chan, meta, batch, relu_variant=relu_variant, group=group, ro=ro,
            seed=None if seed is None else seed + 2,
        )
        client.offline()
        logits = client.online(x_ring)
        return client, logits

    result = run_protocol(server_fn, client_fn, timeout_s=timeout_s, channels=channels)
    server = result.server
    client, logits = result.client
    ring = model.ring
    predictions = np.argmax(ring.to_signed(logits), axis=0)
    return PredictionReport(
        logits_int=logits,
        predictions=predictions,
        offline_server=server.offline_stats,
        offline_client=client.offline_stats,
        online_server=server.online_stats,
        online_client=client.online_stats,
        total_bytes=result.total_bytes,
        rounds=result.rounds,
        wall_time_s=result.wall_time_s,
        server_trace=server.tracer.to_dict(),
        client_trace=client.tracer.to_dict(),
    )


def secure_predict(
    model: QuantizedModel,
    x_float: np.ndarray,
    relu_variant: str = "oblivious",
    group: ModpGroup = DEFAULT_GROUP,
    ro: RandomOracle = default_ro,
    seed: int | None = 0,
    timeout_s: float = 600.0,
    channels=None,
) -> PredictionReport:
    """Run the complete two-party prediction on one machine (two threads).

    ``x_float`` is ``(batch, features)``; the client encodes it in fixed
    point, both phases run back to back, and the report carries the phase
    split a deployment would see.  ``channels`` overrides the default
    in-memory pair with explicit (server, client) endpoints — e.g. TCP
    channels or :class:`~repro.net.faults.FaultyChannel` wrappers.
    """
    return _joint_predict(
        Abnn2Server,
        Abnn2Client,
        model,
        x_float,
        relu_variant=relu_variant,
        group=group,
        ro=ro,
        seed=seed,
        timeout_s=timeout_s,
        channels=channels,
    )
