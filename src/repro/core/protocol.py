"""End-to-end two-party QNN prediction (the full ABNN2 pipeline).

Flow (paper Section 3, Figure 2):

* **Offline** — for every linear layer the parties generate dot-product
  triplets.  The client's triplet operand for layer 0 is the input mask
  ``r`` (= ``<x>_1``); for layer ``i > 0`` it is the random ReLU output
  share ``z1^i`` it will reuse online.  All OT traffic happens here, in
  two passes over the layers (:mod:`repro.core.triplets`): the server
  sends every layer's ``U`` frames, then the client sends every layer's
  message frames, so after the base-OT handshake the offline phase is
  two flights whatever the depth.
* **Online** — the client sends ``<x>_0 = x - r``; each linear layer is
  then *local* (``<y>_0 = W <z>_0 + u + b``, ``<y>_1 = v``); hidden layers
  run the GC ReLU, which rescales exactly inside the circuit and is sized
  to the layer's public width ``relu_bits``; finally the server sends
  ``<y>_0`` of the logits and the client reconstructs.

Each linear layer computes in its own public ring
(:meth:`ModelMeta.layer_ring`): ``Z_(2^m)`` for its output width ``m``.
Reduction mod ``2^m`` is a ring homomorphism and ``|y| < 2^(m-1)``, so
the layer's triplets, product and input shares all live there with the
result unchanged.  A ReLU reads its input in its layer's ring and
outputs shares in the next layer's; the client sign-extends the logits
from the last layer's ring into the model ring.  The input and logits
shares travel packed at their ring's width.

Security: semi-honest, as composed from the proven sub-protocols (KK13
OTs, additive sharing, Yao GC).  The ``optimized`` ReLU variant
additionally reveals the activation sign pattern — see
:mod:`repro.core.relu`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.matmul import SecureMatmulClient, SecureMatmulServer
from repro.core.offline import ClientHalf, ServerHalf, chain_operands, materialize
from repro.core.params import wire_split
from repro.core.pooling import avgpool_share
from repro.core.relu import relu_layer_client, relu_layer_server
from repro.core.triplets import TripletConfig
from repro.crypto.codes import code_length
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.crypto.otsetup import channel_setup
from repro.errors import ConfigError, ProtocolError
from repro.gc.protocol import GcSessions
from repro.net.channel import Channel
from repro.net.frames import checked_frame
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
from repro.quant.fragments import FragmentScheme
from repro.quant.headroom import INPUT_BOUND, input_bound_int
from repro.utils.bits import pack_ring_words, packed_word_count, unpack_ring_words
from repro.utils.ring import Ring
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class LayerMeta:
    """Public facts about one linear layer (architecture is not secret).

    ``conv`` carries the im2col geometry for convolution layers; for
    those, ``matmul_rows/cols`` describe the lowered product while
    ``in_features``/``out_features`` stay in flat-activation terms.

    The layer also owns the one choice of how its product lowers and
    lifts (dense or im2col): :meth:`lower`, :meth:`lift` and
    :meth:`bias`.  Both parties and the dealer call these instead of
    branching on the form themselves.
    """

    out_features: int
    in_features: int
    scheme: FragmentScheme
    truncate_bits: int
    conv: Im2colSpec | None = None
    pool: PoolSpec | None = None
    #: public output width m (``|y| < 2^(m-1)``): the ReLU input, or the
    #: logits on the last layer; None = ring width
    relu_bits: int | None = None

    @property
    def relu_features(self) -> int:
        """Flat feature count entering the ReLU (before any pooling)."""
        if self.pool:
            return self.pool.in_features
        return self.out_features

    @property
    def matmul_rows(self) -> int:
        """m of the secure product (out_channels for conv)."""
        if self.conv:
            return self.relu_features // self.conv.n_positions
        return self.relu_features

    @property
    def matmul_cols(self) -> int:
        """n of the secure product (patch length for conv)."""
        return self.conv.patch_len if self.conv else self.in_features

    def batch_multiplier(self) -> int:
        """Factor on the triplet batch o (output positions for conv)."""
        return self.conv.n_positions if self.conv else 1

    @property
    def chunk_cols(self) -> int | None:
        """Bound on the lowered operand columns held at once (``None``:
        one block).  A local memory policy; results never depend on it."""
        return self.conv.chunk_cols if self.conv else None

    def lower(
        self, ring: Ring, operand: np.ndarray, lo: int | None = None, hi: int | None = None
    ) -> np.ndarray:
        """The product operand of a flat ``(in_features, batch)`` share:
        all ``batch * batch_multiplier()`` columns, or only ``[lo, hi)``
        without materializing the rest.  Share-local and exact."""
        if self.conv:
            if lo is None:
                return lower_shares(self.conv, operand)
            return lower_shares_block(self.conv, operand, lo, hi)
        return operand if lo is None else operand[:, lo:hi]

    def lift(self, y: np.ndarray) -> np.ndarray:
        """A product share back in flat ``(relu_features, batch)`` form."""
        if self.conv:
            return lift_output(self.conv, self.matmul_rows, y)
        return y

    def bias(self, bias_int: np.ndarray) -> np.ndarray:
        """The bias in flat-feature order (a conv bias is per channel)."""
        if self.conv:
            return conv_bias_vector(self.conv, bias_int, self.matmul_rows)
        return bias_int


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
                relu_bits=layer.relu_bits,
            )
            for layer in model.layers
        )
        return cls(layers=layers, ring_bits=model.ring.bits, frac_bits=model.encoder.frac_bits)

    def layer_ring(self, idx: int) -> Ring:
        """The public ring layer ``idx`` computes in: its triplets, its
        online product and its incoming shares (and the previous ReLU's
        output shares).

        ``Z_(2^m)`` for the layer's output width ``m``.  A layer after an
        average pool keeps the model ring: the pool's share-local shift
        would wrap often in a narrow ring.
        """
        layer = self.layers[idx]
        after_pool = idx > 0 and self.layers[idx - 1].pool is not None
        if layer.relu_bits is None or after_pool:
            return Ring(self.ring_bits)
        return Ring(layer.relu_bits)


def layer_triplet_config(
    ring: Ring,
    layer: LayerMeta,
    batch: int,
    group: ModpGroup = DEFAULT_GROUP,
) -> TripletConfig:
    """The offline triplet configuration for one linear layer.

    One definition for both parties and the dealer, so the wire split
    can never diverge between them.  The OTs run
    :func:`repro.core.params.wire_split` of the layer's scheme: the
    cheapest fragment split of its bit width at the layer's public
    ``(o, l)``.
    """
    o = batch * layer.batch_multiplier()
    return TripletConfig(
        ring=ring,
        scheme=wire_split(layer.scheme, o, ring.bits),
        m=layer.matmul_rows,
        n=layer.matmul_cols,
        o=o,
        group=group,
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
    """What both parties share: the queue of offline rounds, the per-layer
    OT seeds, and the span and ReLU-shape conventions of the layer walk.
    A party supplies ``_party`` (0 = server, 1 = client), the
    ``_offline_round`` it produces and the ``online`` walk it runs."""

    _party: int

    def __init__(
        self,
        chan: Channel,
        meta: ModelMeta,
        batch: int,
        relu_variant: str = "oblivious",
        group: ModpGroup = DEFAULT_GROUP,
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
        self.ring = Ring(meta.ring_bits)
        self.rings = [meta.layer_ring(idx) for idx in range(len(meta.layers))]
        self.rng = make_rng(seed)
        self._seed = seed
        self.tracer = tracer if tracer is not None else Tracer(
            party="server" if chan.party == 0 else "client"
        )
        # Every byte this party moves is attributed to the innermost span.
        chan.tracer = self.tracer
        self.offline_stats: PhaseStats | None = None
        self.online_stats: PhaseStats | None = None
        self._pending: list = []  # ServerHalf / ClientHalf rounds, oldest first

    # ------------------------------------------------------------------ #
    # offline material
    # ------------------------------------------------------------------ #
    def offline(self, rounds: int = 1) -> None:
        """Precompute offline material for ``rounds`` prediction batches.

        Material is strictly single-use (reusing the client's masks would
        leak input differences), so each future :meth:`online` call
        consumes one precomputed round.  Both parties must make the same
        ``offline(rounds=...)`` calls.  Callable again later to top up.
        """
        if rounds < 1:
            raise ConfigError("rounds must be positive")

        def _run():
            for round_idx in range(rounds):
                self._pending.append(self._offline_round(round_idx))

        self._track_phase("offline", _run)

    @property
    def rounds_available(self) -> int:
        """Prediction batches the precomputed material still covers."""
        return len(self._pending)

    def _next_round(self):
        """The round the next online call consumes; refused before any
        bytes cross the wire when none is queued."""
        if not self._pending:
            raise ProtocolError(
                "offline material exhausted: call offline(rounds=...) first"
            )
        return self._pending[0]

    def export_offline_round(self):
        """Pop one precomputed round's half (no channel use)."""
        half = self._next_round()
        self._pending.pop(0)
        return half

    def load_offline_round(self, half) -> None:
        """Queue one round produced elsewhere (a bank, a dealer, another
        party's :meth:`export_offline_round`).  It is shape-checked
        against the architecture, so a malformed or mismatched round
        surfaces as a :class:`ConfigError` here, not as a desynchronized
        online phase; no communication happens, so the next
        :meth:`online` runs with zero offline traffic on this channel."""
        self._pending.append(half.validate(self.meta, self.batch))

    def _run_online(self, walk):
        """Run ``walk(half)`` on the next round as the online phase.  Only
        a round that *completed* is consumed: a fault mid-round leaves it
        queued, so it is genuinely re-runnable (the linear engines never
        mutate their triplet shares)."""
        half = self._next_round()
        result = self._track_phase("online", lambda: walk(half))
        self._pending.pop(0)
        return result

    # ------------------------------------------------------------------ #
    # helpers of the layer walk
    # ------------------------------------------------------------------ #
    def _layer_config(self, idx: int) -> TripletConfig:
        return layer_triplet_config(
            self.rings[idx], self.meta.layers[idx], self.batch, group=self.group
        )

    def _layer_seed(self, idx: int, round_idx: int) -> int | None:
        """The OT seed of layer ``idx`` in offline round ``round_idx``."""
        if self._seed is None:
            return None
        return self._seed + 101 * idx + 10007 * round_idx

    def _reserve_base_ots(self, engine_cls) -> None:
        """Size the channel's base-OT handshake for the widest session of
        the whole round before its first one, so layers of growing code
        length (``8(3,3,2)``, per-layer schemes) share one handshake."""
        widest = max(
            engine_cls.base_ot_columns(self._layer_config(idx))
            for idx in range(len(self.meta.layers))
        )
        channel_setup(self.chan, self.group).reserve(widest)

    def _second_pass(self, started: list) -> list:
        """Pass 2 of an offline round: finish every layer's triplets, in
        layer order, each in its re-opened ``triplets`` span.
        ``started`` holds ``(span, engine, finish)`` per layer from pass
        1; returns the engines."""
        for span, _engine, finish in started:
            with self.tracer.resume(span):
                finish()
        return [engine for _span, engine, _finish in started]

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

    def _triplet_span(self, idx: int, round_idx: int):
        """Span for one layer's offline triplet generation, carrying the
        public dimensions the conformance checker feeds the cost model."""
        config = self._layer_config(idx)
        return self.tracer.span(
            f"layer{idx}/triplets",
            m=config.m,
            n=config.n,
            o=config.o,
            ring_bits=config.ring.bits,
            frag_n_values=[frag.n_values for frag in config.scheme.fragments],
            code_bits=[code_length(frag.n_values) for frag in config.scheme.fragments],
            round=round_idx,
        )

    def _matmul_span(self, idx: int, **extra):
        """Span for one layer's online linear step (lowering, local
        product and lifting all run inside it)."""
        layer = self.meta.layers[idx]
        return self.tracer.span(
            f"layer{idx}/matmul", m=layer.matmul_rows, n=layer.matmul_cols,
            o=self.batch * layer.batch_multiplier(), **extra,
        )

    def _relu_span(self, idx: int):
        width, shift, out_ring = self._relu_shape(idx)
        return self.tracer.span(
            f"layer{idx}/relu", variant=self.relu_variant,
            n_relus=self.meta.layers[idx].relu_features * self.batch,
            ring_bits=self.rings[idx].bits, width=width, shift=shift,
            out_bits=out_ring.bits,
        )

    def _relu_shape(self, idx: int) -> tuple[int, int, Ring]:
        """``(width, shift, out_ring)`` of hidden layer ``idx``'s GC ReLU:
        the public input width, the exact rescaling shift folded into it,
        and the next layer's ring its output shares live in."""
        layer = self.meta.layers[idx]
        width = self.rings[idx].bits if layer.relu_bits is None else layer.relu_bits
        return width, layer.truncate_bits, self.rings[idx + 1]

    def _share_span(self, name: str, idx: int, count: int):
        """Span of an online share frame: ``count`` elements of layer
        ``idx``'s ring, packed at its width."""
        return self.tracer.span(name, elements=count, ring_bits=self.rings[idx].bits)


class Abnn2Server(_PartyBase):
    """The model owner.  Construct, then call :meth:`offline`, then
    :meth:`online` once per prediction batch."""

    _party = 0
    #: Hook for baselines that swap the offline triplet generation.
    matmul_server_cls = SecureMatmulServer

    def __init__(self, chan: Channel, model: QuantizedModel, batch: int, **kwargs) -> None:
        super().__init__(chan, ModelMeta.from_model(model), batch, **kwargs)
        self.model = model
        self._gc = GcSessions(chan, "evaluator", group=self.group, seed=self._seed)

    def _engine(self, idx: int, seed: int | None = None) -> SecureMatmulServer:
        return self.matmul_server_cls(
            self.chan, self.model.layers[idx].w_int, self._layer_config(idx), seed=seed,
        )

    def _offline_round(self, round_idx: int) -> ServerHalf:
        """One round of the OT offline phase: every layer's ``U``.  Pass 1
        sends every layer's ``U`` frames, pass 2 opens every layer's
        message frames, each in its layer's span."""
        self._reserve_base_ots(self.matmul_server_cls)
        started = []
        for idx in range(len(self.meta.layers)):
            engine = self._engine(idx, seed=self._layer_seed(idx, round_idx))
            with self._triplet_span(idx, round_idx) as span:
                started.append((span, engine, engine.start_offline()))
        return ServerHalf([engine.u for engine in self._second_pass(started)])

    def online(self) -> np.ndarray:
        """Run one prediction batch; returns the server's logit share
        (already transmitted to the client).  Consumes one offline round."""
        return self._run_online(self._online_sequential)

    def _linear_layer(self, half: ServerHalf, idx: int, share0: np.ndarray) -> np.ndarray:
        """One linear layer: ``W <z>_0 + U + b`` on the lowered share,
        lifted back to flat features.

        A chunked layer runs the product one column block of the lowered
        operand at a time, so at most one block is ever materialized.
        Byte-identical for every chunk grid: matmul columns are
        independent and ring arithmetic is exact.
        """
        layer, ring = self.meta.layers[idx], self.rings[idx]
        engine = self._engine(idx)
        engine.preload(half.u[idx])
        total, chunk = engine.config.o, layer.chunk_cols
        with self._matmul_span(idx, chunk_cols=chunk):
            if chunk is None or chunk >= total:
                y0 = engine.online(layer.lower(ring, share0))
            else:
                y0 = ring.zeros(engine.config.out_shape)
                for lo, hi in column_blocks(total, chunk):
                    block = layer.lower(ring, share0, lo, hi)
                    y0[:, lo:hi] = engine.online_block(block, lo, hi)
            y0 = layer.lift(y0)
            bias = layer.bias(self.model.layers[idx].bias_int)
            return ring.add(y0, ring.reduce(bias)[:, None])

    def _online_sequential(self, half: ServerHalf) -> np.ndarray:
        """The layer walk on the raw channel (paper Fig. 2): input share,
        then per layer linear, (hidden) ReLU and pool, then the logits."""
        shape = (self.meta.layers[0].in_features, self.batch)
        with self._share_span("input-share", 0, shape[0] * shape[1]):
            share0 = recv_share(self.chan, self.rings[0], shape)  # <x>_0
        last = len(self.meta.layers) - 1
        for idx, layer in enumerate(self.meta.layers):
            y0 = self._linear_layer(half, idx, share0)
            if idx == last:
                break
            with self._relu_span(idx):
                share0 = relu_layer_server(
                    self.chan, y0, self._gc, self.rings[idx], self.relu_variant,
                    *self._relu_shape(idx),
                )
            if layer.pool is not None:
                with self.tracer.span(f"layer{idx}/pool"):
                    share0 = avgpool_share(self.rings[idx + 1], layer.pool, share0, party=0)
        with self._share_span("logits-share", last, y0.size):
            send_share(self.chan, self.rings[last], y0)
        return y0


class Abnn2Client(_PartyBase):
    """The data owner.  Knows the architecture (:class:`ModelMeta`) but
    never the weights; learns the prediction."""

    _party = 1
    #: Hook for baselines that swap the offline triplet generation.
    matmul_client_cls = SecureMatmulClient

    def __init__(self, chan: Channel, meta: ModelMeta, batch: int, **kwargs) -> None:
        super().__init__(chan, meta, batch, **kwargs)
        self._gc = GcSessions(chan, "garbler", group=self.group, seed=self._seed)

    def _offline_round(self, round_idx: int) -> ClientHalf:
        """One round of the OT offline phase: the operand walk of
        :func:`chain_operands`, whose linear step lowers the operand to
        ``R`` and runs pass 1 of the layer's KK13 triplet generation
        (receive and extend every ``U``); pass 2 then sends every
        layer's message frames for ``V``, each in its layer's span."""
        self._reserve_base_ots(self.matmul_client_cls)
        started = []

        def triplet_step(idx: int, layer: LayerMeta, ring: Ring, operand) -> None:
            engine = self.matmul_client_cls(
                self.chan,
                self._layer_config(idx),
                self.rng,
                r_mat=layer.lower(ring, operand),
                seed=self._layer_seed(idx, round_idx),
            )
            with self._triplet_span(idx, round_idx) as span:
                started.append((span, engine, engine.start_offline()))

        half = chain_operands(self.meta, self.batch, self.rng, triplet_step)
        return replace(half, v=[engine.v for engine in self._second_pass(started)])

    def online(self, x_ring: np.ndarray) -> np.ndarray:
        """Run one prediction batch on fixed-point inputs shaped
        ``(features, batch)``; returns the reconstructed integer logits.
        Consumes one offline round; the logits are sign-extended from the
        last layer's ring into the model ring."""
        x = self.ring.reduce(x_ring)
        expected = (self.meta.layers[0].in_features, self.batch)
        if x.shape != expected:
            raise ConfigError(f"expected input of shape {expected}, got {x.shape}")
        # The ReLU widths hold only inside the public input domain.
        worst = int(np.abs(self.ring.to_signed(x)).max())
        if worst > input_bound_int(self.meta.frac_bits):
            raise ConfigError(
                f"input magnitude {worst / 2**self.meta.frac_bits:g} exceeds "
                f"the input bound {INPUT_BOUND:g}"
            )
        return self._run_online(lambda half: self._online_sequential(half, x))

    def _online_sequential(self, half: ClientHalf, x) -> np.ndarray:
        """The layer walk on the raw channel (paper Fig. 2); the client's
        linear steps are wire-free (``y1 = V``, lifted)."""
        # <x>_0 = x - r travels in flat form; each party lowers its own
        # share locally where a conv layer needs it.
        with self._share_span("input-share", 0, x.size):
            send_share(self.chan, self.rings[0], self.rings[0].sub(x, half.input_mask))
        last = len(self.meta.layers) - 1
        for idx, layer in enumerate(self.meta.layers):
            with self._matmul_span(idx):
                y1 = layer.lift(materialize(half.v[idx]))
            if idx == last:
                break
            # The ReLU output share was fixed offline; average pooling is
            # share-local and already applied to the *next* operand there.
            with self._relu_span(idx):
                relu_layer_client(
                    self.chan, y1, half.relu[idx], self._gc, self.rings[idx], self.rng,
                    self.relu_variant, *self._relu_shape(idx),
                )
        ring = self.rings[last]
        with self._share_span("logits-share", last, y1.size):
            y0 = recv_share(self.chan, ring, y1.shape)
        return self.ring.reduce(ring.to_signed(ring.add(y0, y1)))


def send_share(chan: Channel, ring: Ring, share: np.ndarray) -> None:
    """Send a share matrix as one frame of its elements packed at the
    ring's width, row-major."""
    chan.send(pack_ring_words(np.asarray(share).reshape(1, -1), ring.bits)[0])


def recv_share(chan: Channel, ring: Ring, shape: tuple[int, int]) -> np.ndarray:
    """Receive a :func:`send_share` frame of a ``shape`` share matrix."""
    count = shape[0] * shape[1]
    frame = checked_frame(
        chan.recv(), (packed_word_count(count, ring.bits),),
        f"share frame ({shape} {ring.bits}-bit elements)",
    )
    return unpack_ring_words(frame[None, :], ring.bits, count).reshape(shape)


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
            chan, model, batch, relu_variant=relu_variant, group=group,
            seed=None if seed is None else seed + 1,
        )
        server.offline()
        server.online()
        return server

    def client_fn(chan: Channel):
        client = client_cls(
            chan, meta, batch, relu_variant=relu_variant, group=group,
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
        seed=seed,
        timeout_s=timeout_s,
        channels=channels,
    )
