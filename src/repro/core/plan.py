"""Layer-graph planner for the online phase.

The online phase used to be a hard-coded sequential loop inside
:class:`repro.core.protocol.Abnn2Server` / ``Abnn2Client``.  This module
makes the structure explicit: a :class:`LayerGraphPlan` is a small DAG
of :class:`PlanNode` steps — input share, per-layer linear product,
GC ReLU, pooling, logits — each declaring the named **wire values** it
consumes (``deps``), the mux stream its bulk transfer rides on
(``stream``), and whether its garbled tables can be streamed ahead of
the sequential round structure (``streamable``).

Both parties walk the same plan in declaration order (the chain is its
own topological order; :meth:`LayerGraphPlan.validate` pins that every
dependency is produced by an earlier node), dispatching per node kind.
The payoff of the explicit form is **pipelining**: a ``streamable`` ReLU
node's garbled tables depend only on *offline* material (the client's
``V`` share and its fresh ``z1``), so a background garbler can stream
them on the node's own :class:`~repro.net.mux.ChannelMux` stream while
earlier layers are still in flight on the main stream.  Only the
per-layer label OT — whose choice bits are online data — stays on the
sequential path.

Sequential mode (``pipelined=False``) produces a plan whose every node
runs on the main channel in today's order — the executor then emits a
byte-identical wire transcript to the historical loop (pinned by
``tests/test_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (protocol imports us)
    from repro.core.protocol import ModelMeta

#: Stream tag of the sequential round structure (input share, label OTs,
#: sign reveals, pooling, logits).  Mirrors the raw channel when the
#: plan is not pipelined.
MAIN_STREAM = 0

#: First tag of the per-layer garbled-table streams: layer ``i``'s ReLU
#: tables ride stream ``GC_STREAM_BASE + i``.
GC_STREAM_BASE = 1


@dataclass(frozen=True)
class PlanNode:
    """One step of the online phase.

    ``deps`` name the wire values this node consumes; every name is the
    ``name`` of an earlier node (the producer).  ``stream`` is the mux
    tag its bulk transfer uses — :data:`MAIN_STREAM` for everything on
    the sequential path.  ``streamable`` marks nodes whose garbler-side
    material is a pure function of offline state and may therefore be
    garbled and transferred ahead of the round structure.

    ``backend`` (linear nodes) records which lowering the layer's secure
    product uses — ``"im2col"`` or ``"winograd"`` — so both drivers
    (sequential, pipelined) resolve the same choice from the plan rather
    than re-deriving it.
    """

    name: str
    kind: str  # "input" | "linear" | "relu" | "pool" | "logits"
    layer: int  # model layer index (-1 for the input node)
    deps: tuple[str, ...]
    stream: int = MAIN_STREAM
    streamable: bool = False
    backend: str = "im2col"

    def __post_init__(self) -> None:
        if self.backend not in ("im2col", "winograd"):
            raise ConfigError(f"unknown linear backend {self.backend!r}")


@dataclass(frozen=True)
class LayerGraphPlan:
    """An ordered, validated node chain for one model architecture."""

    nodes: tuple[PlanNode, ...]
    relu_variant: str
    pipelined: bool

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Every dep must name an earlier node; names must be unique."""
        seen: set[str] = set()
        for node in self.nodes:
            if node.name in seen:
                raise ConfigError(f"duplicate plan node {node.name!r}")
            for dep in node.deps:
                if dep not in seen:
                    raise ConfigError(
                        f"plan node {node.name!r} depends on {dep!r}, "
                        "which no earlier node produces"
                    )
            seen.add(node.name)
        if self.pipelined:
            tags = [n.stream for n in self.nodes if n.stream != MAIN_STREAM]
            if len(tags) != len(set(tags)):
                raise ConfigError("plan assigns one stream tag to two nodes")

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.nodes)

    def node(self, name: str) -> PlanNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigError(f"plan has no node named {name!r}")

    @property
    def streamed(self) -> tuple[PlanNode, ...]:
        """The nodes whose tables are pre-streamed, in execution order."""
        return tuple(n for n in self.nodes if n.streamable)

    @property
    def linear_nodes(self) -> tuple[PlanNode, ...]:
        return tuple(n for n in self.nodes if n.kind == "linear")

    def stream_tags(self) -> tuple[int, ...]:
        return tuple(n.stream for n in self.streamed)


def build_plan(
    meta: "ModelMeta", relu_variant: str = "oblivious", pipelined: bool = False
) -> LayerGraphPlan:
    """The plan for one architecture.

    Only the oblivious ReLU is streamable: the optimized two-stage
    variant garbles its second stage over the *online-revealed* sign
    pattern, so its tables cannot exist before the round reaches the
    layer.  Max-pool resharing garbles offline-known inputs too, but
    rides the main stream for now (its GC work is small relative to the
    ReLU layers).  A pipelined plan with a non-streamable variant
    therefore degrades to the sequential round structure over the mux.
    """
    nodes: list[PlanNode] = [PlanNode("input", "input", -1, ())]
    prev = "input"
    n_layers = len(meta.layers)
    for idx, layer in enumerate(meta.layers):
        linear = PlanNode(
            f"linear{idx}", "linear", idx, (prev,),
            backend=getattr(layer, "backend", "im2col"),
        )
        nodes.append(linear)
        prev = linear.name
        if idx == n_layers - 1:
            break
        streamable = pipelined and relu_variant == "oblivious"
        relu = PlanNode(
            f"relu{idx}",
            "relu",
            idx,
            (prev,),
            stream=GC_STREAM_BASE + idx if streamable else MAIN_STREAM,
            streamable=streamable,
        )
        nodes.append(relu)
        prev = relu.name
        if layer.pool is not None:
            pool = PlanNode(f"pool{idx}", "pool", idx, (prev,))
            nodes.append(pool)
            prev = pool.name
    nodes.append(PlanNode("logits", "logits", n_layers - 1, (prev,)))
    return LayerGraphPlan(
        nodes=tuple(nodes), relu_variant=relu_variant, pipelined=pipelined
    )
