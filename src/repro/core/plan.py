"""Layer-graph plan of the online phase.

The online phase of paper Fig. 2 is one fixed sequence of steps per
architecture: the client's input share, then per layer a local linear
product, a GC ReLU (hidden layers) and an optional pooling step, and
finally the logits share.  A :class:`LayerGraphPlan` writes that
sequence down as a chain of :class:`PlanNode` steps, each naming the
**wire value** it consumes (``deps``), instead of leaving it implicit
in the parties' loops.

Both parties walk the same plan in declaration order, dispatching per
node kind (:meth:`repro.core.protocol.Abnn2Server._online_sequential`
and the client twin).  The chain is its own topological order, and
:meth:`LayerGraphPlan.validate` pins that every dependency is produced
by an earlier node, so a driver that walks the nodes in order always
has each node's input in hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (protocol imports us)
    from repro.core.protocol import ModelMeta


@dataclass(frozen=True)
class PlanNode:
    """One step of the online phase.

    ``deps`` name the wire values this node consumes; every name is the
    ``name`` of an earlier node (the producer).  ``backend`` (linear
    nodes) records which lowering the layer's secure product uses —
    ``"im2col"`` or ``"winograd"``.
    """

    name: str
    kind: str  # "input" | "linear" | "relu" | "pool" | "logits"
    layer: int  # model layer index (-1 for the input node)
    deps: tuple[str, ...]
    backend: str = "im2col"

    def __post_init__(self) -> None:
        if self.backend not in ("im2col", "winograd"):
            raise ConfigError(f"unknown linear backend {self.backend!r}")


@dataclass(frozen=True)
class LayerGraphPlan:
    """An ordered, validated node chain for one model architecture."""

    nodes: tuple[PlanNode, ...]

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

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.nodes)

    def node(self, name: str) -> PlanNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigError(f"plan has no node named {name!r}")

    @property
    def linear_nodes(self) -> tuple[PlanNode, ...]:
        return tuple(n for n in self.nodes if n.kind == "linear")


def build_plan(meta: "ModelMeta") -> LayerGraphPlan:
    """The plan for one architecture."""
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
        relu = PlanNode(f"relu{idx}", "relu", idx, (prev,))
        nodes.append(relu)
        prev = relu.name
        if layer.pool is not None:
            pool = PlanNode(f"pool{idx}", "pool", idx, (prev,))
            nodes.append(pool)
            prev = pool.name
    nodes.append(PlanNode("logits", "logits", n_layers - 1, (prev,)))
    return LayerGraphPlan(nodes=tuple(nodes))
