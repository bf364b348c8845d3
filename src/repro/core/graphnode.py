"""GraphNode IR — the coarse-grained representation TAP plans over (§4.2).

A GraphNode groups the operators of one innermost name scope: a dense layer's
matmul + bias_add, an attention projection, a layernorm.  This is the
granularity at which sharding decisions are made, collapsing the op graph to
roughly one node per weight variable (the paper reports T5-large: 60k ops →
1015 weight variables).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..graph import Graph, GraphError, Operator, OpType, TensorSpec

__all__ = ["GraphNode", "NodeGraph", "coarsen"]


#: ``repr`` of an op signature, the sort key of a node signature; the same
#: op signatures recur in every instance of a repeated layer
_signature_key = functools.lru_cache(maxsize=4096)(repr)


@dataclass
class GraphNode:
    """A logical group of operators treated as one sharding unit."""

    name: str
    ops: List[Operator] = field(default_factory=list)
    inputs: Tuple[str, ...] = ()
    #: lazy signature() memo — ops never change once the node is built
    _signature: Optional[Tuple] = field(
        default=None, repr=False, compare=False
    )
    #: lazy kind memo, for the same reason
    _kind: Optional[str] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def weights(self) -> List[Operator]:
        return [op for op in self.ops if op.has_weight]

    @property
    def weight_specs(self) -> List[TensorSpec]:
        return [op.weight for op in self.ops if op.weight is not None]

    @property
    def num_parameters(self) -> int:
        return sum(
            op.weight.num_elements for op in self.ops if op.weight is not None and op.trainable
        )

    @property
    def flops(self) -> int:
        return sum(op.flops for op in self.ops)

    @property
    def output_spec(self) -> Optional[TensorSpec]:
        """Spec of the node's last (producing) operator."""
        for op in reversed(self.ops):
            if op.output is not None:
                return op.output
        return None

    @property
    def kind(self) -> str:
        """Structural kind used for pattern lookup.

        The dominant weighted op's type wins (a dense layer is a 'matmul'
        node even though it also contains a bias add); weightless groups are
        keyed by their heaviest op.
        """
        if self._kind is None:
            weighted = [op for op in self.ops if op.has_weight]
            pool = weighted or self.ops
            best = max(pool, key=lambda op: (op.weight.num_elements if op.weight else 0, op.flops))
            self._kind = best.op_type
        return self._kind

    def op_type_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[op.op_type] = counts.get(op.op_type, 0) + 1
        return counts

    def signature(self) -> Tuple:
        """Name-free structural identity for similarity comparison."""
        if self._signature is None:
            ops = self.ops
            self._signature = (
                (ops[0].signature(),) if len(ops) == 1
                else tuple(sorted([op.signature() for op in ops],
                                  key=_signature_key))
            )
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphNode({self.name!r}, ops={len(self.ops)}, kind={self.kind})"


class NodeGraph:
    """DAG of GraphNodes, preserving the original graph's directed edges."""

    def __init__(self, name: str = "nodegraph") -> None:
        self.name = name
        self._nodes: Dict[str, GraphNode] = {}
        self._consumers: Dict[str, List[str]] = {}

    def add(self, node: GraphNode) -> GraphNode:
        if node.name in self._nodes:
            raise GraphError(f"duplicate GraphNode {node.name!r}")
        for src in node.inputs:
            if src not in self._nodes:
                raise GraphError(f"GraphNode {node.name!r} consumes unknown {src!r}")
        self._nodes[node.name] = node
        self._consumers[node.name] = []
        for src in node.inputs:
            self._consumers[src].append(node.name)
        return node

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> GraphNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no GraphNode named {name!r}") from None

    def consumers(self, name: str) -> List[GraphNode]:
        self.node(name)
        return [self._nodes[c] for c in self._consumers[name]]

    def roots(self) -> List[GraphNode]:
        return [n for n in self._nodes.values() if not n.inputs]

    def leaves(self) -> List[GraphNode]:
        return [n for n in self._nodes.values() if not self._consumers[n.name]]

    def topo_order(self) -> List[str]:
        """Insertion order is topological by construction (coarsen() builds
        from a topo pass); verify and return it."""
        pos = {n: i for i, n in enumerate(self._nodes)}
        for node in self._nodes.values():
            for src in node.inputs:
                if pos[src] >= pos[node.name]:
                    raise GraphError("NodeGraph insertion order is not topological")
        return list(self._nodes)

    def weight_nodes(self) -> List[GraphNode]:
        return [n for n in self._nodes.values() if n.weights]

    @property
    def num_edges(self) -> int:
        return sum(len(n.inputs) for n in self._nodes.values())

    def subgraph(self, names: Iterable[str], name: str = "block") -> "NodeGraph":
        keep = set(names)
        sub = NodeGraph(name=name)
        for n in self._nodes:
            if n not in keep:
                continue
            node = self._nodes[n]
            sub.add(
                GraphNode(
                    name=node.name,
                    ops=list(node.ops),
                    inputs=tuple(i for i in node.inputs if i in keep),
                )
            )
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeGraph({self.name!r}, nodes={len(self)}, edges={self.num_edges})"


def _group_key(op: Operator) -> str:
    """Innermost scope containing the op; scopeless ops stand alone."""
    return op.scope or op.name


def coarsen(graph: Graph, name: Optional[str] = None) -> NodeGraph:
    """Collapse an op-level graph into a NodeGraph (§4.2 Step ①, GraphNode).

    Operators sharing an innermost name scope fuse into one GraphNode.
    Grouping is by *contiguous runs* in topological order: when ops of a
    scope are interleaved with nested scopes that depend on them (the
    residual-add pattern), each run becomes its own GraphNode (suffixed
    ``#k``), which guarantees the coarse graph stays acyclic.  The input
    graph must already be trimmed of auxiliary ops (coarsening a graph with
    init/save ops would glue them into their variable's node and corrupt
    the sharding unit).
    """
    ng = NodeGraph(name=name or graph.name)
    runs: List[Tuple[str, List[Operator]]] = []  # (group name, ops)
    run_count: Dict[str, int] = {}
    op_to_group: Dict[str, str] = {}
    current_key: Optional[str] = None

    # Insertion order is a valid topological order (Graph.add requires every
    # input to be present) and, unlike Kahn BFS, keeps each traced layer's
    # ops contiguous — fewer, cleaner runs.
    for op in graph:
        if op.is_auxiliary:
            raise GraphError("coarsen() requires a trimmed graph (auxiliary ops present)")
        key = _group_key(op)
        if key != current_key:
            seen = run_count.get(key, 0)
            run_count[key] = seen + 1
            group_name = key if seen == 0 else f"{key}#{seen}"
            runs.append((group_name, []))
            current_key = key
        runs[-1][1].append(op)
        op_to_group[op.name] = runs[-1][0]

    for group_name, ops in runs:
        deps: List[str] = []
        for op in ops:
            for src in op.inputs:
                src_group = op_to_group[src]
                if src_group != group_name and src_group not in deps:
                    deps.append(src_group)
        ng.add(GraphNode(name=group_name, ops=ops, inputs=tuple(deps)))
    return ng
