"""Graph rewriting (§4.7): expand a routed plan into an executable graph.

The rewriter restores the original operator order, replaces weights with
their local shards, inserts the plan's forward communication operators on
the edges they convert, computes the gradient-packing buckets, and finally
re-attaches the auxiliary operators trimmed before planning — all in one
pass that copies each operator once.  The result is
a framework-consumable parallel graph — one device's program under SPMD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph import Graph, Operator, OpType, TensorSpec, TrimRecord, attach_auxiliary
from ..obs import metrics, trace
from .graphnode import NodeGraph
from .packing import Bucket, PackingConfig, pack_gradients
from .patterns import DEFAULT_REGISTRY, PatternRegistry
from .plan import CommEvent, RoutedPlan

__all__ = ["RewriteResult", "rewrite_graph", "COLLECTIVE_TO_OP"]

COLLECTIVE_TO_OP = {
    "all_reduce": OpType.ALL_REDUCE,
    "all_gather": OpType.ALL_GATHER,
    "reduce_scatter": OpType.REDUCE_SCATTER,
    "all_to_all": OpType.ALL_TO_ALL,
    "broadcast": OpType.BROADCAST,
}


@dataclass
class RewriteResult:
    """The parallelised graph plus rewrite metadata."""

    graph: Graph
    num_comm_ops: int = 0
    gradient_buckets: List[Bucket] = field(default_factory=list)
    #: op name → local (sharded) weight spec, where it differs from the full
    local_weights: Dict[str, TensorSpec] = field(default_factory=dict)

    @property
    def num_gradient_buckets(self) -> int:
        return len(self.gradient_buckets)


def rewrite_graph(
    trimmed: Graph,
    node_graph: NodeGraph,
    routed: RoutedPlan,
    trim_record: Optional[TrimRecord] = None,
    packing: Optional[PackingConfig] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> RewriteResult:
    """Produce the parallel version of *trimmed* under *routed*.

    Forward layout-conversion collectives become explicit communication
    operators spliced onto the producer→consumer edges they serve; weights
    are narrowed to their local shards; gradient packing runs over the
    plan's backward gradient stream exactly as §4.7.1 describes.
    """
    with trace.span("rewrite", ops=len(trimmed), tp=routed.tp_degree):
        result = _rewrite_graph(
            trimmed, node_graph, routed, trim_record, packing, registry
        )
    if metrics.enabled():
        metrics.counter("rewrite.comm_ops", result.num_comm_ops)
        metrics.counter("rewrite.gradient_buckets", result.num_gradient_buckets)
        metrics.counter("rewrite.local_weights", len(result.local_weights))
    return result


def _rewrite_graph(
    trimmed: Graph,
    node_graph: NodeGraph,
    routed: RoutedPlan,
    trim_record: Optional[TrimRecord],
    packing: Optional[PackingConfig],
    registry: PatternRegistry,
) -> RewriteResult:
    # One pass: every compute op is copied once into the result graph, the
    # spliced comm ops beside it, then the trimmed auxiliary ops after them.
    op_to_node: Dict[str, str] = {}
    first_op: Dict[str, str] = {}
    for node in node_graph:
        first_op[node.name] = node.ops[0].name
        for op in node.ops:
            op_to_node[op.name] = node.name

    tp = routed.tp_degree
    shards = routed.shards
    conversions = routed.conversions
    result_graph = Graph(name=f"{trimmed.name}@tp{tp}")
    result = RewriteResult(graph=result_graph)
    #: (producer op, target layout) → shared comm op name.  One collective's
    #: result serves every consumer demanding the same layout, mirroring the
    #: deduplication in routing.
    spliced: Dict[Tuple[str, str], str] = {}

    for op in trimmed:
        node_name = op_to_node.get(op.name)
        shard = shards.get(node_name) if node_name else None

        inputs = op.inputs
        if shard is not None and conversions:
            new_inputs: List[str] = []
            for src in inputs:
                src_node = op_to_node.get(src)
                collective = (
                    conversions.get((src_node, shard.input_layout))
                    if src_node not in (None, node_name)
                    else None
                )
                if collective:
                    splice_key = (src, shard.input_layout)
                    if splice_key not in spliced:
                        comm_name = f"{src}/{collective}_to_{shard.input_layout}"
                        result_graph.add(
                            Operator(
                                name=comm_name,
                                op_type=COLLECTIVE_TO_OP[collective],
                                inputs=(src,),
                                output=trimmed.op(src).output,
                                attrs={"group": "tp", "tp_degree": tp},
                            )
                        )
                        spliced[splice_key] = comm_name
                        result.num_comm_ops += 1
                    new_inputs.append(spliced[splice_key])
                else:
                    new_inputs.append(src)
            inputs = tuple(new_inputs)

        weight = op.weight
        if weight is not None and shard is not None and shard.pattern not in (
            "replicate",
            "follow",
        ):
            weight = _local_weight(op.weight, shard, node_graph, tp, registry)
            if weight != op.weight:
                result.local_weights[op.name] = weight

        # MoE dispatch/combine (pattern-level forward comms without a src
        # edge) wrap the node's first op.
        if shard is not None and shard.events and first_op[node_name] == op.name:
            extra = [
                ev for ev in shard.events if ev.phase == "forward" and not ev.src
            ]
            for i, ev in enumerate(extra):
                comm_name = f"{node_name}/{ev.collective}_pre{i}"
                if comm_name in result_graph:
                    continue
                result_graph.add(
                    Operator(
                        name=comm_name,
                        op_type=COLLECTIVE_TO_OP[ev.collective],
                        inputs=inputs,
                        output=op.output,
                        attrs={"group": "tp", "tp_degree": tp},
                    )
                )
                inputs = (comm_name,)
                result.num_comm_ops += 1

        result_graph.add(op.rewired(inputs, weight))

    # Gradient packing over the plan's backward gradient stream (§4.7.1).
    grad_stream = [
        ev.nbytes(1)
        for ev in routed.events("backward")
        if ev.overlappable
    ]
    result.gradient_buckets = pack_gradients(grad_stream, packing)

    if trim_record is not None:
        attach_auxiliary(result_graph, trim_record)
    result_graph.validate()
    return result


def _local_weight(
    full: TensorSpec,
    shard,
    node_graph: NodeGraph,
    tp: int,
    registry: PatternRegistry,
) -> TensorSpec:
    """Local shard spec of one weight under the node's routed pattern.

    Reuses the routing-time accounting: the shard's local byte total tells
    whether this weight was split; the axis comes from re-deriving against
    the node's primary weight.
    """
    from .routing import _effective_axis, _weight_follows_split

    node = node_graph.node(shard.name)
    try:
        pattern = registry.lookup(node.kind, shard.pattern)
    except KeyError:
        return full
    if not pattern.weight_shard.is_split or tp <= 1:
        return full
    primary = max(node.weight_specs, key=lambda w: w.num_elements)
    if not _weight_follows_split(full, primary, pattern):
        return full
    axis = _effective_axis(full, primary, pattern)
    if not full.can_split(axis, tp):
        return full
    return full.split(axis, tp)
