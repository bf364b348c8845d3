"""Pattern routing — Algorithm 3: validate a plan and derive its collectives.

Routing walks the NodeGraph in topological order (the paper reconstructs
producer/consumer order the same way, §4.5), assigning each node an
activation layout over the tensor-parallel group.  Weight nodes take the
layouts dictated by their assigned pattern; weightless nodes *follow* their
inputs.  Every hop whose producer layout differs from the consumer's
required layout resolves through the conversion table in
:mod:`repro.core.patterns`; an unresolvable hop, an inapplicable pattern, a
nonlinearity applied to a partial value, or a leaf left partial makes the
plan invalid — these are the plans Algorithm 2 discards.

:func:`route_plan` routes each repeated block once: an instance of a prune
family that enters in the same state as the family's previous instance is
stamped from it by renaming.  :func:`walk_plan` walks every node and is
its oracle.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..graph import OpType, TensorSpec
from ..obs import trace
from .graphnode import GraphNode, NodeGraph
from .patterns import (
    FALLBACK_REPLICATE,
    InvalidTransition,
    Layout,
    PatternRegistry,
    ShardingPattern,
    conversion_comm,
)
from .plan import CommEvent, NodeShard, RoutedPlan, ShardingPlan
from .pruning import memoised_prune

__all__ = [
    "route_plan",
    "walk_plan",
    "route_node",
    "resolve_pattern",
    "follow_required",
    "RoutingError",
    "is_valid",
    "NONLINEAR_OPS",
    "FEATURE_AXIS_OPS",
]

#: Op types nonlinear in their input: applying them to a PARTIAL value
#: breaks mathematical equivalence, so a pattern producing P inside such a
#: node is rejected.
NONLINEAR_OPS = frozenset(
    {OpType.RELU, OpType.GELU, OpType.SOFTMAX, OpType.LAYERNORM, OpType.CROSS_ENTROPY}
)

#: Ops that reduce over the feature axis: they demand whole features and
#: reject the S layout when appearing in weightless follow nodes.
FEATURE_AXIS_OPS = frozenset({OpType.LAYERNORM, OpType.CROSS_ENTROPY})


class RoutingError(ValueError):
    """The plan cannot be assembled into a connected sharded graph."""


def _has_nonlinearity_after_weight(node: GraphNode) -> bool:
    """True if a nonlinear op follows the node's primary weighted op."""
    weighted_seen = False
    for op in node.ops:
        if op.has_weight and not weighted_seen:
            weighted_seen = True
            continue
        if weighted_seen and op.op_type in NONLINEAR_OPS:
            return True
    return False


def _required_layout_follow(input_layouts: List[str]) -> str:
    """Layout a weightless follow-node demands of all its inputs.

    Any split input pins the node to S (token-shared peers slice for free,
    token-split peers all_to_all); otherwise a partial forces resolution —
    scattered back to D when a data-parallel peer exists, else reduced to
    R; otherwise token-split peers keep the node data-parallel; otherwise
    the node stays in the token-shared R state of its TP section.
    """
    if Layout.S in input_layouts:
        return Layout.S
    if Layout.P in input_layouts:
        return Layout.D if Layout.D in input_layouts else Layout.R
    if Layout.D in input_layouts:
        return Layout.D
    return Layout.R


def follow_required(input_layouts, feature_axis: bool) -> str:
    """Layout a weightless node demands, with the feature-axis correction.

    ``feature_axis`` is whether the node contains an op that reduces over
    the feature dimension (see :data:`FEATURE_AXIS_OPS`): such nodes cannot
    run on a feature shard, so an S demand degrades to D/R.  Shared by
    :func:`route_plan` and the columnar evaluator so both derive identical
    layouts.
    """
    required = _required_layout_follow(input_layouts) if input_layouts else Layout.D
    if required == Layout.S and feature_axis:
        required = Layout.D if Layout.D in input_layouts else Layout.R
    return required


def route_node(
    node: GraphNode,
    pattern: Optional[ShardingPattern],
    input_layouts: List[str],
    input_specs: List[Optional[TensorSpec]],
    tp: int,
    conversions: Dict[Tuple[str, str], str],
    zero_stage: int = 0,
) -> NodeShard:
    """Route a single node given its resolved pattern and input layouts.

    This is one iteration of Algorithm 3's walk, factored out so
    :func:`route_plan` and the columnar evaluator's per-node tables run
    the identical code.  ``conversions`` is the cross-node dedup table and
    is mutated in place.
    """
    name = node.name
    if pattern is not None:
        required = pattern.input_layout
        out_layout = pattern.output_layout
        if tp == 1:
            required = out_layout = Layout.D
        if out_layout == Layout.P and _has_nonlinearity_after_weight(node):
            raise RoutingError(
                f"{name}: pattern {pattern.name!r} leaves a partial value "
                "under a nonlinearity"
            )
    else:
        # Feature-axis nonlinear ops (a loss over the logits, a norm over
        # the hidden dim) cannot run on a feature shard.  Softmax is
        # exempt: in traced attention its reduction axis is the folded
        # sequence dim, which head-splitting never touches.
        feature_axis = any(op.op_type in FEATURE_AXIS_OPS for op in node.ops)
        required = follow_required(input_layouts, feature_axis)
        out_layout = required

    bwd_input_reduction = pattern is not None and any(
        which == "input" and coll == "all_reduce"
        for coll, which in pattern.backward_tp_comms
    )
    shard = NodeShard(
        name=name,
        kind=node.kind,
        pattern=pattern.name if pattern else "follow",
        input_layout=required,
        output_layout=out_layout,
        output_spec=node.output_spec,
        flops=node.flops,
        bwd_input_reduction=bwd_input_reduction,
    )

    # --- input conversions ---------------------------------------
    # Deduplicated per (producer, target layout): one collective's
    # result serves every consumer demanding the same layout.
    for src, src_layout, src_spec in zip(node.inputs, input_layouts, input_specs):
        try:
            fwd, bwd = conversion_comm(src_layout, required)
        except InvalidTransition as exc:
            raise RoutingError(f"{src} -> {name}: {exc}") from exc
        # Hops into the token-shared R state carry the consumer's
        # backward semantics: a column-parallel consumer emits partial
        # input gradients that the hop must reduce (all_reduce when the
        # producer itself is R, reduce_scatter back to D/S otherwise);
        # a redundant consumer's gradients are identical copies — the
        # backward hop is a free slice.
        if required == Layout.R and src_layout in (
            Layout.D, Layout.S, Layout.R
        ):
            if bwd_input_reduction:
                bwd = (
                    "all_reduce" if src_layout == Layout.R else "reduce_scatter"
                )
            else:
                bwd = None
        if fwd is None and bwd is None:
            continue
        key = (src, required)
        if key in conversions:
            continue
        if src_spec is None:
            continue
        conversions[key] = fwd or ""
        if fwd is not None:
            shard.events.append(
                CommEvent("forward", fwd, "tp", src_spec, True, name, src=src)
            )
        if bwd is not None:
            shard.events.append(
                CommEvent("backward", bwd, "tp", src_spec, True, name, src=src)
            )

    input_spec = None
    for spec in input_specs:
        if spec is not None:
            input_spec = spec
            break
    _apply_pattern_effects(shard, node, pattern, tp, input_spec, zero_stage)
    return shard


def route_plan(
    block: NodeGraph,
    plan: ShardingPlan,
    registry: PatternRegistry,
) -> RoutedPlan:
    """Elaborate *plan* over *block*; raises :class:`RoutingError` if invalid.

    Root-to-leaf connectivity (the BFS of Algorithm 3) is implied: the walk
    visits every node in topological order and fails the moment a hop has
    no pattern pair, so a completed walk *is* a connected chain of sharding
    patterns from every root to every leaf.

    Repeated blocks are routed once: when *block* carries a memoised prune
    result (:func:`repro.core.pruning.memoised_prune`), an instance of a
    family that enters in the same state as the family's previous instance
    is stamped from it by renaming (see :func:`_stamp_instance`) instead of
    walked.  The result equals :func:`walk_plan`'s, field for field.
    """
    with trace.span("route", block=block.name, tp=plan.tp_degree):
        prune = memoised_prune(block)
        return _route(block, plan, registry, prune.families if prune else ())


def walk_plan(
    block: NodeGraph,
    plan: ShardingPlan,
    registry: PatternRegistry,
) -> RoutedPlan:
    """The per-node walk of every GraphNode: :func:`route_plan`'s oracle."""
    return _route(block, plan, registry, ())


class _Instance(NamedTuple):
    """One routed family instance, as the next instance compares to it."""

    members: Tuple[str, ...]
    #: per member: its ops' :data:`_op_key` values and assigned pattern
    nodes: List[Tuple]
    #: per member: each input's index in ``members``, -1 when external
    wiring: List[Tuple[int, ...]]
    #: producers outside the instance, one per boundary edge in member order
    external: List[str]
    #: per boundary edge: the producer's layout and output spec, and which
    #: conversions of it were already claimed when the instance was entered
    entry: List[Tuple]
    #: the conversion entries the instance added, in routing order
    rows: List[Tuple[Tuple[str, str], str]]


#: everything about an op except its name and wiring that routing reads
_op_key = attrgetter("op_type", "output", "weight", "trainable", "flops")
_op_weight = attrgetter("weight")


def _instance(
    block: NodeGraph,
    plan: ShardingPlan,
    members: Tuple[str, ...],
    layouts: Dict[str, str],
    conversions: Dict[Tuple[str, str], str],
) -> _Instance:
    """Describe the instance *members* as the walk is about to enter it."""
    index = {name: k for k, name in enumerate(members)}
    nodes, wiring, external, entry = [], [], [], []
    for name in members:
        node = block.node(name)
        key = tuple(map(_op_key, node.ops))
        weighted = any(map(_op_weight, node.ops))
        nodes.append((key, plan.pattern_for(name) if weighted else None))
        links = []
        for src in node.inputs:
            k = index.get(src, -1)
            links.append(k)
            if k < 0:
                external.append(src)
                entry.append((
                    layouts[src],
                    block.node(src).output_spec,
                    [(src, lay) in conversions for lay in Layout.ALL],
                ))
        wiring.append(tuple(links))
    return _Instance(members, nodes, wiring, external, entry, [])


def _rename(prev: _Instance, cur: _Instance) -> Optional[Dict[str, str]]:
    """Name map from *prev* onto *cur* when routing *cur* must repeat
    *prev* exactly; ``None`` when anything routing reads differs.

    Same composition is not enough (the prune fingerprint ignores wiring):
    members must match pairwise, wire to the same member indices, and enter
    from producers in the same layout, with equal specs and the same
    conversions already claimed.
    """
    if (
        prev.nodes != cur.nodes
        or prev.wiring != cur.wiring
        or prev.entry != cur.entry
    ):
        return None
    rename = dict(zip(prev.members, cur.members))
    for old, new in zip(prev.external, cur.external):
        if rename.setdefault(old, new) != new:
            return None
    if len(set(rename.values())) != len(rename):
        return None  # two producers of prev merge into one of cur
    return rename


def _stamp_instance(
    routed: RoutedPlan,
    block: NodeGraph,
    prev: _Instance,
    cur: _Instance,
    rename: Dict[str, str],
    layouts: Dict[str, str],
) -> _Instance:
    """Route *cur* by renaming *prev*'s shards, events and conversions.

    Each copied shard keeps every value of its template except the names:
    the shard's own, each event's ``node`` and ``src``, and the gradient
    spec's ``"{node}/grads"``; its ``output_spec`` is the member's own
    (equal by value).  The instance's conversion entries are added in the
    order the template added them, as the walk would.
    """
    shards = routed.shards
    stamps = routed._stamps
    for old, new in zip(prev.members, cur.members):
        shard = shards[old]
        events = []
        for ev in shard.events:
            spec = ev.spec
            if ev.overlappable:
                spec = TensorSpec(spec.shape, spec.dtype, name=f"{new}/grads")
            events.append(ev.renamed(new, rename[ev.src] if ev.src else "", spec))
        shards[new] = shard.renamed(new, block.node(new).output_spec, events)
        stamps[new] = stamps.get(old, old)
        layouts[new] = layouts[old]
        routed.order.append(new)
    rows = cur.rows
    for (src, layout), collective in prev.rows:
        key = (rename[src], layout)
        routed.conversions[key] = collective
        rows.append((key, collective))
    return cur


def _route(
    block: NodeGraph,
    plan: ShardingPlan,
    registry: PatternRegistry,
    families: Sequence,
) -> RoutedPlan:
    tp = plan.tp_degree
    routed = RoutedPlan(plan=plan)
    conversions = routed.conversions
    layouts: Dict[str, str] = {}

    def walk(name: str) -> None:
        node = block.node(name)
        input_layouts = [layouts[i] for i in node.inputs]
        input_specs = [block.node(i).output_spec for i in node.inputs]
        pattern = (
            resolve_pattern(node, plan.pattern_for(name), registry, tp)
            if node.weights
            else None
        )
        shard = route_node(
            node, pattern, input_layouts, input_specs, tp,
            conversions, zero_stage=plan.zero_stage,
        )
        layouts[name] = shard.output_layout
        routed.shards[name] = shard
        routed.order.append(name)

    #: first member → (family, members) for every family instance
    starts = {
        members[0]: (f, members)
        for f, family in enumerate(families)
        for members in family.member_nodes
    }
    #: family → its last routed instance (absent: none to copy from)
    last: Dict[int, _Instance] = {}
    order = block.topo_order()
    i = 0
    while i < len(order):
        hit = starts.get(order[i])
        if hit is None:
            walk(order[i])
            i += 1
            continue
        f, members = hit
        end = i + len(members)
        if tuple(order[i:end]) != members:
            # not contiguous in the walk: other nodes interleave
            last.pop(f, None)
            walk(order[i])
            i += 1
            continue
        cur = _instance(block, plan, members, layouts, conversions)
        prev = last.get(f)
        rename = _rename(prev, cur) if prev is not None else None
        if rename is not None:
            last[f] = _stamp_instance(routed, block, prev, cur, rename, layouts)
        else:
            before = len(conversions)
            for name in members:
                walk(name)
            cur.rows.extend(itertools.islice(conversions.items(), before, None))
            last[f] = cur
        i = end

    for leaf in block.leaves():
        if layouts.get(leaf.name) == Layout.P:
            raise RoutingError(f"leaf {leaf.name} ends with a partial value")
    return routed


def resolve_pattern(
    node: GraphNode,
    pattern_name: str,
    registry: PatternRegistry,
    tp: int,
) -> ShardingPattern:
    """Look up and validate the pattern *pattern_name* assigns to *node*."""
    if pattern_name == "replicate":
        for p in registry.for_kind(node.kind):
            if p.name == "replicate":
                return p
        return FALLBACK_REPLICATE
    try:
        pattern = registry.lookup(node.kind, pattern_name)
    except KeyError as exc:
        raise RoutingError(str(exc)) from exc
    if not pattern.applicable(node, tp):
        raise RoutingError(
            f"{node.name}: pattern {pattern_name!r} not applicable at tp={tp} "
            f"(weight dims not divisible)"
        )
    return pattern


def _apply_pattern_effects(
    shard: NodeShard,
    node: GraphNode,
    pattern: Optional[ShardingPattern],
    tp: int,
    input_spec: Optional[TensorSpec] = None,
    zero_stage: int = 0,
) -> None:
    """Fill weight sizes, compute share and pattern-implied collectives."""
    # Weight accounting ------------------------------------------------
    primary = (
        max(node.weight_specs, key=lambda w: w.num_elements)
        if node.weights
        else None
    )
    local_bytes = 0
    local_params = 0
    split_weights = pattern is not None and pattern.weight_shard.is_split and tp > 1
    for op in node.ops:
        w = op.weight
        if w is None:
            continue
        if split_weights and _weight_follows_split(w, primary, pattern):
            local = w.split(_effective_axis(w, primary, pattern), tp)
        else:
            local = w
        local_bytes += local.size_bytes
        if op.trainable:
            local_params += local.num_elements
    shard.local_weight_bytes = local_bytes
    shard.full_weight_bytes = sum(w.size_bytes for w in node.weight_specs)
    shard.local_parameters = local_params

    # Compute share ------------------------------------------------------
    # Split-weight nodes always execute 1/tp of the node's FLOPs (a
    # row-parallel matmul contracts 1/tp of the inner dim even though its
    # output is full-shape).  Weightless nodes in D or S process 1/tp of
    # the group's tokens or features; R and P follow-nodes operate on the
    # group's whole token slice redundantly.
    if split_weights:
        shard.compute_share = 1.0 / tp
    elif shard.output_layout in (Layout.D, Layout.S):
        shard.compute_share = 1.0 / tp
    else:
        shard.compute_share = 1.0

    # Pattern-implied extra collectives -----------------------------------
    if pattern is not None and tp > 1:
        # ``which`` selects the activation each collective moves: "input"
        # prices the producer's tensor (the column-parallel backward
        # all-reduce acts on dX), "output" the node's own.
        specs = {
            "input": input_spec or shard.output_spec,
            "output": shard.output_spec,
        }
        for phase, comms in (
            ("forward", pattern.forward_tp_comms),
            ("backward", pattern.backward_tp_comms),
        ):
            for collective, which in comms:
                if (
                    phase == "backward"
                    and which == "input"
                    and collective == "all_reduce"
                ):
                    # already folded into the inbound hop's backward event
                    continue
                spec = specs.get(which)
                if spec is None:
                    continue
                shard.events.append(
                    CommEvent(phase, collective, "tp", spec, True, node.name)
                )

    # Gradient synchronisation ---------------------------------------------
    # Replicated trainable weights saw distinct tokens on every device →
    # all-reduce over the whole mesh.  Split weights synchronise their
    # shard across the dp replicas only (§4.6 trainable-only rule: frozen
    # weights emit nothing).  Under ZeRO (stage >= 1) the sync is a
    # reduce-scatter instead: each replica keeps only the 1/dp slice its
    # optimizer shard steps; the post-step all-gather of updated weights
    # is priced at the plan level, not per node.
    if local_params > 0:
        grad_dtype = primary.dtype if primary is not None else "float32"
        grad_spec = TensorSpec(
            (local_params,), grad_dtype, name=f"{node.name}/grads"
        )
        shard.events.append(
            CommEvent(
                "backward",
                "reduce_scatter" if zero_stage >= 1 else "all_reduce",
                "dp" if split_weights else "all",
                grad_spec,
                False,
                node.name,
                overlappable=True,
            )
        )


def _weight_follows_split(
    w: TensorSpec, primary: Optional[TensorSpec], pattern: ShardingPattern
) -> bool:
    """Secondary weights (bias, norm scale) split only when the primary's
    *output* dimension is the one being split and they carry it.

    Splitting the input dimension (row-parallel) must never shard the bias:
    the bias belongs to the output dimension, which stays whole — even when
    the weight happens to be square.
    """
    if primary is None:
        return False
    if w == primary:
        return True
    axis = pattern.weight_shard.axis
    if axis != primary.rank - 1:
        return False
    split_dim = primary.shape[axis]
    return any(d == split_dim and d > 2 for d in w.shape)


def _effective_axis(
    w: TensorSpec, primary: Optional[TensorSpec], pattern: ShardingPattern
) -> int:
    if primary is not None and w == primary:
        return pattern.weight_shard.axis
    split_dim = primary.shape[pattern.weight_shard.axis] if primary else 0
    for i, d in enumerate(w.shape):
        if d == split_dim:
            return i
    return 0


def is_valid(
    block: NodeGraph, plan: ShardingPlan, registry: PatternRegistry
) -> bool:
    """Boolean form of Algorithm 3 used by the plan generator."""
    try:
        route_plan(block, plan, registry)
        return True
    except RoutingError:
        return False
