"""Rule-based static verification of TAP plans — the sharding "type checker".

Every check here is a *re-derivation*: the verifier recomputes what a
correct plan must look like from first principles (the SRC conversion
table, the pattern registry, the packing rules) and compares the artifact
against it.  It deliberately does **not** call :mod:`repro.core.routing` —
the layout-propagation walk below is an independent re-implementation of
Algorithm 3, so a bug in the router and a bug in the verifier would have
to coincide to slip through.  Nothing here prices time or touches the
simulator's event loop; a verification pass over a fig. 9-scale plan is
microseconds.

Rule ids (see DESIGN.md "Static verification" for rationales):

=====================  ====================================================
``plan/unknown-node``    assignment names a node absent or weightless
``plan/unknown-pattern`` pattern name unknown for the node's kind
``plan/mesh-degree``     tp_degree does not divide the mesh's device count
``plan/divisibility``    split weight dim not divisible by tp_degree
``plan/chain``           a producer→consumer hop has no SRC conversion
``plan/partial-nonlinear`` pattern leaves a partial value under a nonlinearity
``plan/partial-leaf``    a graph leaf ends in the partial (P) layout
``routed/order``         routed.order is not a topological cover of the graph
``routed/layout``        shard layouts disagree with independent propagation
``routed/conversion``    conversions table and forward events disagree
``routed/grad-sync``     gradient-sync events broken (missing/duplicated/axis)
``routed/cost``          cost model sanity (negative terms, DP pricing comms)
``pack/conservation``    bucket bytes do not sum to the gradient stream
``pack/coverage``        a gradient packed zero or multiple times
``pack/bucket-size``     a fused bucket exceeds the chunk cap
``pack/mismatch``        rewrite's buckets differ from a fresh packing
``sim/tape-columnar``    a cached columnar tape's flat arrays are corrupt
``rewrite/missing-collective`` a priced conversion edge has no comm op
``rewrite/orphan-comm``  a comm op no conversion or pattern accounts for
``rewrite/duplicate-comm`` one edge carries two collectives
``rewrite/count``        num_comm_ops disagrees with the graph
=====================  ====================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cluster import Mesh
from ..core.cost import CostConfig, CostModel
from ..core.graphnode import GraphNode, NodeGraph
from ..core.packing import PackingConfig, pack_gradients
from ..core.patterns import (
    CONVERSIONS,
    DEFAULT_REGISTRY,
    FALLBACK_REPLICATE,
    Layout,
    PatternRegistry,
    ShardingPattern,
)
from ..core.plan import RoutedPlan, ShardingPlan
from ..graph import OpType
from .diagnostics import ERROR, WARNING, VerificationReport

__all__ = [
    "verify_plan",
    "verify_routed",
    "verify_rewrite",
    "ALL_RULES",
]

#: rule id → one-line rationale (DESIGN.md renders this table).
ALL_RULES: Dict[str, str] = {
    "plan/unknown-node": "an assignment to a missing/weightless node would be silently ignored",
    "plan/unknown-pattern": "an unknown pattern name can never route",
    "plan/mesh-degree": "tp must divide the device count or no group factorisation exists",
    "plan/zero-stage": "a ZeRO stage outside {0, 1, 2} has no defined sharding semantics",
    "plan/divisibility": "uneven shards break the SPMD same-shape guarantee",
    "plan/chain": "a hop outside the SRC conversion table has no collective (Algorithm 3)",
    "plan/partial-nonlinear": "f(sum x_i) != sum f(x_i): partials must resolve before nonlinearities",
    "plan/partial-leaf": "a leaf's partial summands are never reduced — wrong output",
    "routed/order": "the simulator replays routed.order; it must cover the graph topologically",
    "routed/layout": "cross-check against an independent Algorithm 3 layout propagation",
    "routed/conversion": "every claimed conversion needs exactly one priced forward event",
    "routed/grad-sync": "each trainable shard syncs its gradient exactly once, via the stage's collective, on the right axis",
    "routed/cost": "cost terms are times/bytes: non-negative; pure DP prices zero TP comm; no gather time with ZeRO off",
    "pack/conservation": "packing must move every gradient byte exactly once",
    "pack/coverage": "a gradient packed twice is synced twice (wrong update)",
    "pack/bucket-size": "fused buckets above the chunk cap stall the update pipeline",
    "pack/mismatch": "rewrite's buckets must equal a fresh packing of the plan's stream",
    "sim/tape-columnar": "corrupt flat columns (lengths, ids, segment closure) would vectorize a wrong timeline",
    "rewrite/missing-collective": "a priced conversion edge without its comm op computes garbage",
    "rewrite/orphan-comm": "a comm op nothing priced means cost and graph disagree",
    "rewrite/duplicate-comm": "one edge must carry exactly the collective the plan claims",
    "rewrite/count": "num_comm_ops is reported downstream; it must match the graph",
}

# ---------------------------------------------------------------------------
# Independent Algorithm-3 re-implementation (deliberately NOT routing.py)
# ---------------------------------------------------------------------------

#: Op types nonlinear in their input — a partial value entering them breaks
#: f(Σx) = Σf(x).  Declared locally (not imported from routing.py) so the
#: verifier and the router must *agree*, not merely share a constant.
_NONLINEAR = frozenset(
    {OpType.RELU, OpType.GELU, OpType.SOFTMAX, OpType.LAYERNORM, OpType.CROSS_ENTROPY}
)

#: Ops reducing over the feature axis: they cannot run on a feature shard.
_FEATURE_AXIS = frozenset({OpType.LAYERNORM, OpType.CROSS_ENTROPY})


def _primary_weight(node: GraphNode):
    return max(node.weight_specs, key=lambda w: w.num_elements)


def _nonlinear_after_weight(node: GraphNode) -> bool:
    weighted_seen = False
    for op in node.ops:
        if op.has_weight and not weighted_seen:
            weighted_seen = True
            continue
        if weighted_seen and op.op_type in _NONLINEAR:
            return True
    return False


def _follow(input_layouts: List[str], feature_axis: bool) -> str:
    """Layout a weightless node demands (independent restatement of §4.5)."""
    if not input_layouts:
        return Layout.D
    if Layout.S in input_layouts:
        required = Layout.S
    elif Layout.P in input_layouts:
        required = Layout.D if Layout.D in input_layouts else Layout.R
    elif Layout.D in input_layouts:
        required = Layout.D
    else:
        required = Layout.R
    if required == Layout.S and feature_axis:
        required = Layout.D if Layout.D in input_layouts else Layout.R
    return required


def _pattern_for(
    node: GraphNode,
    pattern_name: str,
    registry: PatternRegistry,
    report: VerificationReport,
) -> ShardingPattern:
    """Resolve a node's pattern, reporting (not raising) unknown names."""
    if pattern_name != "replicate":
        try:
            return registry.lookup(node.kind, pattern_name)
        except KeyError:
            report.add(
                "plan/unknown-pattern",
                f"no pattern {pattern_name!r} for kind {node.kind!r}",
                where=node.name,
                hint="use one of the registered patterns for this kind, "
                "or 'replicate'",
            )
            # fall through to replicate so propagation can continue
    for p in registry.for_kind(node.kind):
        if p.name == "replicate":
            return p
    return FALLBACK_REPLICATE


def _propagate(
    graph: NodeGraph,
    plan: ShardingPlan,
    registry: PatternRegistry,
    report: VerificationReport,
) -> Dict[str, Tuple[str, str]]:
    """Walk the graph root→leaf assigning (input, output) layouts per node.

    Emits ``plan/divisibility``, ``plan/chain``, ``plan/partial-nonlinear``
    and ``plan/partial-leaf`` diagnostics along the way; always completes
    (a broken hop is reported and propagation continues with the declared
    layouts, so one corrupted plan surfaces *all* of its defects).
    """
    tp = plan.tp_degree
    layouts: Dict[str, Tuple[str, str]] = {}
    for name in graph.topo_order():
        node = graph.node(name)
        input_layouts = [layouts[i][1] for i in node.inputs]
        if node.weights:
            pattern = _pattern_for(node, plan.pattern_for(name), registry, report)
            if tp == 1:
                if not pattern.is_replicate:
                    report.add(
                        "plan/divisibility",
                        f"pattern {pattern.name!r} cannot shard at tp=1",
                        where=name,
                        hint="use 'replicate' (pure data parallelism) at tp=1",
                    )
                required = out = Layout.D
            else:
                required, out = pattern.input_layout, pattern.output_layout
                if pattern.weight_shard.is_split:
                    primary = _primary_weight(node)
                    axis = pattern.weight_shard.axis
                    if not primary.can_split(axis, tp):
                        dim = (
                            primary.shape[axis]
                            if -primary.rank <= axis < primary.rank
                            else "?"
                        )
                        report.add(
                            "plan/divisibility",
                            f"weight dim {dim} (axis {axis}) of "
                            f"{primary.shape} not divisible by tp={tp}",
                            where=name,
                            hint="pick a tp_degree dividing the dim, or replicate",
                        )
                if out == Layout.P and _nonlinear_after_weight(node):
                    report.add(
                        "plan/partial-nonlinear",
                        f"pattern {pattern.name!r} leaves a partial value "
                        "under a nonlinearity inside the node",
                        where=name,
                        hint="a partial-producing pattern needs the nonlinearity "
                        "in a downstream node (or a different pattern)",
                    )
        else:
            feature_axis = any(op.op_type in _FEATURE_AXIS for op in node.ops)
            required = out = _follow(input_layouts, feature_axis)

        for src, src_layout in zip(node.inputs, input_layouts):
            if (src_layout, required) not in CONVERSIONS:
                report.add(
                    "plan/chain",
                    f"no sharding-pattern chain connects "
                    f"{src_layout} -> {required}",
                    where=f"{src} -> {name}",
                    hint="the SRC table has no collective for this hop; "
                    "change one endpoint's pattern",
                )
        layouts[name] = (required, out)

    for leaf in graph.leaves():
        if layouts.get(leaf.name, ("D", "D"))[1] == Layout.P:
            report.add(
                "plan/partial-leaf",
                "graph leaf ends with a partial (P) value",
                where=leaf.name,
                hint="partials must be reduced before leaving the graph",
            )
    return layouts


# ---------------------------------------------------------------------------
# verify_plan
# ---------------------------------------------------------------------------

def _verify_plan_impl(
    graph: NodeGraph,
    plan: ShardingPlan,
    mesh: Optional[Mesh],
    registry: PatternRegistry,
) -> Tuple[VerificationReport, Dict[str, Tuple[str, str]]]:
    report = VerificationReport(rules_checked=8)

    # ShardingPlan.__post_init__ enforces the range for plans built through
    # the library; re-checking here covers hand-built or monkeyed objects
    # before the stage steers collective selection downstream.
    zero = getattr(plan, "zero_stage", 0)
    if zero not in (0, 1, 2):
        report.add(
            "plan/zero-stage",
            f"zero_stage {zero!r} is outside the supported range (0, 1, 2)",
            hint="0 = off, 1 = optimizer-state sharding, 2 = + gradients",
        )

    for node_name, pattern_name in plan.assignment:
        if node_name not in graph:
            report.add(
                "plan/unknown-node",
                f"assignment references {node_name!r}, absent from the graph",
                where=node_name,
                hint="the plan was derived for a different model or version",
            )
        elif not graph.node(node_name).weights and pattern_name != "replicate":
            report.add(
                "plan/unknown-node",
                f"assignment shards weightless node {node_name!r}",
                where=node_name,
                hint="only weight-carrying nodes take patterns",
            )

    if mesh is not None and mesh.num_devices % plan.tp_degree != 0:
        report.add(
            "plan/mesh-degree",
            f"tp_degree {plan.tp_degree} does not divide "
            f"{mesh.num_devices} devices",
            hint="tp must evenly factor the mesh into tp x dp groups",
        )

    layouts = _propagate(graph, plan, registry, report)
    return report, layouts


def verify_plan(
    graph: NodeGraph,
    plan: ShardingPlan,
    mesh: Optional[Mesh] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> VerificationReport:
    """Statically check *plan* against *graph* (and optionally *mesh*).

    Runs the plan-level rules: assignment hygiene, mesh/degree arithmetic,
    weight-dimension divisibility, and the independent layout propagation
    that re-derives Algorithm 3's connectivity verdict.
    """
    report, _ = _verify_plan_impl(graph, plan, mesh, registry)
    return report


# ---------------------------------------------------------------------------
# verify_routed
# ---------------------------------------------------------------------------

def _check_order(
    graph: NodeGraph, routed: RoutedPlan, report: VerificationReport
) -> None:
    names = {n.name for n in graph}
    order = routed.order
    if len(set(order)) != len(order):
        dupes = sorted({n for n in order if order.count(n) > 1})
        report.add(
            "routed/order",
            f"routed.order repeats nodes: {dupes[:5]}",
            hint="each node is simulated once per iteration",
        )
    missing = sorted(names - set(order))
    extra = sorted(set(order) - names)
    if missing:
        report.add(
            "routed/order",
            f"routed.order misses graph nodes: {missing[:5]}",
            hint="re-route the plan against this graph",
        )
    if extra:
        report.add(
            "routed/order",
            f"routed.order names unknown nodes: {extra[:5]}",
            hint="the routed plan belongs to a different graph",
        )
    pos = {n: i for i, n in enumerate(order)}
    for name in order:
        if name not in names:
            continue
        for src in graph.node(name).inputs:
            if src in pos and pos[src] >= pos[name]:
                report.add(
                    "routed/order",
                    f"{src!r} is ordered after its consumer {name!r}",
                    where=name,
                    hint="routed.order must be topological",
                )
    shard_names = set(routed.shards)
    if shard_names != set(order):
        diff = sorted(shard_names.symmetric_difference(set(order)))
        report.add(
            "routed/order",
            f"shards and order disagree on membership: {diff[:5]}",
        )


def _check_layouts(
    routed: RoutedPlan,
    layouts: Dict[str, Tuple[str, str]],
    report: VerificationReport,
) -> None:
    for name, (required, out) in layouts.items():
        shard = routed.shards.get(name)
        if shard is None:
            continue  # routed/order already flagged it
        if shard.input_layout != required or shard.output_layout != out:
            report.add(
                "routed/layout",
                f"routed layouts {shard.input_layout}->{shard.output_layout} "
                f"disagree with independent propagation {required}->{out}",
                where=name,
                hint="the routed plan was mutated or routed against a "
                "different graph/registry",
            )


def _check_conversions(
    graph: NodeGraph, routed: RoutedPlan, report: VerificationReport
) -> None:
    # every non-free conversion has exactly one forward event; every
    # sourced forward event has a matching conversions-table entry
    events: Dict[Tuple[str, str], List[str]] = {}
    for name in routed.order:
        shard = routed.shards.get(name)
        if shard is None:
            continue
        for ev in shard.events:
            if ev.phase != "forward" or not ev.src:
                continue
            owner_key = (ev.src, shard.input_layout)
            events.setdefault(owner_key, []).append(ev.collective)
            claimed = routed.conversions.get(owner_key)
            if claimed != ev.collective:
                report.add(
                    "routed/conversion",
                    f"forward {ev.collective} on edge {ev.src!r} has no "
                    f"matching conversion claim (table says {claimed!r})",
                    where=name,
                )
            if ev.src in graph and name in graph:
                if ev.src not in graph.node(name).inputs:
                    report.add(
                        "routed/conversion",
                        f"conversion event sourced at {ev.src!r}, which is "
                        f"not an input of {name!r}",
                        where=name,
                    )
    for key, collective in routed.conversions.items():
        if not collective:
            continue  # free hop (slice) or backward-only conversion
        got = events.get(key, [])
        if len(got) != 1:
            src, layout = key
            report.add(
                "routed/conversion",
                f"conversion ({src!r} -> {layout}) claims {collective!r} "
                f"but {len(got)} forward events price it",
                hint="exactly one consumer must own each deduplicated "
                "conversion's event",
            )


def _check_grad_sync(routed: RoutedPlan, report: VerificationReport) -> None:
    # With the ZeRO axis on, each replica keeps a 1/dp gradient slice for
    # its sharded optimizer step — the sync must be a reduce-scatter; with
    # it off, the classic all-reduce.  A mismatch either way means the
    # router and the plan disagree about the weight-update scheme.
    want_collective = (
        "reduce_scatter" if routed.plan.zero_stage >= 1 else "all_reduce"
    )
    for name in routed.order:
        shard = routed.shards.get(name)
        if shard is None:
            continue
        sync = [ev for ev in shard.events if ev.overlappable]
        for ev in sync:
            if ev.phase != "backward" or ev.collective != want_collective or ev.axis not in ("dp", "all"):
                report.add(
                    "routed/grad-sync",
                    f"overlappable event is {ev.phase}/{ev.collective}/{ev.axis}; "
                    f"gradient sync must be a backward {want_collective} on "
                    "dp or all"
                    + (
                        f" (plan has zero_stage={routed.plan.zero_stage})"
                        if routed.plan.zero_stage
                        else ""
                    ),
                    where=name,
                )
        expected = 1 if shard.local_parameters > 0 else 0
        if len(sync) != expected:
            report.add(
                "routed/grad-sync",
                f"{len(sync)} gradient-sync events for a shard with "
                f"{shard.local_parameters} local parameters (expected {expected})",
                where=name,
                hint="each trainable shard synchronises exactly once per step",
            )
        if expected == 1 and len(sync) == 1:
            split = shard.local_weight_bytes < shard.full_weight_bytes
            want_axis = "dp" if split else "all"
            if sync[0].axis != want_axis:
                report.add(
                    "routed/grad-sync",
                    f"gradient sync on axis {sync[0].axis!r}; "
                    f"{'split' if split else 'replicated'} weights sync on "
                    f"{want_axis!r}",
                    where=name,
                )


def _check_cost(
    routed: RoutedPlan,
    mesh: Mesh,
    config: Optional[CostConfig],
    report: VerificationReport,
) -> None:
    cfg = config or CostConfig()
    try:
        bd = CostModel(mesh, cfg).estimate(routed)
    except Exception as exc:  # mesh/degree mismatch already reported
        report.add(
            "routed/cost", f"cost model failed to price the plan: {exc}"
        )
        return
    for field_name in (
        "forward_compute",
        "backward_compute",
        "forward_comm",
        "backward_tp_comm",
        "gradient_comm",
        "weight_gather_comm",
        "overlapped_gradient_comm",
    ):
        value = getattr(bd, field_name)
        if value < 0:
            report.add(
                "routed/cost",
                f"negative cost term {field_name}={value}",
                hint="times and byte counts can never be negative",
            )
    if routed.plan.zero_stage == 0 and bd.weight_gather_comm != 0.0:
        report.add(
            "routed/cost",
            "plan with the ZeRO axis off prices weight-gather time "
            f"({bd.weight_gather_comm})",
            hint="all-gather of updated weights only exists at zero_stage >= 1",
        )
    if bd.overlapped_gradient_comm > bd.gradient_comm:
        report.add(
            "routed/cost",
            "overlap hides more gradient time than exists "
            f"({bd.overlapped_gradient_comm} > {bd.gradient_comm})",
        )
    if routed.plan.num_sharded == 0 or routed.tp_degree == 1:
        tp_events = [
            ev for ev in routed.events() if ev.axis == "tp"
        ]
        if tp_events or bd.forward_comm != 0 or bd.backward_tp_comm != 0:
            report.add(
                "routed/cost",
                "pure data-parallel plan prices nonzero TP communication "
                f"({len(tp_events)} tp events, fwd={bd.forward_comm}, "
                f"bwd={bd.backward_tp_comm})",
                hint="replicated patterns imply zero forward collectives",
            )


def _check_packing(
    stream: List[int],
    buckets,
    packing: PackingConfig,
    report: VerificationReport,
    where: str = "",
) -> None:
    if sum(b.nbytes for b in buckets) != sum(stream):
        report.add(
            "pack/conservation",
            f"buckets hold {sum(b.nbytes for b in buckets)} bytes; the "
            f"gradient stream has {sum(stream)}",
            where=where,
            hint="packing may regroup gradients but never drop or invent bytes",
        )
    if sum(b.num_tensors for b in buckets) != len(stream):
        report.add(
            "pack/coverage",
            f"buckets pack {sum(b.num_tensors for b in buckets)} tensors; "
            f"the stream has {len(stream)}",
            where=where,
            hint="every weight gradient is packed exactly once",
        )
    if packing.enabled:
        for i, b in enumerate(buckets):
            if b.num_tensors > 1 and b.nbytes > packing.chunk_bytes:
                report.add(
                    "pack/bucket-size",
                    f"fused bucket {i} holds {b.nbytes} bytes "
                    f"(> chunk cap {packing.chunk_bytes})",
                    where=where,
                    hint="only a single oversized tensor may exceed the cap",
                )
            if b.nbytes < 0 or b.num_tensors < 1:
                report.add(
                    "pack/conservation",
                    f"bucket {i} is degenerate ({b.nbytes} bytes, "
                    f"{b.num_tensors} tensors)",
                    where=where,
                )


def _grad_stream(routed: RoutedPlan) -> List[int]:
    return [
        ev.nbytes(1)
        for ev in routed.events("backward")
        if ev.overlappable
    ]


def _check_tapes(routed: RoutedPlan, report: VerificationReport) -> None:
    if not routed._sim_cache:
        return
    from ..simulator.columnar import columnar_tape_invariants

    for cache_key, compiled in routed._sim_cache.items():
        # Every entry must be a ColumnarTape; anything else is reported
        # as "not a ColumnarTape" rather than unpacked wrong.
        for problem in columnar_tape_invariants(routed, compiled):
            report.add(
                "sim/tape-columnar",
                problem,
                where=f"cache key {cache_key!r}",
                hint="drop the cached tape (clear _sim_cache) and re-simulate",
            )


def verify_routed(
    graph: NodeGraph,
    routed: RoutedPlan,
    mesh: Optional[Mesh] = None,
    config: Optional[CostConfig] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> VerificationReport:
    """Statically check a fully elaborated :class:`RoutedPlan`.

    Includes every :func:`verify_plan` rule, then cross-checks the routed
    artifact itself: topological coverage, the independent Algorithm-3
    layout propagation, conversion/event agreement, gradient-sync
    invariants, packing invariants, cost-model sanity (when *mesh* is
    given) and any cached simulation tapes.
    """
    report, layouts = _verify_plan_impl(graph, routed.plan, mesh, registry)
    report.rules_checked += 8

    _check_order(graph, routed, report)
    _check_layouts(routed, layouts, report)
    _check_conversions(graph, routed, report)
    _check_grad_sync(routed, report)
    if mesh is not None:
        _check_cost(routed, mesh, config, report)

    packing = (config.packing if config is not None else None) or PackingConfig()
    stream = _grad_stream(routed)
    _check_packing(stream, pack_gradients(stream, packing), packing, report)
    _check_tapes(routed, report)
    return report


# ---------------------------------------------------------------------------
# verify_rewrite
# ---------------------------------------------------------------------------

def _op_to_node(graph: NodeGraph) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    for node in graph:
        for op in node.ops:
            mapping[op.name] = node.name
    return mapping


def _parse_comm_name(name: str) -> Optional[Tuple[str, str, str]]:
    """``"{src}/{collective}_to_{layout}"`` → (src, collective, layout)."""
    idx = name.rfind("/")
    if idx < 0:
        return None
    src, tail = name[:idx], name[idx + 1 :]
    if "_to_" not in tail:
        return None
    collective, layout = tail.rsplit("_to_", 1)
    return src, collective, layout


def verify_rewrite(
    graph: NodeGraph,
    routed: RoutedPlan,
    rewrite,
    packing: Optional[PackingConfig] = None,
) -> VerificationReport:
    """Check collective legality of a :class:`RewriteResult`.

    Every resharding edge the cost model priced must carry exactly the
    collective it priced — no dropped, orphan or duplicated comm ops —
    and the gradient buckets must equal a fresh packing of the plan's
    backward stream.
    """
    from ..core.rewrite import COLLECTIVE_TO_OP

    report = VerificationReport(rules_checked=6)
    op_to_node = _op_to_node(graph)
    packing = packing or PackingConfig()

    comm_ops = [op for op in rewrite.graph if op.is_communication]
    #: (producer op, layout) → collectives spliced on that edge
    edges: Dict[Tuple[str, str], List[str]] = {}
    comm_names = set()

    for op in comm_ops:
        comm_names.add(op.name)
        parsed = _parse_comm_name(op.name)
        if parsed is not None and parsed[1] in COLLECTIVE_TO_OP:
            src_op, collective, layout = parsed
            src_node = op_to_node.get(src_op)
            claimed = (
                routed.conversions.get((src_node, layout))
                if src_node is not None
                else None
            )
            if src_node is None or claimed != collective:
                report.add(
                    "rewrite/orphan-comm",
                    f"comm op {op.name!r} splices {collective!r} on "
                    f"({src_op!r}, {layout}) but the plan claims {claimed!r}",
                    where=op.name,
                    hint="the rewritten graph drifted from the routed plan",
                )
            if op.op_type != COLLECTIVE_TO_OP[collective]:
                report.add(
                    "rewrite/orphan-comm",
                    f"comm op {op.name!r} has op_type {op.op_type!r}, "
                    f"expected {COLLECTIVE_TO_OP[collective]!r}",
                    where=op.name,
                )
            edges.setdefault((src_op, layout), []).append(collective)
            continue
        # pattern-level pre-comms: "{node}/{collective}_pre{i}"
        idx = op.name.rfind("/")
        tail = op.name[idx + 1 :] if idx >= 0 else op.name
        node_name = op.name[:idx] if idx >= 0 else ""
        base = tail.rsplit("_pre", 1)[0] if "_pre" in tail else None
        shard = routed.shards.get(node_name)
        pattern_comms = (
            [ev.collective for ev in shard.events
             if ev.phase == "forward" and not ev.src]
            if shard is not None
            else []
        )
        if base is None or base not in pattern_comms:
            report.add(
                "rewrite/orphan-comm",
                f"comm op {op.name!r} matches no conversion claim and no "
                "pattern-level forward collective",
                where=op.name,
                hint="only routed conversions and pattern comms insert "
                "communication ops",
            )

    for key, collectives in edges.items():
        if len(collectives) > 1:
            report.add(
                "rewrite/duplicate-comm",
                f"edge {key} carries {len(collectives)} collectives: "
                f"{collectives}",
                where=key[0],
                hint="one deduplicated conversion per (producer, layout)",
            )

    # dropped collectives: a consumer op reading straight across a node
    # boundary whose conversion the plan priced (a plan pricing none, such
    # as any pure data-parallel one, cannot drop one)
    priced = any(routed.conversions.values())
    for op in rewrite.graph if priced else ():
        if op.is_communication:
            continue
        node_name = op_to_node.get(op.name)
        shard = routed.shards.get(node_name) if node_name else None
        if shard is None:
            continue
        for src in op.inputs:
            if src in comm_names:
                continue
            src_node = op_to_node.get(src)
            if src_node is None or src_node == node_name:
                continue
            collective = routed.conversions.get((src_node, shard.input_layout))
            if collective:
                report.add(
                    "rewrite/missing-collective",
                    f"{op.name!r} consumes {src!r} directly, but the plan "
                    f"prices {collective!r} on that edge",
                    where=op.name,
                    hint="the rewriter must splice the collective the cost "
                    "model charged for",
                )

    spliced = sum(1 for op in comm_ops)
    if rewrite.num_comm_ops != spliced:
        report.add(
            "rewrite/count",
            f"rewrite reports {rewrite.num_comm_ops} comm ops; the graph "
            f"contains {spliced}",
        )

    stream = _grad_stream(routed)
    expected = pack_gradients(stream, packing)
    if list(rewrite.gradient_buckets) != list(expected):
        report.add(
            "pack/mismatch",
            f"rewrite carries {len(rewrite.gradient_buckets)} buckets that "
            f"differ from a fresh packing ({len(expected)} buckets)",
            hint="gradient buckets must be reproducible from the plan's "
            "backward stream",
        )
    _check_packing(stream, rewrite.gradient_buckets, packing, report)
    return report
