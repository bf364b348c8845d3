"""Fuzzing the routing/validation layer with hypothesis.

Algorithm 3 sits between an exponential candidate space and everything
downstream, so it must be total: for ANY pattern assignment over ANY zoo
block, `route_plan` either returns a consistent RoutedPlan or raises
RoutingError — never crashes, never returns a plan whose accounting
violates the invariants below.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_REGISTRY,
    Layout,
    RoutingError,
    ShardingPlan,
    coarsen,
    route_plan,
)
from repro.core.patterns import CONVERSIONS
from repro.graph import trim_auxiliary
from repro.models import (
    MoEConfig,
    TransformerConfig,
    build_moe_transformer,
    build_resnet,
    build_t5,
    ResNetConfig,
)


def _block(graph, marker):
    trimmed, _ = trim_auxiliary(graph)
    ng = coarsen(trimmed)
    members = [n.name for n in ng if marker in n.name]
    return ng.subgraph(members) if members else ng


BLOCKS = {
    "t5_layer": _block(
        build_t5(TransformerConfig(encoder_layers=1, decoder_layers=1,
                                   hidden=64, ffn_dim=128, num_heads=4,
                                   vocab=128)),
        "encoder/layer_0",
    ),
    "resnet_stage": _block(
        build_resnet(ResNetConfig(num_classes=64, base_channels=8)),
        "stage_1",
    ),
    "moe_layer": _block(
        build_moe_transformer(
            MoEConfig(num_layers=2, num_experts=4, moe_every=1, hidden=64,
                      ffn_dim=128, num_heads=4, vocab=128)
        ),
        "layer_1",
    ),
}

ALL_PATTERNS = [
    "replicate", "split_col", "split_row", "split_cout", "split_cin",
    "split_vocab", "split_hidden", "split_expert", "nonsense_pattern",
]


@st.composite
def random_assignments(draw):
    block_name = draw(st.sampled_from(sorted(BLOCKS)))
    block = BLOCKS[block_name]
    weight_nodes = [n.name for n in block.weight_nodes()]
    assignment = {}
    for name in weight_nodes:
        if draw(st.booleans()):
            assignment[name] = draw(st.sampled_from(ALL_PATTERNS))
    tp = draw(st.sampled_from([1, 2, 4]))
    return block, ShardingPlan.of(assignment, tp)


@given(random_assignments())
@settings(max_examples=200, deadline=None)
def test_routing_is_total(case):
    """Any assignment either routes cleanly or raises RoutingError."""
    block, plan = case
    try:
        routed = route_plan(block, plan, DEFAULT_REGISTRY)
    except RoutingError:
        return
    # --- invariants of a successfully routed plan -------------------
    assert set(routed.order) == {n.name for n in block}
    for name in routed.order:
        shard = routed.shards[name]
        # layouts are from the vocabulary
        assert shard.input_layout in Layout.ALL
        assert shard.output_layout in Layout.ALL
        # weight accounting never exceeds the full size
        assert 0 <= shard.local_weight_bytes <= shard.full_weight_bytes
        # compute share in (0, 1]
        assert 0.0 < shard.compute_share <= 1.0
        # every event references a known collective and axis
        for ev in shard.events:
            assert ev.axis in ("tp", "dp", "all")
            assert ev.phase in ("forward", "backward")
    # conversions table only contains hops the table allows
    for (src, dst), coll in routed.conversions.items():
        assert (  # the recorded hop must be a legal transition
            (_layout_of(routed, src), dst) in CONVERSIONS
        )


def _layout_of(routed, node_name):
    return routed.shards[node_name].output_layout


@given(random_assignments())
@settings(max_examples=100, deadline=None)
def test_replicate_projection_always_routes(case):
    """Projecting any assignment to all-replicate must always route (the
    paper's fallback guarantee, §3.4)."""
    block, plan = case
    fallback = ShardingPlan.of({}, 1)
    routed = route_plan(block, fallback, DEFAULT_REGISTRY)
    assert all(
        s.output_layout == Layout.D for s in routed.shards.values()
    )


@given(random_assignments())
@settings(max_examples=100, deadline=None)
def test_cost_model_total_on_routable_plans(case):
    """Whatever routes must also be priceable (finite, non-negative)."""
    from repro.cluster import Mesh
    from repro.core import CostModel

    block, plan = case
    try:
        routed = route_plan(block, plan, DEFAULT_REGISTRY)
    except RoutingError:
        return
    mesh = Mesh(1, 4)
    if mesh.num_devices % plan.tp_degree != 0:
        return
    cm = CostModel(mesh)
    bd = cm.estimate(routed)
    for value in bd.as_dict().values():
        assert value >= 0.0
        assert value < float("inf")


# ---------------------------------------------------------------------------
# block-granular routing: stamped instances equal the per-node walk
# ---------------------------------------------------------------------------

def _stack():
    from repro.core.pruning import prune_graph

    graph = build_t5(TransformerConfig(encoder_layers=3, decoder_layers=3,
                                       hidden=64, ffn_dim=128, num_heads=4,
                                       vocab=128))
    trimmed, _ = trim_auxiliary(graph)
    ng = coarsen(trimmed)
    # routing stamps repeated instances only when the graph carries a
    # memoised prune result, as a searched graph does
    return ng, prune_graph(ng).families


STACK, FAMILIES = _stack()


@st.composite
def stack_plans(draw):
    """Non-winner plans over every layer: per family a drawn template
    assignment broadcast to all instances, then random per-node
    overrides, so instances sometimes match and sometimes do not."""
    assignment = {}
    for family in FAMILIES:
        template = family.member_nodes[0]
        weights = [n for n in template if STACK.node(n).weights]
        picks = {
            i: draw(st.sampled_from(["replicate", "split_col", "split_row"]))
            for i, n in enumerate(template)
            if n in weights and draw(st.booleans())
        }
        for members in family.member_nodes:
            for i, pattern in picks.items():
                assignment[members[i]] = pattern
    overrides = draw(st.lists(
        st.tuples(st.sampled_from([n.name for n in STACK.weight_nodes()]),
                  st.sampled_from(ALL_PATTERNS)),
        max_size=2,
    ))
    assignment.update(overrides)
    tp = draw(st.sampled_from([1, 2, 4]))
    zero = draw(st.sampled_from([0, 1]))
    return ShardingPlan.of(assignment, tp, zero_stage=zero)


@given(stack_plans())
@settings(max_examples=150, deadline=None)
def test_block_routing_equals_the_walk(plan):
    """route_plan's stamped instances are exactly what walk_plan routes,
    for winners and non-winners alike — or both raise the same error."""
    from repro.cluster import Mesh
    from repro.core import CostModel, routed_to_json
    from repro.core.routing import walk_plan

    try:
        oracle = walk_plan(STACK, plan, DEFAULT_REGISTRY)
    except RoutingError as exc:
        with pytest.raises(RoutingError) as got:
            route_plan(STACK, plan, DEFAULT_REGISTRY)
        assert str(got.value) == str(exc)
        return
    routed = route_plan(STACK, plan, DEFAULT_REGISTRY)
    assert routed == oracle
    assert list(routed.conversions.items()) == list(oracle.conversions.items())
    assert routed_to_json(routed) == routed_to_json(oracle)
    cm = CostModel(Mesh(1, 4))
    assert cm.estimate(routed) == CostModel(Mesh(1, 4)).estimate(oracle)
