"""Block-granular winner materialisation against the per-node walk.

``route_plan`` routes one instance of each repeated block and stamps the
others by renaming when they enter in the same state; ``walk_plan`` walks
every GraphNode and is the oracle.  Everything downstream — the routed
document, the rewritten graph, the cost breakdown and the verification
report — must come out the same whichever routing produced the plan.
"""

import dataclasses
import hashlib

import pytest

from repro.baselines import NAMED_PLANS
from repro.core import (
    CostConfig,
    CostModel,
    DEFAULT_REGISTRY,
    RoutingError,
    ShardingPlan,
    coarsen,
    plan_request,
    rewrite_graph,
    route_plan,
    routed_to_json,
    split,
)
from repro.core.pruning import prune_graph
from repro.core.routing import walk_plan
from repro.graph import OpType, TensorSpec, trim_auxiliary
from repro.models import MODEL_PRESETS, TransformerConfig, build_preset, build_t5
from repro.models.builder import GraphBuilder
from repro.verify import verify_rewrite, verify_routed

CONFIG = CostConfig(batch_tokens=4096)
MESHES = ("1x8", "2x8", "4x4")

#: the tier-1 subset of the zoo sweep; the full sweep is marked slow
FAST_CASES = [
    ("gpt3_like", "1x8", 0),
    ("t5_large", "2x8", 1),
    ("clip_base", "4x4", 0),
    ("resnet50", "2x8", 0),
    ("switch_like", "2x8", 1),
]
ALL_CASES = [
    (preset, mesh, zero)
    for preset in sorted(MODEL_PRESETS)
    for mesh in MESHES
    for zero in (0, 1)
]


def _materialise(trimmed, record, ng, mesh, routed):
    """(routed-doc digest, rewritten graph, breakdown, report) of a plan."""
    doc = routed_to_json(routed)
    rewrite = rewrite_graph(trimmed, ng, routed, trim_record=record,
                            packing=CONFIG.packing)
    graph = [
        (op.name, op.op_type, op.inputs, op.output, op.weight, op.trainable,
         op.flops, op.attrs)
        for op in rewrite.graph
    ]
    report = verify_routed(ng, routed, mesh, CONFIG)
    report.extend(verify_rewrite(ng, routed, rewrite, packing=CONFIG.packing))
    return (
        hashlib.sha256(doc.encode()).hexdigest(),
        hashlib.sha256(routed_to_json(routed, None).encode()).hexdigest(),
        graph,
        rewrite.num_comm_ops,
        rewrite.gradient_buckets,
        rewrite.local_weights,
        CostModel(mesh, CONFIG).estimate(routed),
        repr(report),
    )


def _check_case(preset, mesh_shape, zero):
    mesh = split([int(d) for d in mesh_shape.split("x")])
    trimmed, record = trim_auxiliary(build_preset(preset))
    ng = coarsen(trimmed)
    plan = plan_request(ng, mesh, CONFIG, zero_stage=zero).plan
    fast = route_plan(ng, plan, DEFAULT_REGISTRY)
    oracle = walk_plan(ng, plan, DEFAULT_REGISTRY)
    assert not oracle._stamps
    assert fast == oracle
    assert list(fast.conversions.items()) == list(oracle.conversions.items())
    assert _materialise(trimmed, record, ng, mesh, fast) == _materialise(
        trimmed, record, ng, mesh, oracle
    )
    return fast


@pytest.mark.parametrize("preset,mesh,zero", FAST_CASES)
def test_zoo_subset_matches_the_walk(preset, mesh, zero):
    fast = _check_case(preset, mesh, zero)
    # every case in the subset repeats a block, so something was stamped
    assert fast._stamps


@pytest.mark.slow
@pytest.mark.parametrize("preset,mesh,zero", ALL_CASES)
def test_zoo_sweep_matches_the_walk(preset, mesh, zero):
    _check_case(preset, mesh, zero)


# ---------------------------------------------------------------------------
# fallback fixtures: instances the copier must walk
# ---------------------------------------------------------------------------

def _prepared(graph):
    trimmed, _ = trim_auxiliary(graph)
    ng = coarsen(trimmed)
    prune_graph(ng)  # memoised on the graph, as the search leaves it
    return ng


def _both(ng, plan):
    fast = route_plan(ng, plan, DEFAULT_REGISTRY)
    oracle = walk_plan(ng, plan, DEFAULT_REGISTRY)
    assert fast == oracle
    assert list(fast.conversions.items()) == list(oracle.conversions.items())
    assert routed_to_json(fast) == routed_to_json(oracle)
    return fast


def _rewired_stack():
    """Five two-node layers of the same composition; layer 2's second
    node reads the layer input instead of the first node."""
    b = GraphBuilder("rewired")
    h = b.input("x", (-1, 16))
    for i in range(5):
        with b.scope("blk"), b.scope(f"layer_{i}"):
            first = b.dense("fc1", h, 16, 16)
            h = b.dense("fc2", h if i == 2 else first, 16, 16)
    return b.graph


def test_same_composition_other_wiring_is_walked():
    ng = _prepared(_rewired_stack())
    (family,) = prune_graph(ng).families
    assert family.multiplicity == 5  # the fingerprint ignores wiring
    fast = _both(ng, ShardingPlan.of({}, 2))
    layer = "blk/layer_{}/{}".format
    # layer 1 repeats layer 0; layer 2 is wired apart, and layer 3, whose
    # previous instance is layer 2, is walked too; layer 4 repeats 3
    assert fast._stamps == {
        layer(1, "fc1"): layer(0, "fc1"), layer(1, "fc2"): layer(0, "fc2"),
        layer(4, "fc1"): layer(3, "fc1"), layer(4, "fc2"): layer(3, "fc2"),
    }


def _alternating_stack():
    """Each layer is entered from a unique node whose pattern alternates,
    so the entry layouts never settle."""
    b = GraphBuilder("alternating")
    h = b.input("x", (-1, 16))
    for i, pre in enumerate(("alpha", "beta", "gamma", "delta", "epsilon")):
        h = b.dense(pre, h, 16, 16)
        with b.scope("blk"), b.scope(f"layer_{i}"):
            h = b.dense("fc", h, 16, 16, activation="gelu")
    return b.graph


def test_entry_state_that_never_settles_is_walked():
    ng = _prepared(_alternating_stack())
    assert prune_graph(ng).families[0].multiplicity == 5
    plan = ShardingPlan.of(
        {"alpha": "split_col", "gamma": "split_col", "epsilon": "split_col"},
        2,
    )
    fast = _both(ng, plan)
    assert fast._stamps == {}
    # every layer converts its own entry (S from a split_col, D otherwise)
    assert sum(src.startswith("blk/") for src, _ in fast.conversions) == 2


def _shared_producer_stack():
    """Every layer projects one shared tensor; the first layer to need it
    in another layout claims the conversion for all later ones."""
    b = GraphBuilder("shared")
    x = b.input("x", (-1, 16))
    shared = b.dense("embed", x, 16, 16)
    h = x
    for i in range(4):
        with b.scope("blk"), b.scope(f"layer_{i}"):
            proj = b.dense("proj", shared, 16, 16)
            with b.scope("mix"):
                h = b.emit("add", OpType.ADD, inputs=(h, proj),
                           output=TensorSpec((-1, 16)), flops=16)
    return b.graph


def test_conversion_claimed_by_an_earlier_instance_is_not_copied():
    ng = _prepared(_shared_producer_stack())
    fast = _both(ng, ShardingPlan.of({"embed": "split_col"}, 2))
    # layer 0 claims embed's conversion; layer 1 enters with it claimed,
    # so it is walked (a copy of layer 0 would convert a second time);
    # layers 2 and 3 enter like layer 1 and are stamped from it
    assert [key for key in fast.conversions if key[0] == "embed"] == [
        ("embed", "D")
    ]
    owners = [
        name for name in fast.order
        if any(ev.src == "embed" for ev in fast.shards[name].events)
    ]
    assert owners == ["blk/layer_0/proj"]
    assert sorted(fast._stamps) == [
        "blk/layer_2/mix", "blk/layer_2/proj",
        "blk/layer_3/mix", "blk/layer_3/proj",
    ]
    assert set(fast._stamps.values()) == {"blk/layer_1/mix", "blk/layer_1/proj"}


def test_without_a_memoised_prune_the_walk_runs():
    trimmed, _ = trim_auxiliary(_rewired_stack())
    ng = coarsen(trimmed)
    assert route_plan(ng, ShardingPlan.of({}, 2), DEFAULT_REGISTRY)._stamps == {}


def test_routing_errors_match_the_walk():
    ng = _prepared(_alternating_stack())
    plan = ShardingPlan.of({"blk/layer_3/fc": "no_such_pattern"}, 2)
    with pytest.raises(RoutingError) as fast:
        route_plan(ng, plan, DEFAULT_REGISTRY)
    with pytest.raises(RoutingError) as oracle:
        walk_plan(ng, plan, DEFAULT_REGISTRY)
    assert str(fast.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# the verifier reads the artifact, never the stamp record
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_t5():
    graph = build_t5(TransformerConfig(encoder_layers=4, decoder_layers=4,
                                       hidden=64, ffn_dim=128, num_heads=4,
                                       vocab=128))
    trimmed, _ = trim_auxiliary(graph)
    ng = coarsen(trimmed)
    mesh = split([2, 4])
    plan = NAMED_PLANS["megatron"](ng, 4)
    prune_graph(ng)
    return ng, mesh, plan


def _drop_layout(shard):
    shard.output_layout = "S" if shard.output_layout != "S" else "P"


def _swap_collective(shard):
    ev = shard.events[-1]
    other = "all_reduce" if ev.collective != "all_reduce" else "reduce_scatter"
    shard.events[-1] = dataclasses.replace(ev, collective=other)


def _rename_grads(shard):
    i = next(i for i, e in enumerate(shard.events) if e.overlappable)
    ev = shard.events[i]
    shard.events[i] = dataclasses.replace(
        ev, spec=TensorSpec(ev.spec.shape, ev.spec.dtype, "renamed")
    )


def _unsplit_local_bytes(shard):
    # a split weight claiming its full size syncs on the wrong axis
    shard.local_weight_bytes = shard.full_weight_bytes


def _drop_event(shard):
    shard.events.pop()


MUTATIONS = {
    "layout": _drop_layout,
    "collective": _swap_collective,
    "grad-spec-name": _rename_grads,
    "local-bytes": _unsplit_local_bytes,
    "drop-event": _drop_event,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_copy_reports_as_the_walk_does(small_t5, mutation):
    ng, mesh, plan = small_t5
    fast = route_plan(ng, plan, DEFAULT_REGISTRY)
    oracle = walk_plan(ng, plan, DEFAULT_REGISTRY)
    # a stamped shard that carries a gradient sync and split weights
    victim = next(
        name for name in fast._stamps
        if fast.shards[name].local_parameters
        and fast.shards[name].local_weight_bytes
        < fast.shards[name].full_weight_bytes
    )
    for routed in (fast, oracle):
        MUTATIONS[mutation](routed.shards[victim])
    got = verify_routed(ng, fast, mesh, CONFIG)
    want = verify_routed(ng, oracle, mesh, CONFIG)
    assert repr(got) == repr(want)
    if mutation != "grad-spec-name":  # no rule reads the gradient's name
        assert not got.ok


def test_copies_carry_every_field():
    """The copy helpers set fields one by one; a field added to either
    dataclass must be copied too."""
    from repro.core.plan import NodeShard
    from repro.graph import Operator

    spec = TensorSpec((-1, 4))
    op = Operator("a", "matmul", ("x",), spec, TensorSpec((4, 4)),
                  attrs={"k": 1})
    copy = op.rewired(("y",), None)
    assert set(vars(copy)) == {f.name for f in dataclasses.fields(Operator)}
    assert copy.attrs == op.attrs and copy.attrs is not op.attrs
    shard = NodeShard("a", "matmul", "p", "D", "S", output_spec=spec)
    assert set(vars(shard.renamed("b", spec, []))) == {
        f.name for f in dataclasses.fields(NodeShard)
    }
