"""Tests for Algorithm 3 (pattern routing)."""

import pytest

from repro.graph import trim_auxiliary
from repro.core import (
    DEFAULT_REGISTRY,
    Layout,
    RoutingError,
    ShardingPlan,
    coarsen,
    route_plan,
)
from repro.models import TransformerConfig, build_t5


@pytest.fixture(scope="module")
def layer_block():
    """One encoder-layer block extracted via pruning."""
    g = build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2))
    trimmed, _ = trim_auxiliary(g)
    ng = coarsen(trimmed)
    members = [n.name for n in ng if "encoder/layer_0" in n.name]
    return ng.subgraph(members)


def assign(block, pattern_by_suffix, tp=8):
    """Build a plan assigning patterns by node-name suffix."""
    mapping = {}
    for node in block.weight_nodes():
        for suffix, pattern in pattern_by_suffix.items():
            if node.name.endswith(suffix):
                mapping[node.name] = pattern
    return ShardingPlan.of(mapping, tp_degree=tp)


MEGATRON = {
    "mha/q": "split_col", "mha/k": "split_col", "mha/v": "split_col",
    "mha/o": "split_row",
    "ffn/intermediate": "split_col", "ffn/output": "split_row",
}
FFN_ONLY = {"ffn/intermediate": "split_col", "ffn/output": "split_row"}
MHA_ONLY = {
    "mha/q": "split_col", "mha/k": "split_col", "mha/v": "split_col",
    "mha/o": "split_row",
}


class TestValidPlans:
    def test_pure_dp_valid(self, layer_block):
        routed = route_plan(layer_block, ShardingPlan.of({}, 1), DEFAULT_REGISTRY)
        assert all(s.output_layout == Layout.D for s in routed.shards.values())

    def test_megatron_valid(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, MEGATRON), DEFAULT_REGISTRY)
        o = routed.shards[[n for n in routed.order if n.endswith("mha/o")][0]]
        assert o.pattern == "split_row"
        assert o.output_layout == Layout.P

    def test_ffn_only_valid(self, layer_block):
        route_plan(layer_block, assign(layer_block, FFN_ONLY), DEFAULT_REGISTRY)

    def test_mha_only_valid(self, layer_block):
        route_plan(layer_block, assign(layer_block, MHA_ONLY), DEFAULT_REGISTRY)


class TestInvalidPlans:
    def test_partial_under_nonlinearity_rejected(self, layer_block):
        # split_row on the intermediate leaves the GELU on a partial value
        plan = assign(layer_block, {"ffn/intermediate": "split_row"})
        with pytest.raises(RoutingError, match="nonlinearity"):
            route_plan(layer_block, plan, DEFAULT_REGISTRY)

    def test_indivisible_split_rejected(self, layer_block):
        plan = assign(layer_block, FFN_ONLY, tp=3)  # 4096 % 3 != 0
        with pytest.raises(RoutingError, match="not applicable"):
            route_plan(layer_block, plan, DEFAULT_REGISTRY)

    def test_unknown_pattern_rejected(self, layer_block):
        node = layer_block.weight_nodes()[0]
        plan = ShardingPlan.of({node.name: "split_diagonal"}, 8)
        with pytest.raises(RoutingError):
            route_plan(layer_block, plan, DEFAULT_REGISTRY)


class TestLayoutPropagation:
    def test_megatron_layout_chain(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, MEGATRON), DEFAULT_REGISTRY)
        by_suffix = {
            n.rsplit("layer_0", 1)[-1]: routed.shards[n] for n in routed.order
        }
        assert by_suffix["/mha/q"].output_layout == Layout.S
        assert by_suffix["/mha"].output_layout == Layout.S  # attention inner
        assert by_suffix["/mha/o"].output_layout == Layout.P
        # the residual add resolves the partial value (inside an isolated
        # block its only live input is the partial, so it reduces to R; in
        # the full graph the data-parallel skip connection pulls it to D —
        # covered by test_full_graph_residual_returns_to_dp)
        assert by_suffix[""].input_layout in (Layout.R, Layout.D)
        assert by_suffix[""].output_layout != Layout.P

    def test_full_graph_residual_returns_to_dp(self):
        g = build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2))
        trimmed, _ = trim_auxiliary(g)
        ng = coarsen(trimmed)
        mapping = {
            n.name: "split_col" if n.name.endswith(("ffn/intermediate",))
            else "split_row"
            for n in ng.weight_nodes()
            if n.name.endswith(("ffn/intermediate", "ffn/output"))
        }
        routed = route_plan(ng, ShardingPlan.of(mapping, 8), DEFAULT_REGISTRY)
        residual = routed.shards["t5/encoder/layer_0#1"]
        # the skip connection is data-parallel, so the partial FFN output is
        # reduce-scattered straight back to D
        assert residual.input_layout == Layout.D

    def test_dp_sections_token_split(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, FFN_ONLY), DEFAULT_REGISTRY)
        q = [n for n in routed.order if n.endswith("mha/q")][0]
        assert routed.shards[q].output_layout == Layout.D
        assert routed.shards[q].compute_share == pytest.approx(1 / 8)


class TestCommEvents:
    def test_ffn_only_boundary_comms(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, FFN_ONLY), DEFAULT_REGISTRY)
        fwd = [e.collective for e in routed.events("forward")]
        # one D->R all_gather entering the FFN, one P->D reduce_scatter leaving
        assert fwd.count("all_gather") == 1
        assert fwd.count("reduce_scatter") == 1

    def test_megatron_has_double_the_boundary_comms(self, layer_block):
        ffn = route_plan(layer_block, assign(layer_block, FFN_ONLY), DEFAULT_REGISTRY)
        meg = route_plan(layer_block, assign(layer_block, MEGATRON), DEFAULT_REGISTRY)
        assert len(meg.events("forward")) == 2 * len(ffn.events("forward"))

    def test_gradient_sync_axes(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, FFN_ONLY), DEFAULT_REGISTRY)
        grad_events = [
            e for e in routed.events("backward") if e.overlappable
        ]
        axes = {e.node.rsplit("/", 1)[-1]: e.axis for e in grad_events}
        assert axes["q"] == "all"            # replicated weight: sync everywhere
        assert axes["intermediate"] == "dp"  # sharded weight: sync across replicas

    def test_pure_dp_has_no_tp_comms(self, layer_block):
        routed = route_plan(layer_block, ShardingPlan.of({}, 1), DEFAULT_REGISTRY)
        assert not [e for e in routed.events() if e.axis == "tp"]

    def test_column_parallel_backward_reduction_present(self, layer_block):
        """The Megatron f operator: column-parallel weights produce partial
        input gradients.  Routing folds the reduction into the inbound hop
        (a reduce_scatter back to the producer's D layout) and marks the
        shard, instead of double-charging a separate all_reduce."""
        routed = route_plan(layer_block, assign(layer_block, MEGATRON), DEFAULT_REGISTRY)
        col_shards = [
            routed.shards[n]
            for n in routed.order
            if n.endswith(("mha/q", "mha/k", "mha/v", "ffn/intermediate"))
        ]
        assert col_shards and all(s.bwd_input_reduction for s in col_shards)
        bwd_reductions = [
            e
            for e in routed.events("backward")
            if e.axis == "tp" and e.collective in ("reduce_scatter", "all_reduce")
        ]
        assert len(bwd_reductions) >= 2  # one per deduplicated producer hop


class TestShardAccounting:
    def test_split_halves_weight_bytes(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, FFN_ONLY, tp=8), DEFAULT_REGISTRY)
        inter = [n for n in routed.order if n.endswith("ffn/intermediate")][0]
        s = routed.shards[inter]
        assert s.local_weight_bytes * 8 == pytest.approx(s.full_weight_bytes, rel=0.01)

    def test_replicated_keeps_full_bytes(self, layer_block):
        routed = route_plan(layer_block, assign(layer_block, FFN_ONLY, tp=8), DEFAULT_REGISTRY)
        q = [n for n in routed.order if n.endswith("mha/q")][0]
        s = routed.shards[q]
        assert s.local_weight_bytes == s.full_weight_bytes

    def test_flops_recorded(self, layer_block):
        routed = route_plan(layer_block, ShardingPlan.of({}, 1), DEFAULT_REGISTRY)
        assert any(s.flops > 0 for s in routed.shards.values())
