"""Tests for named expert plans."""

import pytest

from repro.cluster import paper_testbed
from repro.graph import trim_auxiliary
from repro.core import DEFAULT_REGISTRY, coarsen, route_plan
from repro.baselines import (
    dp_plan,
    ffn_only_plan,
    megatron_plan,
    mha_only_plan,
    plan_from_suffixes,
)
from repro.models import TransformerConfig, build_t5


@pytest.fixture(scope="module")
def t5_nodes():
    g = build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2))
    trimmed, _ = trim_auxiliary(g)
    return coarsen(trimmed)


class TestNamedPlans:
    def test_dp_plan(self, t5_nodes):
        plan = dp_plan(t5_nodes)
        assert plan.tp_degree == 1
        assert plan.num_sharded == 0

    def test_megatron_shards_six_weights_per_layer(self, t5_nodes):
        plan = megatron_plan(t5_nodes, 8)
        per_layer = [
            k for k in plan.as_dict if "encoder/layer_0" in k
        ]
        assert len(per_layer) == 6

    def test_megatron_with_embedding(self, t5_nodes):
        plan = megatron_plan(t5_nodes, 8, shard_embedding=True)
        embeds = {k: v for k, v in plan.as_dict.items() if k.endswith("/embed")}
        assert embeds and all(v == "split_vocab" for v in embeds.values())

    def test_all_named_plans_route(self, t5_nodes):
        for plan in (
            dp_plan(t5_nodes),
            mha_only_plan(t5_nodes, 8),
            ffn_only_plan(t5_nodes, 8),
            megatron_plan(t5_nodes, 8),
            megatron_plan(t5_nodes, 8, shard_embedding=True),
        ):
            route_plan(t5_nodes, plan, DEFAULT_REGISTRY)

    def test_mha_only_covers_cross_attention(self, t5_nodes):
        plan = mha_only_plan(t5_nodes, 8)
        cross = [k for k in plan.as_dict if "cross_mha" in k]
        assert len(cross) == 2 * 4  # 2 decoder layers x q,k,v,o

    def test_suffix_plan_names(self, t5_nodes):
        plan = plan_from_suffixes(t5_nodes, {"ffn/output": "split_row"}, 4, "x")
        assert plan.name == "x"
        assert all(v == "split_row" for v in plan.as_dict.values())


class TestPlanOrdering:
    def test_paper_testbed_comm_cost_ordering(self, t5_nodes):
        """On the paper's testbed, FFN-only < MHA-only < Megatron in
        communication cost (the Fig. 6 / §6.4.2 story)."""
        from repro.core import CostModel

        mesh = paper_testbed()
        cm = CostModel(mesh)
        costs = {}
        for plan in (
            ffn_only_plan(t5_nodes, 8),
            mha_only_plan(t5_nodes, 8),
            megatron_plan(t5_nodes, 8),
        ):
            routed = route_plan(t5_nodes, plan, DEFAULT_REGISTRY)
            costs[plan.name] = cm.plan_cost(routed)
        assert costs["ffn_only"] < costs["mha_only"]
        assert costs["ffn_only"] < costs["megatron"]
