"""Tests for Algorithm 2 (plan derivation)."""

import pytest

from repro.cluster import Mesh, paper_testbed
from repro.graph import trim_auxiliary
from repro.core import (
    DEFAULT_REGISTRY,
    ShardingPlan,
    coarsen,
    decision_groups,
    derive_plan,
    iter_gray_plans,
)
from repro.models import MoEConfig, TransformerConfig, build_moe_transformer, build_t5


def nodes_for(graph):
    trimmed, _ = trim_auxiliary(graph)
    return coarsen(trimmed)


def block_plans(block, tp, max_plans=50_000):
    """Every candidate plan of *block*, in the search's Gray order."""
    groups = decision_groups(block, DEFAULT_REGISTRY, tp)
    return [
        ShardingPlan.of(assignment, tp)
        for assignment, _ in iter_gray_plans(groups, max_plans)
    ]


@pytest.fixture(scope="module")
def t5_nodes():
    return nodes_for(build_t5(TransformerConfig(encoder_layers=4, decoder_layers=4)))


@pytest.fixture(scope="module")
def t5_result(t5_nodes):
    # the paper's testbed (PCIe intra-node): where FFN-only wins (§6.4.2)
    return derive_plan(t5_nodes, paper_testbed())


class TestEnumeration:
    def test_transformer_block_yields_729(self, t5_nodes):
        """Paper §6.3.1: 3 choices x 6 weight groups = 729 candidates."""
        members = [n.name for n in t5_nodes if "encoder/layer_0" in n.name]
        block = t5_nodes.subgraph(members)
        plans = block_plans(block, 8)
        assert len(plans) == 729

    def test_decoder_ties_cross_attention(self, t5_nodes):
        """mha and cross_mha share decisions, so a decoder block is also 729."""
        members = [n.name for n in t5_nodes if "decoder/layer_0" in n.name]
        block = t5_nodes.subgraph(members)
        plans = block_plans(block, 8)
        assert len(plans) == 729

    def test_first_plan_is_all_replicate(self, t5_nodes):
        members = [n.name for n in t5_nodes if "encoder/layer_0" in n.name]
        block = t5_nodes.subgraph(members)
        first = block_plans(block, 8)[0]
        assert first.num_sharded == 0

    def test_max_plans_cap(self, t5_nodes):
        members = [n.name for n in t5_nodes if "encoder/layer_0" in n.name]
        block = t5_nodes.subgraph(members)
        plans = block_plans(block, 8, max_plans=10)
        assert len(plans) == 10

    def test_tp1_single_plan(self, t5_nodes):
        members = [n.name for n in t5_nodes if "encoder/layer_0" in n.name]
        block = t5_nodes.subgraph(members)
        plans = block_plans(block, 1)
        assert len(plans) == 1


class TestDerivePlan:
    def test_finds_valid_plan(self, t5_result):
        assert t5_result.plan is not None
        assert t5_result.cost < float("inf")

    def test_best_is_ffn_only(self, t5_result):
        """Paper §6.4.2: within the transformer layers, the winning plan
        shards only the feed-forward pair (embeddings outside the shared
        blocks may additionally shard via the uncovered-block search)."""
        layer_sharded = {
            k: v
            for k, v in t5_result.plan.as_dict.items()
            if v != "replicate" and "/layer_" in k
        }
        assert layer_sharded, "expected a tensor-parallel winner"
        assert all("ffn/" in k for k in layer_sharded)
        assert t5_result.tp_degree == 8

    def test_plan_broadcast_to_all_instances(self, t5_result):
        sharded = [
            k for k, v in t5_result.plan.as_dict.items()
            if v != "replicate" and "/layer_" in k
        ]
        layers = {k.split("/layer_")[1].split("/")[0] for k in sharded}
        assert layers == {"0", "1", "2", "3"}

    def test_candidate_count(self, t5_result):
        # 1 (tp=1) x 2 families + 729 x 2 families x 2 tp degrees, plus a
        # handful of uncovered-block (embedding/head) candidates
        base = 2 + 729 * 4
        assert base <= t5_result.candidates_examined <= base + 50

    def test_valid_less_than_candidates(self, t5_result):
        assert 0 < t5_result.valid_plans < t5_result.candidates_examined

    def test_search_time_recorded(self, t5_result):
        assert t5_result.search_seconds > 0

    def test_tp_degree_validation(self, t5_nodes):
        with pytest.raises(ValueError, match="divide"):
            derive_plan(t5_nodes, Mesh(2, 8), tp_degrees=[5])

    def test_restricted_tp_degrees(self, t5_nodes):
        res = derive_plan(t5_nodes, Mesh(2, 8), tp_degrees=[1])
        assert res.tp_degree == 1
        assert res.plan.num_sharded == 0

    def test_pruning_off_searches_whole_graph(self, t5_nodes):
        res = derive_plan(
            t5_nodes, Mesh(1, 2), tp_degrees=[2], use_pruning=False,
            max_plans_per_block=200,
        )
        assert not res.prune.families or res.prune.nodes_after == res.prune.nodes_before
        assert res.plan is not None

    def test_single_device_mesh(self, t5_nodes):
        res = derive_plan(t5_nodes, Mesh(1, 1))
        assert res.tp_degree == 1
        assert res.plan.num_sharded == 0


class TestMoESearch:
    def test_expert_parallelism_discovered(self):
        ng = nodes_for(
            build_moe_transformer(
                MoEConfig(num_layers=4, num_experts=16, moe_every=1, hidden=256,
                          ffn_dim=1024, num_heads=4, vocab=1024)
            )
        )
        res = derive_plan(ng, Mesh(2, 8), tp_degrees=[1, 8])
        patterns = set(res.plan.as_dict.values())
        # expert or dense sharding must appear at tp=8... unless DP wins;
        # at minimum the search must complete and produce a routable plan
        assert res.valid_plans > 0
        assert res.routed is not None


class TestSublinearity:
    def test_search_time_flat_in_depth(self):
        """Fig. 9's mechanism: deeper models do not enlarge the search."""
        mesh = Mesh(2, 8)
        shallow = derive_plan(
            nodes_for(build_t5(TransformerConfig(
                encoder_layers=2, decoder_layers=2, hidden=256, ffn_dim=1024,
                num_heads=4, vocab=1024))),
            mesh,
        )
        deep = derive_plan(
            nodes_for(build_t5(TransformerConfig(
                encoder_layers=8, decoder_layers=8, hidden=256, ffn_dim=1024,
                num_heads=4, vocab=1024))),
            mesh,
        )
        assert deep.candidates_examined == shallow.candidates_examined
