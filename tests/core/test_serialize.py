"""Tests for plan serialisation."""

import json

import pytest

from repro.baselines import megatron_plan
from repro.cluster import paper_testbed
from repro.core import (
    DEFAULT_REGISTRY,
    CostConfig,
    PlanLoadError,
    ShardingPlan,
    coarsen,
    load_plan,
    load_routed,
    plan_from_json,
    plan_to_json,
    route_plan,
    routed_from_json,
    routed_to_json,
    save_plan,
    save_routed,
)
from repro.graph import trim_auxiliary
from repro.models import TransformerConfig, build_t5
from repro.simulator import simulate_iteration
from repro.verify import verify_plan


@pytest.fixture(scope="module")
def t5_nodes():
    g = build_t5(TransformerConfig(encoder_layers=1, decoder_layers=1))
    trimmed, _ = trim_auxiliary(g)
    return coarsen(trimmed)


def sample_plan(t5_nodes):
    node = t5_nodes.weight_nodes()[3]
    return ShardingPlan.of({node.name: "split_col"}, 8, name="sample")


class TestRoundTrip:
    def test_json_roundtrip_exact(self, t5_nodes):
        plan = sample_plan(t5_nodes)
        restored = plan_from_json(plan_to_json(plan))
        assert restored == plan

    def test_file_roundtrip(self, t5_nodes, tmp_path):
        plan = sample_plan(t5_nodes)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_validates_against_graph(self, t5_nodes, tmp_path):
        plan = sample_plan(t5_nodes)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path, t5_nodes) == plan

    def test_empty_plan(self):
        plan = ShardingPlan.of({}, 1)
        assert plan_from_json(plan_to_json(plan)) == plan


class TestErrors:
    def test_not_json(self):
        with pytest.raises(PlanLoadError, match="not valid JSON"):
            plan_from_json("{nope")

    def test_wrong_kind(self):
        with pytest.raises(PlanLoadError, match="not a serialised"):
            plan_from_json(json.dumps({"kind": "something_else"}))

    def test_wrong_schema(self, t5_nodes):
        doc = json.loads(plan_to_json(sample_plan(t5_nodes)))
        doc["schema"] = 99
        with pytest.raises(PlanLoadError, match="schema"):
            plan_from_json(json.dumps(doc))

    def test_bad_assignment(self):
        doc = {
            "kind": "repro.sharding_plan", "schema": 1,
            "assignment": {"a": 3}, "tp_degree": 2,
        }
        with pytest.raises(PlanLoadError, match="assignment"):
            plan_from_json(json.dumps(doc))

    def test_bad_tp(self):
        doc = {
            "kind": "repro.sharding_plan", "schema": 1,
            "assignment": {}, "tp_degree": 0,
        }
        with pytest.raises(PlanLoadError, match="tp_degree"):
            plan_from_json(json.dumps(doc))

    def test_unknown_nodes_rejected_with_graph(self, t5_nodes):
        text = plan_to_json(ShardingPlan.of({"ghost/node": "split_col"}, 2))
        with pytest.raises(PlanLoadError, match="absent"):
            plan_from_json(text, t5_nodes)
        # without a graph to check against, loading succeeds
        assert plan_from_json(text).tp_degree == 2

    def test_unknown_nodes_all_named_by_the_verifier_rule(self, t5_nodes):
        ghosts = {f"ghost/node_{i}": "split_col" for i in range(7)}
        text = plan_to_json(ShardingPlan.of(ghosts, 2))
        with pytest.raises(PlanLoadError) as err:
            plan_from_json(text, t5_nodes)
        message = str(err.value)
        assert message.count("plan/unknown-node") == len(ghosts)
        assert all(repr(name) in message for name in ghosts)

    def test_load_runs_static_verifier(self, t5_nodes, tmp_path):
        """A saved plan violating divisibility fails verified loading."""
        node = next(
            n.name for n in t5_nodes.weight_nodes()
            if n.name.endswith("ffn/intermediate")
        )
        path = tmp_path / "bad.json"
        save_plan(ShardingPlan.of({node: "split_col"}, 3), path)
        with pytest.raises(PlanLoadError, match="static verification"):
            load_plan(path, t5_nodes)
        # a structure-only parse still reads it, and the verifier reports
        # what the verified load raised on
        plan = load_plan(path)
        assert plan.tp_degree == 3
        assert verify_plan(t5_nodes, plan).has_rule("plan/divisibility")


@pytest.fixture(scope="module")
def t5_routed(t5_nodes):
    plan = megatron_plan(t5_nodes, 4)
    return route_plan(t5_nodes, plan, DEFAULT_REGISTRY)


class TestRoutedRoundTrip:
    def test_roundtrip_equal(self, t5_nodes, t5_routed):
        restored = routed_from_json(routed_to_json(t5_routed), t5_nodes)
        assert restored == t5_routed

    def test_file_roundtrip_verifies(self, t5_nodes, t5_routed, tmp_path):
        path = tmp_path / "routed.json"
        save_routed(t5_routed, path)
        restored = load_routed(path, t5_nodes)
        assert restored == t5_routed

    def test_sim_cache_never_serialised(self, t5_nodes, t5_routed):
        mesh = paper_testbed(1, 4)
        cfg = CostConfig(batch_tokens=1024)
        simulate_iteration(t5_routed, mesh, cfg)
        assert t5_routed._sim_cache  # populated by the simulation above
        text = routed_to_json(t5_routed)
        assert "_sim_cache" not in text
        restored = routed_from_json(text, t5_nodes)
        assert restored._sim_cache == {}

    def test_reload_resimulates_bit_identically(self, t5_nodes, t5_routed):
        mesh = paper_testbed(1, 4)
        cfg = CostConfig(batch_tokens=1024)
        restored = routed_from_json(routed_to_json(t5_routed), t5_nodes)
        a = simulate_iteration(t5_routed, mesh, cfg)
        b = simulate_iteration(restored, mesh, cfg)
        assert a.iteration_time == b.iteration_time
        assert a.comm_time == b.comm_time
        assert a.exposed_comm_time == b.exposed_comm_time

    def test_document_with_cache_field_rejected(self, t5_routed):
        doc = json.loads(routed_to_json(t5_routed))
        doc["_sim_cache"] = {"stale": True}
        with pytest.raises(PlanLoadError, match="cache"):
            routed_from_json(json.dumps(doc))

    def test_corrupted_document_fails_verification(self, t5_nodes, t5_routed):
        doc = json.loads(routed_to_json(t5_routed))
        doc["order"] = doc["order"][:-1]
        with pytest.raises(PlanLoadError, match="static verification"):
            routed_from_json(json.dumps(doc), t5_nodes)
        # without a graph, structure-only parsing still works
        assert routed_from_json(json.dumps(doc)).order == doc["order"]

    def test_wrong_kind_rejected(self):
        with pytest.raises(PlanLoadError, match="not a serialised"):
            routed_from_json(json.dumps({"kind": "repro.sharding_plan"}))
