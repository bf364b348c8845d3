"""Tests for candidate enumeration and evaluation (:mod:`repro.core.evaluate`).

The fast path's contract is bit-exact equivalence with the reference
path: whatever sequence of candidates is evaluated, the columnar
evaluator must classify each candidate (valid/invalid) exactly
as a fresh ``route_plan`` does and price valid ones to the exact float
``CostModel.plan_cost`` produces.  These tests drive randomized candidate
sequences through both paths and compare, plus the Gray-code enumeration
and branch-and-bound properties the search's speed rests on.
"""

import random

import pytest

from repro.cluster import paper_testbed
from repro.graph import trim_auxiliary
from repro.core import (
    DEFAULT_REGISTRY,
    ColumnarEvaluator,
    CostModel,
    RouteEvaluator,
    ShardingPlan,
    coarsen,
    coordinate_descent,
    decision_groups,
    derive_plan,
    iter_gray_plans,
    route_plan,
    search_block_candidates,
)
from repro.core.evaluate import EVAL_VALID
from repro.core.routing import RoutingError
from repro.models import TransformerConfig, build_preset, build_t5


def nodes_for(graph):
    trimmed, _ = trim_auxiliary(graph)
    return coarsen(trimmed)


@pytest.fixture(scope="module")
def t5_nodes():
    return nodes_for(build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2)))


@pytest.fixture(scope="module")
def encoder_block(t5_nodes):
    members = [n.name for n in t5_nodes if "encoder/layer_0" in n.name]
    return t5_nodes.subgraph(members)


@pytest.fixture(scope="module")
def mesh():
    return paper_testbed()


class TestGrayEnumeration:
    GROUPS = [
        (["a"], ["replicate", "x", "y"]),
        (["b1", "b2"], ["replicate", "u"]),
        (["c"], ["replicate", "v", "w", "z"]),
    ]

    def test_covers_full_product_exactly_once(self):
        seen = set()
        for assignment, _changed in iter_gray_plans(self.GROUPS):
            seen.add(tuple(sorted(assignment.items())))
        assert len(seen) == 3 * 2 * 4

    def test_consecutive_assignments_differ_in_one_group(self):
        prev = None
        for assignment, changed in iter_gray_plans(self.GROUPS):
            if prev is not None:
                diff = {
                    k for k in assignment
                    if assignment[k] != prev[k]
                }
                names = set(self.GROUPS[changed][0])
                assert diff == names or diff <= names
            else:
                assert changed is None
            prev = assignment

    def test_tied_names_always_share_an_option(self):
        for assignment, _changed in iter_gray_plans(self.GROUPS):
            assert assignment["b1"] == assignment["b2"]

    def test_first_assignment_is_all_first_option(self):
        first, changed = next(iter_gray_plans(self.GROUPS))
        assert changed is None
        assert first == {"a": "replicate", "b1": "replicate",
                         "b2": "replicate", "c": "replicate"}

    def test_replicate_fallback_survives_truncation(self):
        # No option list contains "replicate": the full walk appends the
        # empty (all-replicate) assignment after the product.
        groups = [(["a"], ["x", "y"]), (["b"], ["u", "v"])]
        plans = list(iter_gray_plans(groups))
        assert len(plans) == 2 * 2 + 1
        assert plans[-1] == ({}, None)
        # Truncation cannot lose the fallback either.
        truncated = list(iter_gray_plans(groups, max_plans=2))
        assert truncated[-1] == ({}, None)

    def test_block_fallback_under_zero_cap(self, encoder_block):
        # Even a zero budget yields the guaranteed all-replicate plan.
        groups = decision_groups(encoder_block, DEFAULT_REGISTRY, 8)
        plans = list(iter_gray_plans(groups, max_plans=0))
        assert plans == [({}, None)]


class TestEvaluatorEquivalence:
    def _reference(self, block, assignment, tp, cm):
        plan = ShardingPlan.of(assignment, tp)
        try:
            routed = route_plan(block, plan, DEFAULT_REGISTRY)
        except RoutingError:
            return None
        return cm.plan_cost(routed)

    def test_randomized_candidates_match_fresh_route_and_price(
        self, encoder_block, mesh
    ):
        """Random one-group mutations: columnar price == fresh price, and
        columnar price_batch == the oracle evaluator's."""
        tp = 8
        cm = CostModel(mesh)
        evaluator = ColumnarEvaluator(encoder_block, DEFAULT_REGISTRY, tp, cm)
        oracle = RouteEvaluator(encoder_block, DEFAULT_REGISTRY, tp, cm)
        groups = decision_groups(encoder_block, DEFAULT_REGISTRY, tp)
        rng = random.Random(7)
        assignment = {}
        for _ in range(80):
            names, options = groups[rng.randrange(len(groups))]
            option = options[rng.randrange(len(options))]
            for name in names:
                assignment[name] = option
            status, cost = evaluator.price(dict(assignment))
            expected = self._reference(encoder_block, assignment, tp, cm)
            if expected is None:
                assert status != EVAL_VALID
            else:
                assert status == EVAL_VALID
                assert cost == expected  # bit-exact, not approx
            names, options = groups[rng.randrange(len(groups))]
            variants = [{n: o for n in names} for o in options]
            got = evaluator.price_batch(dict(assignment), variants)
            assert got == oracle.price_batch(dict(assignment), variants)

    def test_full_graph_multi_group_jumps_match(self, t5_nodes, mesh):
        """Arbitrary multi-group jumps over the whole graph also match."""
        tp = 8
        cm = CostModel(mesh)
        evaluator = ColumnarEvaluator(t5_nodes, DEFAULT_REGISTRY, tp, cm)
        groups = decision_groups(t5_nodes, DEFAULT_REGISTRY, tp)
        rng = random.Random(11)
        assignment = {}
        for _ in range(25):
            for _ in range(rng.randrange(1, 4)):  # change several groups
                names, options = groups[rng.randrange(len(groups))]
                option = options[rng.randrange(len(options))]
                for name in names:
                    assignment[name] = option
            status, cost = evaluator.price(dict(assignment))
            expected = self._reference(t5_nodes, assignment, tp, cm)
            if expected is None:
                assert status != EVAL_VALID
            else:
                assert status == EVAL_VALID
                assert cost == expected


class TestSearchEquivalence:
    def test_engine_matches_reference_sweep(self, encoder_block, mesh):
        cm = CostModel(mesh)
        eng = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, engine="columnar"
        )
        ref = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, engine="reference"
        )
        assert eng.best_assignment == ref.best_assignment
        assert eng.best_cost == ref.best_cost
        assert eng.candidates == ref.candidates

    def test_bound_changes_nothing_but_skips_candidates(
        self, encoder_block, mesh
    ):
        # the reference sweep is the unbounded one: it prices every valid
        # candidate
        cm = CostModel(mesh)
        bounded = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, engine="columnar"
        )
        unbounded = search_block_candidates(
            encoder_block, DEFAULT_REGISTRY, 8, cm, engine="reference"
        )
        assert bounded.best_assignment == unbounded.best_assignment
        assert bounded.best_cost == unbounded.best_cost
        assert bounded.candidates == unbounded.candidates
        assert bounded.bound_skipped > 0
        assert unbounded.bound_skipped == 0
        # the bound skips only valid candidates, and only their pricing
        assert bounded.valid + bounded.bound_skipped == unbounded.valid

    def test_derive_plan_engine_and_bound_agree(self, t5_nodes, mesh):
        reference = derive_plan(t5_nodes, mesh, engine="reference")
        result = derive_plan(t5_nodes, mesh)
        assert result.plan.as_dict == reference.plan.as_dict
        assert result.cost == reference.cost
        assert result.tp_degree == reference.tp_degree
        assert result.candidates_examined == reference.candidates_examined
        assert result.bound_skipped > 0
        assert (
            result.valid_plans + result.bound_skipped
            == reference.valid_plans
        )

    def test_lazy_routed_plan_matches_eager(self, t5_nodes, mesh):
        eng = derive_plan(t5_nodes, mesh)
        ref = derive_plan(t5_nodes, mesh, engine="reference")
        assert eng.routed.shards.keys() == ref.routed.shards.keys()
        cm = CostModel(mesh)
        assert cm.plan_cost(eng.routed) == eng.cost
        assert cm.plan_cost(eng.routed) == cm.plan_cost(ref.routed)


class TestCoordinateDescent:
    @pytest.mark.parametrize("preset", ["t5_large", "clip_base"])
    def test_descent_agrees_across_evaluators(self, preset):
        """The uncovered-node descent derive_plan runs gives the same
        record on the oracle evaluator and the columnar one."""
        mesh = paper_testbed(2, 8)
        ng = nodes_for(build_preset(preset))
        result = derive_plan(ng, mesh, tp_degrees=[8])
        uncovered = result.prune.uncovered
        block = ng.subgraph(uncovered, name="uncovered")
        # the family winners, broadcast: the plan minus the descent's moves
        base = {
            k: v for k, v in result.plan.as_dict.items()
            if k not in block
        }
        groups = decision_groups(block, DEFAULT_REGISTRY, 8)
        cm = CostModel(mesh)
        ref, fast = (
            coordinate_descent(
                cls(ng, DEFAULT_REGISTRY, 8, cm), block, groups, base
            )
            for cls in (RouteEvaluator, ColumnarEvaluator)
        )

        def key(r):
            return (
                r.tp_degree, r.candidates, r.valid, r.best_assignment,
                r.best_cost.hex(),
            )

        assert key(ref) == key(fast)
        assert key(fast) == key(result.families[-1])
        assert (ref.rows_priced, fast.rows_priced) == (0, fast.candidates)
        assert fast.valid > 1


class TestCostModelCaches:
    def test_groups_cached_per_degree(self, mesh):
        cm = CostModel(mesh)
        assert cm.groups(8) is cm.groups(8)
        assert cm.groups(8) is not cm.groups(4)
