"""Property sweep: the columnar tier is bit-identical to the oracle.

The columnar search core (``engine="columnar"``) re-expresses enumeration,
routing, and pricing as batched array ops.  Its contract is exact parity:
for every model in the zoo and every mesh, the selected plan, its cost,
and the search counters must equal the reference loop's — not
approximately, *exactly*.
"""

import pytest

from repro.cluster import Mesh, paper_testbed
from repro.core import (
    CostConfig, coarsen, derive_plan, routed_from_json, routed_to_json,
)
from repro.graph import trim_auxiliary
from repro.models import LARGE_PRESETS, MODEL_PRESETS, build_preset

TIERS = ("reference", "columnar")

SMALL_PRESETS = [
    n for n in MODEL_PRESETS
    if not n.startswith("m6") and n not in LARGE_PRESETS
]

MESHES = {
    "testbed_2x8": paper_testbed(2, 8),
    "testbed_1x8": paper_testbed(1, 8),
    "flat_1x4": Mesh(num_nodes=1, gpus_per_node=4),
}


def _graph(preset):
    trimmed, _ = trim_auxiliary(build_preset(preset))
    return coarsen(trimmed)


def _derive_all_tiers(node_graph, mesh, **kwargs):
    return {
        tier: derive_plan(node_graph, mesh, engine=tier, **kwargs)
        for tier in TIERS
    }


def _assert_tiers_identical(results):
    ref = results["reference"]
    got = results["columnar"]
    assert got.plan == ref.plan
    assert got.cost == ref.cost
    assert got.tp_degree == ref.tp_degree
    assert got.candidates_examined == ref.candidates_examined
    # The bound only skips pricing valid candidates: priced plus skipped
    # is exactly the reference loop's valid count.
    assert got.valid_plans + got.bound_skipped == ref.valid_plans
    assert ref.bound_skipped == 0
    # every candidate is one evaluator row, computed exactly once
    assert got.rows_priced == got.candidates_examined
    assert ref.rows_priced == 0


@pytest.mark.parametrize("preset", SMALL_PRESETS)
def test_all_tiers_agree_on_zoo(preset):
    results = _derive_all_tiers(_graph(preset), paper_testbed(2, 8))
    _assert_tiers_identical(results)


@pytest.mark.slow
@pytest.mark.parametrize("preset", sorted(LARGE_PRESETS))
def test_all_tiers_agree_on_large_graphs(preset):
    results = _derive_all_tiers(_graph(preset), paper_testbed(2, 8))
    _assert_tiers_identical(results)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("preset", ["t5_large", "resnet50"])
def test_tiers_agree_across_meshes(preset, mesh_name):
    results = _derive_all_tiers(_graph(preset), MESHES[mesh_name])
    _assert_tiers_identical(results)


@pytest.mark.parametrize("zero_stage", [0, 1, 2])
@pytest.mark.parametrize("objective", ["comm", "time"])
@pytest.mark.parametrize("preset", ["t5_large", "switch_like"])
def test_tiers_agree_across_objectives_and_zero(preset, objective, zero_stage):
    """``objective="time"`` adds compute into the bound, and ZeRO stages
    change the gradient-stream pricing the bound skips."""
    results = _derive_all_tiers(
        _graph(preset), paper_testbed(2, 8),
        cost_config=CostConfig(objective=objective), zero_stage=zero_stage,
    )
    _assert_tiers_identical(results)
    assert results["columnar"].plan.zero_stage == zero_stage


@pytest.mark.parametrize("preset", ["t5_large", "switch_like"])
def test_tiers_agree_without_bound(preset):
    """The reference loop is the unbounded sweep: it prices every valid
    candidate, and the bound changes neither the winner nor its cost."""
    results = _derive_all_tiers(_graph(preset), paper_testbed(2, 8))
    _assert_tiers_identical(results)
    bounded, unbounded = results["columnar"], results["reference"]
    assert bounded.bound_skipped > 0
    assert bounded.valid_plans < unbounded.valid_plans


def test_columnar_winner_round_trips_through_json():
    """The columnar winner's RoutedPlan survives serialisation exactly."""
    ng = _graph("t5_large")
    result = derive_plan(ng, paper_testbed(2, 8), engine="columnar")
    routed = result.routed
    restored = routed_from_json(routed_to_json(routed), ng)
    assert restored == routed
    assert restored.plan == result.plan


def test_columnar_counters_reported():
    """The search counters are live after a real columnar search: the
    bound fires, and the valid candidates it skips plus those priced fit
    inside the candidates examined."""
    ng = _graph("t5_large")
    result = derive_plan(ng, paper_testbed(2, 8), engine="columnar")
    assert result.bound_skipped > 0
    assert result.valid_plans > 0
    assert (
        result.valid_plans + result.bound_skipped
        <= result.candidates_examined
    )
