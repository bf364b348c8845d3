"""Tests for the Alpa-like and FlexFlow-like comparator searches."""

import pytest

from repro.cluster import Mesh, paper_testbed
from repro.graph import trim_auxiliary
from repro.core import coarsen, derive_plan
from repro.baselines import alpa_like_search, flexflow_like_search
from repro.models import TransformerConfig, build_t5, resnet_with_classes


def nodes_for(graph):
    trimmed, _ = trim_auxiliary(graph)
    return coarsen(trimmed)


@pytest.fixture(scope="module")
def small_t5_nodes():
    return nodes_for(
        build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2, hidden=256,
                                   ffn_dim=1024, num_heads=4, vocab=512))
    )


#: Golden MCMC chains on ``small_t5_nodes`` as (mesh, kwargs, best_cost,
#: accepted, invalid, trajectory), recorded when each proposal's routing
#: reused the accepted plan's prefix: one full walk per trial must
#: reproduce them exactly.
FLEXFLOW_GOLDEN = (
    (
        "paper_testbed", dict(budget=40, seed=5, tp_degree=4),
        0.009157398098751771, 28, 2,
        [
            0.011029487380818765, 0.011029487380818765, 0.011588507218441312,
            0.011588507218441312, 0.011588507218441312, 0.011029487380818765,
            0.011512053523779854, 0.011512053523779854, 0.011512053523779854,
            0.011512053523779854, 0.011512053523779854, 0.011512053523779854,
            0.011512053523779854, 0.011029487380818765, 0.011029487380818765,
            0.011029487380818765, 0.014987715551774645, 0.016679804833841638,
            0.016679804833841638, 0.016679804833841638, 0.016679804833841638,
            0.016679804833841638, 0.018371894115908637, 0.018371894115908637,
            0.022330122286864512, 0.022812688429825607, 0.022812688429825607,
            0.022812688429825607, 0.022812688429825607, 0.022812688429825607,
            0.022812688429825607, 0.03306892597157285, 0.03306892597157285,
            0.022812688429825607, 0.022812688429825607, 0.022812688429825607,
            0.02473784715633704, 0.02473784715633704, 0.022471708267448154,
            0.020677893724964494,
        ],
    ),
    (
        "2x4", dict(budget=40, seed=1),
        0.004362195964213613, 28, 0,
        [
            0.004362195964213613, 0.004362195964213613, 0.004362195964213613,
            0.004362195964213613, 0.004362195964213613, 0.004362195964213613,
            0.004362195964213613, 0.004362195964213613, 0.004362195964213613,
            0.004816924339417861, 0.00521165271462211, 0.00521165271462211,
            0.006220915812048579, 0.006220915812048579, 0.006220915812048579,
            0.006220915812048579, 0.006220915812048579, 0.007122681032142151,
            0.007558662446438418, 0.007953390821642668, 0.008962653919069138,
            0.009050114933162276, 0.009050114933162276, 0.009050114933162276,
            0.008568349713068704, 0.008568349713068704, 0.008568349713068704,
            0.008568349713068704, 0.008568349713068704, 0.008568349713068704,
            0.008615524293910767, 0.008615524293910767, 0.008615524293910767,
            0.008199577939026039, 0.008199577939026039, 0.008203631584141311,
            0.008598359959345561, 0.008598359959345561, 0.009500125179439132,
            0.009910541498025472,
        ],
    ),
)


class TestAlpaLike:
    def test_returns_candidates_and_best(self, small_t5_nodes):
        res = alpa_like_search(small_t5_nodes, paper_testbed(), num_candidates=8)
        assert res.plans
        assert res.best is res.plans[res.iteration_times.index(min(res.iteration_times))]
        assert res.best.iteration_time > 0

    def test_stages_partition_all_nodes(self, small_t5_nodes):
        res = alpa_like_search(small_t5_nodes, paper_testbed(), num_candidates=4)
        plan = res.best
        covered = [n for s in plan.stages for n in s.nodes]
        assert len(covered) == len(small_t5_nodes)
        assert len(set(covered)) == len(covered)

    def test_profiling_counts_signatures(self, small_t5_nodes):
        res = alpa_like_search(small_t5_nodes, paper_testbed())
        assert res.ops_profiled > 0

    def test_profile_off(self, small_t5_nodes):
        res = alpa_like_search(small_t5_nodes, paper_testbed(), profile=False)
        assert res.ops_profiled == 0

    def test_work_grows_superlinearly_with_depth(self):
        """Fig. 9's mechanism: Alpa's DP states grow with the square of the
        graph; TAP's candidates stay constant."""
        mesh = paper_testbed()
        cfg = TransformerConfig(hidden=128, ffn_dim=512, num_heads=4, vocab=256,
                                encoder_layers=2, decoder_layers=2)
        shallow = alpa_like_search(nodes_for(build_t5(cfg)), mesh, profile=False)
        deep_cfg = TransformerConfig(hidden=128, ffn_dim=512, num_heads=4, vocab=256,
                                     encoder_layers=8, decoder_layers=8)
        deep = alpa_like_search(nodes_for(build_t5(deep_cfg)), mesh, profile=False)
        assert deep.dp_states_evaluated > 6 * shallow.dp_states_evaluated
        assert deep.intra_choices_evaluated > shallow.intra_choices_evaluated

    def test_bubble_fraction_shrinks_with_microbatches(self, small_t5_nodes):
        res = alpa_like_search(
            small_t5_nodes, paper_testbed(),
            stage_counts=(4,), microbatch_counts=(2, 16), num_candidates=4,
        )
        by_mb = {p.microbatches: p.bubble_fraction for p in res.plans}
        assert by_mb[16] < by_mb[2]

    def test_wide_classifier_causes_stage_imbalance(self):
        """Fig. 12's mechanism: the giant FC layer makes pipeline stages
        unbalanceable, so Alpa-like plans degrade on wide ResNets."""
        mesh = paper_testbed()
        narrow = alpa_like_search(
            nodes_for(resnet_with_classes(1024)), mesh, profile=False,
            stage_counts=(4,), microbatch_counts=(8,),
        )
        wide = alpa_like_search(
            nodes_for(resnet_with_classes(262144)), mesh, profile=False,
            stage_counts=(4,), microbatch_counts=(8,),
        )

        def imbalance(plan):
            times = [s.compute_seconds for s in plan.stages]
            return max(times) / (sum(times) / len(times))

        assert imbalance(wide.best) > imbalance(narrow.best)


class TestFlexFlowLike:
    def test_budget_respected(self, small_t5_nodes):
        res = flexflow_like_search(small_t5_nodes, Mesh(1, 4), budget=25, seed=1)
        assert res.trials == 25
        assert len(res.trajectory) == 25

    def test_invalid_budget(self, small_t5_nodes):
        with pytest.raises(ValueError):
            flexflow_like_search(small_t5_nodes, Mesh(1, 4), budget=0)

    def test_best_cost_never_worse_than_start(self, small_t5_nodes):
        res = flexflow_like_search(small_t5_nodes, Mesh(1, 4), budget=60, seed=2)
        assert res.best_cost <= res.trajectory[0] + 1e-12

    def test_trajectory_monotone_best(self, small_t5_nodes):
        res = flexflow_like_search(small_t5_nodes, Mesh(1, 4), budget=40, seed=3)
        running = float("inf")
        for c in res.trajectory:
            running = min(running, c)
        assert res.best_cost <= running + 1e-12

    def test_deterministic_given_seed(self, small_t5_nodes):
        a = flexflow_like_search(small_t5_nodes, Mesh(1, 4), budget=30, seed=7)
        b = flexflow_like_search(small_t5_nodes, Mesh(1, 4), budget=30, seed=7)
        assert a.trajectory == b.trajectory
        assert a.best_cost == b.best_cost

    def test_tp_degree_validation(self, small_t5_nodes):
        with pytest.raises(ValueError):
            flexflow_like_search(small_t5_nodes, Mesh(1, 4), tp_degree=3)

    @pytest.mark.parametrize("mesh_name,kwargs,best,accepted,invalid,traj",
                             FLEXFLOW_GOLDEN)
    def test_golden_chains(self, small_t5_nodes, mesh_name, kwargs, best,
                           accepted, invalid, traj):
        mesh = paper_testbed() if mesh_name == "paper_testbed" else Mesh(2, 4)
        res = flexflow_like_search(small_t5_nodes, mesh, **kwargs)
        assert res.trajectory == traj
        assert res.best_cost == best
        assert (res.accepted, res.invalid) == (accepted, invalid)

    def test_mcmc_beats_or_matches_pure_dp(self, small_t5_nodes):
        """With enough trials the chain should find a plan at least as good
        as its all-replicate start under the comm objective."""
        res = flexflow_like_search(
            small_t5_nodes, paper_testbed(), budget=120, seed=0, tp_degree=8
        )
        assert res.best_plan is not None
        assert res.best_cost <= res.trajectory[0]


class TestSearchTimeComparison:
    def test_tap_flat_alpa_growing(self):
        """The end-to-end Fig. 9 relation at miniature scale."""
        mesh = paper_testbed()
        cfg_small = TransformerConfig(hidden=128, ffn_dim=512, num_heads=4,
                                      vocab=256, encoder_layers=2, decoder_layers=2)
        cfg_big = TransformerConfig(hidden=128, ffn_dim=512, num_heads=4,
                                    vocab=256, encoder_layers=8, decoder_layers=8)
        tap_small = derive_plan(nodes_for(build_t5(cfg_small)), mesh)
        tap_big = derive_plan(nodes_for(build_t5(cfg_big)), mesh)
        # TAP's examined candidates are depth-independent
        assert tap_big.candidates_examined == tap_small.candidates_examined
        alpa_small = alpa_like_search(nodes_for(build_t5(cfg_small)), mesh, profile=False)
        alpa_big = alpa_like_search(nodes_for(build_t5(cfg_big)), mesh, profile=False)
        assert alpa_big.search_seconds > alpa_small.search_seconds
