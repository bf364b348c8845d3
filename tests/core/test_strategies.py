"""Tests for the alternative block-search strategies."""

import pytest

from repro.cluster import paper_testbed
from repro.core import coarsen
from repro.core.strategies import STRATEGIES, search_block
from repro.graph import trim_auxiliary
from repro.models import TransformerConfig, build_t5


@pytest.fixture(scope="module")
def layer_block():
    g = build_t5(TransformerConfig(encoder_layers=2, decoder_layers=2))
    trimmed, _ = trim_auxiliary(g)
    ng = coarsen(trimmed)
    members = [n.name for n in ng if "encoder/layer_0" in n.name]
    return ng.subgraph(members)


@pytest.fixture(scope="module")
def results(layer_block):
    mesh = paper_testbed()
    return {
        name: search_block(layer_block, mesh, 8, strategy=name)
        for name in STRATEGIES
    }


class TestStrategies:
    #: (candidates, valid, best_cost.hex()) on the encoder layer at TP 8
    PINNED = {
        "exhaustive": (729, 486, "0x1.3fd3e10ce5983p-6"),
        "greedy": (13, 12, "0x1.878c0f8110869p-6"),
        "beam": (39, 38, "0x1.3fd3e10ce5983p-6"),
    }

    def test_outcomes_are_pinned(self, results):
        got = {
            name: (r.candidates, r.valid, r.best_cost.hex())
            for name, r in results.items()
        }
        assert got == self.PINNED

    def test_unknown_strategy(self, layer_block):
        with pytest.raises(ValueError, match="unknown strategy"):
            search_block(layer_block, paper_testbed(), 8, strategy="oracle")

    def test_exhaustive_examines_the_full_space(self, results):
        assert results["exhaustive"].candidates == 729

    def test_greedy_far_fewer_candidates(self, results):
        assert results["greedy"].candidates < 20
        assert results["greedy"].candidates < results["exhaustive"].candidates

    def test_beam_between(self, results):
        assert (
            results["greedy"].candidates
            <= results["beam"].candidates
            < results["exhaustive"].candidates
        )

    def test_exhaustive_is_optimal(self, results):
        best = results["exhaustive"].best_cost
        for name, r in results.items():
            assert r.best_cost >= best - 1e-12, name

    def test_beam_recovers_the_coupled_optimum(self, results):
        """The FFN win needs *two* simultaneous decisions (the col+row pair
        only pays off jointly: a lone split_col leaves an S output that must
        be gathered back).  Beam search carries both half-steps forward and
        finds the exhaustive optimum."""
        assert results["beam"].best_cost == pytest.approx(
            results["exhaustive"].best_cost
        )

    def test_greedy_gets_stuck_on_coupled_decisions(self, results):
        """Coordinate descent cannot cross the coupled-decision valley: no
        single pattern flip beats data parallelism, so greedy stays at the
        DP baseline — the landscape justification for the paper's
        exhaustive per-block enumeration."""
        assert results["greedy"].best_cost > results["exhaustive"].best_cost
        assert results["greedy"].best_assignment == {}

    def test_all_find_valid_plans(self, results):
        for r in results.values():
            assert r.valid > 0
            assert r.best_cost < float("inf")
            assert r.seconds > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_block_without_decisions(self, layer_block, strategy):
        # only the layer norms: one candidate, the all-replicate plan
        norms = [n.name for n in layer_block if "norm" in n.name]
        r = search_block(
            layer_block.subgraph(norms), paper_testbed(), 8,
            strategy=strategy,
        )
        assert (r.candidates, r.valid, r.best_assignment) == (1, 1, {})
        assert r.best_cost < float("inf")

    def test_candidate_cap_respected(self, layer_block):
        r = search_block(
            layer_block, paper_testbed(), 8, strategy="exhaustive",
            max_candidates=50,
        )
        # the first 50 candidates in Gray order
        assert (r.candidates, r.valid) == (50, 32)
