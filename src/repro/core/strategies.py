"""Alternative block-search strategies for Algorithm 2.

The paper enumerates every pattern assignment inside the pruned block
(tractable because pruning makes blocks small — 729 candidates for a
transformer layer).  For blocks with many decision groups the exhaustive
product still explodes, so this module compares strategies with
different cost/quality trade-offs.  All operate on the same decision
groups (:func:`repro.core.evaluate.decision_groups`) and price through
the columnar evaluator:

``exhaustive``
    the paper's behaviour: the planner's own Gray-order sweep of every
    assignment (:func:`repro.core.evaluate.search_block_candidates`);
``greedy``
    the planner's uncovered-node search, one coordinate-descent pass
    (:func:`repro.core.evaluate.coordinate_descent`): decide one group at
    a time, largest weights first — O(groups × options) evaluations;
``beam``
    beam search of width k over the group sequence — between the two.

``search_block`` runs one strategy over one block and returns the best
assignment found plus counters, so strategies are directly comparable
(see ``benchmarks/test_ablation_search_strategy.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster import Mesh
from .columnar import ColumnarEvaluator
from .cost import CostConfig, CostModel
from .evaluate import (
    EVAL_VALID,
    FamilySearch,
    coordinate_descent,
    decision_groups,
    search_block_candidates,
)
from .graphnode import NodeGraph
from .patterns import DEFAULT_REGISTRY, PatternRegistry

__all__ = ["StrategyResult", "search_block", "STRATEGIES"]


@dataclass
class StrategyResult:
    """Outcome of one strategy on one block."""

    strategy: str
    best_assignment: Dict[str, str] = field(default_factory=dict)
    best_cost: float = float("inf")
    candidates: int = 0
    valid: int = 0
    seconds: float = 0.0


def _beam(evaluator, block, groups, max_candidates, width=4):
    record = FamilySearch(tp_degree=evaluator.tp)

    def price(assignment: Dict[str, str]) -> Optional[float]:
        record.candidates += 1
        status, cost = evaluator.price(assignment)
        if status != EVAL_VALID:
            return None
        record.valid += 1
        return cost

    ordered = sorted(
        groups,
        key=lambda g: -max(block.node(n).num_parameters for n in g[0]),
    )
    base = price({})
    beam: List[Tuple[float, Dict[str, str]]] = [
        (base if base is not None else float("inf"), {})
    ]
    for names, options in ordered:
        frontier: List[Tuple[float, Dict[str, str]]] = []
        for cost, assignment in beam:
            for option in options:
                if record.candidates >= max_candidates:
                    break
                trial = dict(assignment)
                if option != "replicate":
                    trial.update({n: option for n in names})
                    new_cost = price(trial)
                    if new_cost is None:
                        continue
                else:
                    new_cost = cost
                frontier.append((new_cost, trial))
        frontier.sort(key=lambda t: t[0])
        # dedupe identical assignments while keeping order
        seen = set()
        beam = []
        for cost, assignment in frontier:
            key = tuple(sorted(assignment.items()))
            if key not in seen:
                seen.add(key)
                beam.append((cost, assignment))
            if len(beam) >= width:
                break
        if not beam:
            beam = [(float("inf"), {})]
    record.best_cost, record.best_assignment = beam[0]
    return record


#: the strategies :func:`search_block` runs, in ablation-table order
STRATEGIES = ("exhaustive", "greedy", "beam")


def search_block(
    block: NodeGraph,
    mesh: Mesh,
    tp_degree: int,
    strategy: str = "exhaustive",
    registry: PatternRegistry = DEFAULT_REGISTRY,
    cost_config: Optional[CostConfig] = None,
    max_candidates: int = 50_000,
) -> StrategyResult:
    """Run one strategy over one block; returns the best assignment found.

    ``max_candidates`` caps the exhaustive sweep and the beam; one
    coordinate-descent pass is already O(groups × options).
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; options: {sorted(STRATEGIES)}"
        )
    cm = CostModel(mesh, cost_config)
    groups = decision_groups(block, registry, tp_degree)
    start = time.perf_counter()
    if strategy == "exhaustive" and groups:
        record = search_block_candidates(
            block, registry, tp_degree, cm, max_plans=max_candidates
        )
        # count every candidate that routes, priced or not
        record.valid += record.bound_skipped
    else:
        evaluator = ColumnarEvaluator(block, registry, tp_degree, cm)
        if strategy == "beam":
            record = _beam(evaluator, block, groups, max_candidates)
        else:
            # without decision groups the descent prices exactly the one
            # all-replicate candidate, the whole exhaustive space
            record = coordinate_descent(evaluator, block, groups, {})
    return StrategyResult(
        strategy=strategy,
        best_assignment=record.best_assignment,
        best_cost=record.best_cost,
        candidates=record.candidates,
        valid=record.valid,
        seconds=time.perf_counter() - start,
    )
