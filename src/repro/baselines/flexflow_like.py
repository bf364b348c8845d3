"""A FlexFlow-style MCMC search over the SOAP space (Table 2 comparator).

FlexFlow [15] explores the Sample/Operator/Attribute/Parameter space with
Markov-chain Monte Carlo: propose a random mutation of the current
parallelisation, accept if better (or with Boltzmann probability if
worse), repeat for a budget of trials, evaluating each proposal with a
cost-model query over the whole graph (O(V + E) per trial): one
full-graph :meth:`ColumnarEvaluator.price`, as the Alpa-like comparator
prices its stages.

No space reduction happens, so total work is O(B · (V + E)) — the
complexity row Table 2 assigns FlexFlow.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster import Mesh
from ..core.columnar import ColumnarEvaluator
from ..core.cost import CostConfig, CostModel
from ..core.evaluate import EVAL_VALID
from ..core.graphnode import NodeGraph
from ..core.patterns import DEFAULT_REGISTRY, PatternRegistry
from ..core.plan import ShardingPlan
from ..core.routing import RoutingError

__all__ = ["MCMCResult", "flexflow_like_search"]

#: Boltzmann temperature, relative to the current plan's cost.
TEMPERATURE = 0.25


@dataclass
class MCMCResult:
    """Search trajectory and the best plan found."""

    best_plan: Optional[ShardingPlan] = None
    best_cost: float = float("inf")
    trials: int = 0
    accepted: int = 0
    invalid: int = 0
    trajectory: List[float] = field(default_factory=list)
    search_seconds: float = 0.0


def flexflow_like_search(
    node_graph: NodeGraph,
    mesh: Mesh,
    cost_config: Optional[CostConfig] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    budget: int = 300,
    tp_degree: Optional[int] = None,
    seed: int = 0,
) -> MCMCResult:
    """Run *budget* MCMC trials over per-node pattern assignments."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    cfg = cost_config or CostConfig()
    cm = CostModel(mesh, cfg)
    rng = random.Random(seed)
    tp = tp_degree if tp_degree is not None else mesh.gpus_per_node
    if mesh.num_devices % tp != 0:
        raise ValueError(f"tp degree {tp} must divide {mesh.num_devices}")

    weight_nodes = node_graph.weight_nodes()
    options: Dict[str, List[str]] = {
        n.name: [p.name for p in registry.options(n, tp)] for n in weight_nodes
    }
    mutable = [n for n, opts in options.items() if len(opts) > 1]

    result = MCMCResult()
    start = time.perf_counter()

    current: Dict[str, str] = {n: "replicate" for n in options}

    evaluator = ColumnarEvaluator(node_graph, registry, tp, cm)

    status, current_cost = evaluator.price(current)
    if status != EVAL_VALID:  # pragma: no cover - all-replicate always routes
        raise RoutingError("baseline all-replicate plan failed to route")
    result.best_cost = current_cost
    result.best_plan = ShardingPlan.of({}, tp, name="flexflow")

    for _ in range(budget):
        result.trials += 1
        proposal = dict(current)
        if mutable:
            victim = rng.choice(mutable)
            proposal[victim] = rng.choice(options[victim])
        status, cost = evaluator.price(proposal)
        if status != EVAL_VALID:
            result.invalid += 1
            result.trajectory.append(current_cost)
            continue
        accept = cost < current_cost or rng.random() < math.exp(
            -(cost - current_cost) / max(TEMPERATURE * max(current_cost, 1e-12), 1e-12)
        )
        if accept:
            current, current_cost = proposal, cost
            result.accepted += 1
        if current_cost < result.best_cost:
            result.best_cost = current_cost
            result.best_plan = ShardingPlan.of(
                {k: v for k, v in current.items() if v != "replicate"},
                tp,
                name="flexflow",
            )
        result.trajectory.append(current_cost)

    result.search_seconds = time.perf_counter() - start
    return result
