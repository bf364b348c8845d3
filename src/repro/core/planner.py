"""Derivation of the optimal plan — Algorithm 2 (§4.4).

``derive_plan`` runs the paper's pipeline end to end:

1. prune the NodeGraph into shared-subgraph families (Algorithm 1);
2. per family, enumerate every assignment of sharding patterns to the
   representative block's enumerable weight nodes (the paper's 3-way
   choice per 2-D weight gives 3^6 = 729 candidates for a transformer
   block);
3. validate each candidate by pattern routing (Algorithm 3) and price the
   valid ones with the communication cost model;
4. broadcast each family's winner to all its instances, decide the
   uncovered weight nodes by one coordinate-descent pass over the full
   graph, default everything else to replication, and price the
   assembled full plan.

``engine=`` picks the evaluator once per call — the columnar core
(:class:`~repro.core.columnar.ColumnarEvaluator`, the default) or the
route-everything oracle (:class:`~repro.core.evaluate.RouteEvaluator`) —
and every step above runs the same code on either, selecting the
bit-identical plan at the bit-identical cost.

Multiple tensor-parallel degrees can be searched; each family's candidates
are evaluated per degree and the best assembled plan across degrees wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import Mesh
from ..obs import metrics, trace
from .cost import CostConfig, CostModel
from .columnar import ColumnarEvaluator
from .evaluate import (
    EVAL_VALID,
    FamilySearch,
    RouteEvaluator,
    coordinate_descent,
    decision_groups,
    normalize_engine,
    search_block_candidates,
)
from .graphnode import NodeGraph
from .patterns import DEFAULT_REGISTRY, PatternRegistry
from .plan import RoutedPlan, ShardingPlan
from .pruning import PruneResult, SubgraphFamily, prune_graph
from .routing import RoutingError, route_plan

__all__ = ["FamilySearch", "SearchResult", "derive_plan"]


@dataclass
class SearchResult:
    """Outcome of Algorithm 2 over the whole model."""

    plan: ShardingPlan
    cost: float
    prune: PruneResult
    families: List[FamilySearch] = field(default_factory=list)
    candidates_examined: int = 0
    valid_plans: int = 0
    search_seconds: float = 0.0
    #: valid candidates the admissible bound kept from pricing (0 on the
    #: reference tier): ``valid_plans + bound_skipped`` is the oracle's
    #: ``valid_plans``
    bound_skipped: int = 0
    #: candidate rows the columnar evaluator computed over all families
    #: and the uncovered descent (0 on the reference tier); the final
    #: price of each assembled plan is not a candidate and is not counted
    rows_priced: int = 0
    _routed: Optional[RoutedPlan] = None
    _route_thunk: Optional[Callable[[], RoutedPlan]] = None

    @property
    def routed(self) -> RoutedPlan:
        """Full routing of the winning plan.

        The search already validated and priced the winner without
        materialising a :class:`RoutedPlan`, so the walk that builds one
        (shards, events, conversion table) runs on first access — callers
        that only need the plan and its cost never pay for it.
        """
        if self._routed is None:
            self._routed = self._route_thunk()
        return self._routed

    @property
    def tp_degree(self) -> int:
        return self.plan.tp_degree


def _broadcast_assignment(
    family: SubgraphFamily, template_assignment: Dict[str, str]
) -> Dict[str, str]:
    """Map a template block's assignment onto every family instance.

    Instance member lists are index-aligned with the template's (they come
    from the same traversal of structurally identical blocks).
    """
    template_members = family.member_nodes[0]
    index = {name: i for i, name in enumerate(template_members)}
    full: Dict[str, str] = {}
    for members in family.member_nodes:
        for tmpl_name, pattern in template_assignment.items():
            full[members[index[tmpl_name]]] = pattern
    return full


def _candidate_tp_degrees(mesh: Mesh, requested: Optional[Sequence[int]]) -> List[int]:
    if requested is not None:
        degrees = sorted(set(requested))
    else:
        degrees = sorted({1, mesh.gpus_per_node, mesh.num_devices})
    out = []
    for d in degrees:
        if d < 1 or mesh.num_devices % d != 0:
            raise ValueError(
                f"tp degree {d} must divide the device count {mesh.num_devices}"
            )
        out.append(d)
    return out


def derive_plan(
    node_graph: NodeGraph,
    mesh: Mesh,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    cost_config: Optional[CostConfig] = None,
    min_duplicate: int = 2,
    tp_degrees: Optional[Sequence[int]] = None,
    max_plans_per_block: int = 50_000,
    use_pruning: bool = True,
    engine="columnar",
    zero_stage: int = 0,
) -> SearchResult:
    """Run the full TAP derivation (Algorithm 2) and return the best plan.

    ``use_pruning=False`` searches the whole graph as a single block — the
    ablation that demonstrates why Algorithm 1 matters.  ``engine``
    selects the evaluator every search step prices through:
    ``"columnar"`` (the default) the array-batched core, ``"reference"``
    the route-everything oracle.  The selected plan and cost are
    identical on both tiers, because the reduction runs in a fixed order
    with strict first-wins tie-breaking.

    ``zero_stage`` stamps the optimizer-state sharding axis onto every
    candidate (and the winner): 0 is today's replicated update, 1/2 the
    ZeRO-style reduce-scatter + post-step all-gather pricing.  With
    ``zero_stage=0`` the search is bit-identical to before the knob
    existed.
    """
    start = time.perf_counter()
    tier = normalize_engine(engine)
    cost_model = CostModel(mesh, cost_config)
    prune = prune_graph(node_graph, min_duplicate=min_duplicate if use_pruning else 0)
    degrees = _candidate_tp_degrees(mesh, tp_degrees)

    # Block construction is independent of the TP degree: build each
    # family's representative block (and the residual of uncovered weight
    # nodes) once.  Uncovered weight nodes (embeddings, a unique
    # classifier) still need sharding decisions — this is the paper's
    # ResNet case, where the single giant FC layer is exactly what must
    # get sharded.
    family_blocks: List[Tuple[Optional[SubgraphFamily], NodeGraph]] = []
    uncovered_block: Optional[NodeGraph] = None
    if use_pruning:
        # Prune results are memoised on the graph, so the block objects
        # can ride along: reusing them lets block-level compile caches
        # (the columnar skeleton) survive across repeat derives.
        blocks = getattr(prune, "_planner_blocks", None)
        if blocks is None:
            reps = [
                node_graph.subgraph(fam.member_nodes[0], name=fam.normalized)
                for fam in prune.families
            ]
            residual = (
                node_graph.subgraph(prune.uncovered, name="uncovered")
                if prune.uncovered
                else None
            )
            blocks = (reps, residual)
            prune._planner_blocks = blocks
        family_blocks = list(zip(prune.families, blocks[0]))
        if blocks[1] is not None and blocks[1].weight_nodes():
            uncovered_block = blocks[1]
    else:
        family_blocks = [(None, node_graph)]

    evaluator_class = (
        ColumnarEvaluator if tier == "columnar" else RouteEvaluator
    )

    # Per TP degree: sweep every family, decide the uncovered nodes against
    # the family winners, and price the assembled plan — all through one
    # full-graph evaluator.  The full ``route_plan`` is deferred to the
    # winning degree after the reduction.
    def assemble(tp: int) -> Tuple[
        List[FamilySearch], Optional[Tuple[ShardingPlan, float]]
    ]:
        assignment: Dict[str, str] = {}
        records: List[FamilySearch] = []
        for fam, block in family_blocks:
            record = search_block_candidates(
                block,
                registry,
                tp,
                cost_model,
                max_plans=max_plans_per_block,
                engine=tier,
                zero_stage=zero_stage,
            )
            record.family = fam
            records.append(record)
            if fam is not None:
                assignment.update(
                    _broadcast_assignment(fam, record.best_assignment)
                )
            else:
                assignment.update(record.best_assignment)
        evaluator = evaluator_class(
            node_graph, registry, tp, cost_model, zero_stage
        )
        if uncovered_block is not None:
            # Uncovered nodes interact with the family plans through their
            # boundary conversions, so they are priced against the *full*
            # graph with the family assignment fixed.  Joint enumeration
            # would be exponential in the number of unique nodes; one
            # coordinate-descent pass needs only a few full-graph pricing
            # passes.
            record = coordinate_descent(
                evaluator,
                uncovered_block,
                decision_groups(uncovered_block, registry, tp),
                assignment,
            )
            records.append(record)
            assignment.update(record.best_assignment)
            if metrics.enabled():
                # keep the obs counters equal to the SearchResult totals:
                # the coordinate-descent candidates are part of the search
                metrics.counter("search.candidates", record.candidates,
                                block="uncovered", tp=tp)
                metrics.counter("search.valid", record.valid,
                                block="uncovered", tp=tp)
        with trace.span("price", tp=tp, engine=tier):
            status, cost = evaluator.price(assignment)
        if status != EVAL_VALID:
            return records, None
        full_plan = ShardingPlan.of(
            assignment, tp, name=f"tap-tp{tp}", zero_stage=zero_stage
        )
        return records, (full_plan, cost)

    # Reduction — fixed ascending-degree order with strict first-wins
    # comparison, so the winner is independent of the engine setting.
    winner: Optional[Tuple[ShardingPlan, float]] = None
    family_records: List[FamilySearch] = []
    for tp in degrees:
        records, assembled = assemble(tp)
        family_records.extend(records)
        if assembled is None:
            continue
        if winner is None or assembled[1] < winner[1]:
            winner = assembled

    if winner is None:
        raise RoutingError("no valid plan found for any tensor-parallel degree")
    full_plan, cost = winner
    # No degree was ever routed in full: the winner's RoutedPlan
    # materialises lazily on first ``.routed`` access.  The evaluator
    # already validated the plan, so that walk cannot raise.
    best = SearchResult(
        plan=full_plan,
        cost=cost,
        prune=prune,
        _route_thunk=lambda: route_plan(node_graph, full_plan, registry),
    )
    best.families = family_records
    best.candidates_examined = sum(r.candidates for r in family_records)
    best.valid_plans = sum(r.valid for r in family_records)
    best.bound_skipped = sum(r.bound_skipped for r in family_records)
    best.rows_priced = sum(r.rows_priced for r in family_records)
    best.search_seconds = time.perf_counter() - start
    if metrics.enabled():
        # Whole-search totals (the SearchResult counters) as gauges — the
        # per-sweep ``search.*`` counters already accumulated increments.
        metrics.gauge("search.best_cost", best.cost)
        metrics.gauge("search.tp_degree", full_plan.tp_degree)
        metrics.gauge("search.seconds", best.search_seconds)
        metrics.gauge("search.total_candidates", best.candidates_examined)
        metrics.gauge("search.total_bound_skipped", best.bound_skipped)
    return best
