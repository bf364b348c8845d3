"""Candidate evaluation and the searches of Algorithm 2.

Algorithm 2 (§4.4) has one primitive: route a candidate assignment
(Algorithm 3) and, if it routes, price it.  Two evaluators implement it
behind one interface, with bit-identical statuses and costs:
``price(assignment) -> (status, cost)`` and ``price_batch(base,
variants)``, one ``price`` of ``{**base, **v}`` per variant.

* ``"columnar"`` (the default tier,
  :class:`repro.core.columnar.ColumnarEvaluator`) compiles the graph once
  into struct-of-arrays tables and prices whole batches as numpy
  operations;
* ``"reference"`` (:class:`RouteEvaluator`) is the oracle: a fresh
  :func:`route_plan` and :meth:`CostModel.plan_cost` per candidate.

The searches built on them return one record, :class:`FamilySearch`:

* :func:`search_block_candidates` — the exhaustive block sweep, in
  mixed-radix reflected Gray order (:func:`iter_gray_digits`, Knuth
  7.2.1.1, loopless Algorithm H), where consecutive candidates differ in
  exactly one decision group and the fastest-changing digit drives the
  topologically last group.  The reference tier prices each candidate
  with :meth:`RouteEvaluator.price`; the columnar tier sweeps the same
  order in chunks (:func:`repro.core.columnar.columnar_block_search`)
  under an admissible bound: cost terms are non-negative and IEEE
  addition of non-negative values is monotone, so a valid candidate
  whose routed totals already strictly exceed the incumbent cannot win
  and skips its gradient-stream pricing.
* :func:`coordinate_descent` — one single-move pass on either
  evaluator: each group's options priced with every other choice held
  fixed.

Strict first-wins comparison over the same candidates makes both tiers
select the bit-identical assignment at the bit-identical cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import metrics, trace
from .cost import CostModel
from .graphnode import NodeGraph
from .patterns import PatternRegistry
from .plan import ShardingPlan
from .pruning import SubgraphFamily
from .routing import RoutingError, route_plan

__all__ = [
    "EVAL_VALID",
    "EVAL_INVALID",
    "FamilySearch",
    "RouteEvaluator",
    "coordinate_descent",
    "decision_groups",
    "iter_gray_digits",
    "iter_gray_plans",
    "normalize_engine",
    "search_block_candidates",
]

#: The selectable evaluation tiers: the oracle and the fast path.
ENGINE_TIERS = ("reference", "columnar")


def normalize_engine(engine) -> str:
    """Validate the ``engine=`` knob: ``"columnar"`` or ``"reference"``."""
    if engine in ENGINE_TIERS:
        return engine
    raise ValueError(f"engine must be one of {ENGINE_TIERS}, got {engine!r}")


#: The status of one evaluation, on either evaluator.
EVAL_VALID = 0
EVAL_INVALID = 1


@dataclass
class FamilySearch:
    """Search record for one block (a shared-subgraph family, the whole
    graph, or the uncovered residual) at one TP degree."""

    #: the family searched (``None`` for the whole graph or the residual)
    family: Optional[SubgraphFamily] = None
    tp_degree: int = 0
    candidates: int = 0
    valid: int = 0
    best_assignment: Dict[str, str] = field(default_factory=dict)
    best_cost: float = float("inf")
    #: valid candidates the admissible bound kept from pricing (0 on the
    #: reference tier): ``valid + bound_skipped`` is the oracle's ``valid``
    bound_skipped: int = 0
    #: candidate rows the columnar evaluator computed (0 on the reference
    #: tier); equals ``candidates`` unless a row is priced twice
    rows_priced: int = 0


class RouteEvaluator:
    """The oracle evaluator: a fresh :func:`route_plan` and
    :meth:`CostModel.plan_cost` per assignment.

    Same constructor and methods as
    :class:`repro.core.columnar.ColumnarEvaluator`, so every search runs
    unchanged on either tier.
    """

    #: the oracle computes no candidate rows
    rows_priced = 0

    def __init__(
        self,
        block: NodeGraph,
        registry: PatternRegistry,
        tp_degree: int,
        cost_model: CostModel,
        zero_stage: int = 0,
    ) -> None:
        self.block = block
        self.registry = registry
        self.tp = tp_degree
        self.cost_model = cost_model
        self.zero = zero_stage

    def price(self, assignment: Dict[str, str]) -> Tuple[int, Optional[float]]:
        """Route and price one assignment; weight nodes it does not name
        stay replicated."""
        plan = ShardingPlan.of(assignment, self.tp, zero_stage=self.zero)
        try:
            routed = route_plan(self.block, plan, self.registry)
        except RoutingError:
            return EVAL_INVALID, None
        return EVAL_VALID, self.cost_model.plan_cost(routed)

    def price_batch(
        self, base: Dict[str, str], variants: List[Dict[str, str]]
    ) -> List[Tuple[int, Optional[float]]]:
        """One :meth:`price` of ``{**base, **v}`` per variant."""
        return [self.price({**base, **variant}) for variant in variants]


def decision_groups(
    block: NodeGraph, registry: PatternRegistry, tp_degree: int
) -> List[Tuple[List[str], List[str]]]:
    """Decision groups: (node names sharing the decision, option names).

    Weight nodes that are structurally identical *and* play the same role
    (same basename — ``mha/q`` and ``cross_mha/q``) share one pattern
    decision, mirroring the paper's per-weight-tensor count (3 choices for
    each of the 6 distinct transformer-layer weights → 729 candidates).
    """
    groups: Dict[Tuple, Tuple[List[str], List[str]]] = {}
    for node in block.weight_nodes():
        options = [p.name for p in registry.options(node, tp_degree)]
        if len(options) <= 1:
            continue
        basename = node.name.rsplit("/", 1)[-1]
        key = (node.signature(), basename, tuple(options))
        if key in groups:
            groups[key][0].append(node.name)
        else:
            groups[key] = ([node.name], options)
    return list(groups.values())


def iter_gray_digits(
    groups: List[Tuple[List[str], List[str]]],
    max_plans: int = 50_000,
) -> Iterator[Tuple[Optional[Tuple[int, ...]], Optional[int]]]:
    """Per-group option indices in mixed-radix reflected Gray order.

    The digit-level core of :func:`iter_gray_plans`: yields
    ``(option_indices, changed)`` where ``option_indices[g]`` picks
    ``groups[g][1][option_indices[g]]`` and ``changed`` is the single
    group whose option differs from the previous candidate (``None`` for
    the first).  A trailing ``(None, None)`` stands for the guaranteed
    empty-assignment fallback when the ``max_plans`` guard truncated the
    walk before any all-replicate candidate appeared.  The columnar tier
    consumes this directly — candidate vectors are integer rows, so no
    name dictionaries are materialised per candidate.
    """
    n = len(groups)
    if n == 0:
        yield None, None
        return
    radix = [len(groups[n - 1 - j][1]) for j in range(n)]
    digits = [0] * n
    focus = list(range(n + 1))
    direction = [1] * n
    #: option index per *group* (``digits`` is per Gray digit ``j``, which
    #: drives group ``n-1-j``)
    chosen = [0] * n
    nonreplicate = sum(1 for _, options in groups if options[0] != "replicate")
    replicate_seen = False
    changed: Optional[int] = None
    count = 0
    while count < max_plans:
        if nonreplicate == 0:
            replicate_seen = True
        yield tuple(chosen), changed
        count += 1
        j = focus[0]
        focus[0] = 0
        if j == n:  # every combination visited
            break
        digits[j] += direction[j]
        if digits[j] == 0 or digits[j] == radix[j] - 1:
            direction[j] = -direction[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        changed = n - 1 - j
        options = groups[changed][1]
        was_sharded = options[chosen[changed]] != "replicate"
        now_sharded = options[digits[j]] != "replicate"
        if was_sharded != now_sharded:
            nonreplicate += 1 if now_sharded else -1
        chosen[changed] = digits[j]
    if not replicate_seen:
        yield None, None


def iter_gray_plans(
    groups: List[Tuple[List[str], List[str]]],
    max_plans: int = 50_000,
) -> Iterator[Tuple[Dict[str, str], Optional[int]]]:
    """Assignments over *groups* in mixed-radix reflected Gray order.

    Yields ``(assignment, changed)`` where ``changed`` is the index of the
    single group whose option differs from the previous assignment (``None``
    for the first).  Digit ``j`` of the Gray counter drives group
    ``len(groups)-1-j``: the fastest-changing digit is the *last* group, so
    an enumeration walked with topologically ordered groups maximises the
    prefix consecutive candidates share.

    The first assignment picks every group's first option (``replicate``
    under the default registries).  If the ``max_plans`` guard truncates
    the walk before any all-replicate assignment was produced, the empty
    assignment is yielded last — the search is guaranteed its fallback no
    matter how the enumeration is cut short.
    """
    if not groups:
        yield {}, None
        return
    assignment: Dict[str, str] = {}
    for chosen, changed in iter_gray_digits(groups, max_plans):
        if chosen is None:
            yield {}, None
            continue
        if changed is None:
            for g, (names, options) in enumerate(groups):
                option = options[chosen[g]]
                for name in names:
                    assignment[name] = option
        else:
            names, options = groups[changed]
            option = options[chosen[changed]]
            for name in names:
                assignment[name] = option
        yield dict(assignment), changed




def coordinate_descent(
    evaluator,
    block: NodeGraph,
    groups: List[Tuple[List[str], List[str]]],
    base: Dict[str, str],
) -> FamilySearch:
    """One greedy coordinate-descent pass over *groups* on top of *base*.

    Groups are decided largest weight (in *block*) first.  The base is
    priced once, then each group's non-replicate options are priced in
    one ``price_batch`` with every other choice held fixed, and the
    cheapest is kept if it is strictly cheaper than the incumbent (first
    wins on ties).  ``O(groups x options)`` evaluations instead of the
    product; the record's ``best_assignment`` holds the moves taken, not
    *base*.
    """
    rows_before = evaluator.rows_priced
    record = FamilySearch(tp_degree=evaluator.tp)
    ordered = sorted(
        groups,
        key=lambda g: -max(block.node(n).num_parameters for n in g[0]),
    )
    current: Dict[str, str] = {}
    status, cost = evaluator.price(base)
    record.candidates += 1
    if status == EVAL_VALID:
        record.valid += 1
        record.best_cost = cost
    for names, options in ordered:
        tried = [option for option in options if option != "replicate"]
        outcomes = evaluator.price_batch(
            {**base, **current},
            [{n: option for n in names} for option in tried],
        )
        best_option, best_cost = "replicate", record.best_cost
        for option, (status, cost) in zip(tried, outcomes):
            record.candidates += 1
            if status != EVAL_VALID:
                continue
            record.valid += 1
            if cost < best_cost:
                best_cost, best_option = cost, option
        if best_option != "replicate":
            current.update({n: best_option for n in names})
            record.best_cost = best_cost
    record.best_assignment = current
    record.rows_priced = evaluator.rows_priced - rows_before
    return record


def search_block_candidates(
    block: NodeGraph,
    registry: PatternRegistry,
    tp_degree: int,
    cost_model: CostModel,
    max_plans: int = 50_000,
    engine="columnar",
    zero_stage: int = 0,
) -> FamilySearch:
    """Sweep every candidate assignment of *block* and keep the cheapest.

    ``engine`` selects the evaluation tier (see :func:`normalize_engine`):
    ``"columnar"`` the array-batched, bounded sweep, ``"reference"`` one
    :meth:`RouteEvaluator.price` per candidate — both over the *same*
    Gray-ordered enumeration, so they examine the identical candidate
    sequence and, by strict first-wins comparison, select the identical
    assignment at the identical cost.
    """
    tier = normalize_engine(engine)
    with trace.span(
        "enumerate", block=block.name, tp=tp_degree, engine=tier
    ):
        out = _search_block_candidates(
            block, registry, tp_degree, cost_model, max_plans, tier,
            zero_stage,
        )
    if metrics.enabled():
        # Published once per sweep — never per candidate — so the inner
        # loop stays uninstrumented (the <2% overhead budget).
        metrics.counter("search.candidates", out.candidates, block=block.name)
        metrics.counter("search.valid", out.valid, block=block.name)
        metrics.counter(
            "search.bound_skipped", out.bound_skipped, block=block.name
        )
    return out


def _search_block_candidates(
    block: NodeGraph,
    registry: PatternRegistry,
    tp_degree: int,
    cost_model: CostModel,
    max_plans: int,
    tier: str,
    zero_stage: int,
) -> FamilySearch:
    groups = decision_groups(block, registry, tp_degree)
    if not groups:
        # All-replicate fast path: a block whose every decision group is a
        # single pattern has exactly one candidate — the assembled plan's
        # default — so the family sweep has nothing to enumerate.  Both
        # tiers take this exit, keeping their counters identical.
        return FamilySearch(tp_degree=tp_degree)
    if tier == "columnar":
        from .columnar import columnar_block_search

        return columnar_block_search(
            block, registry, tp_degree, cost_model, max_plans, groups,
            zero_stage,
        )
    out = FamilySearch(tp_degree=tp_degree)
    evaluator = RouteEvaluator(
        block, registry, tp_degree, cost_model, zero_stage
    )
    for assignment, _changed in iter_gray_plans(groups, max_plans):
        out.candidates += 1
        status, cost = evaluator.price(assignment)
        if status != EVAL_VALID:
            continue
        out.valid += 1
        if cost < out.best_cost:
            out.best_cost = cost
            out.best_assignment = assignment
    return out
