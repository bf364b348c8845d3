"""What-if analysis: compare plans and sweep configurations.

The planner answers "what is the best plan for this model on this mesh?";
this module answers the surrounding questions a practitioner asks next:

* how do the named strategies compare on my model / mesh / batch?
* how does the winner change as I scale the batch, the mesh, the fabric?
* where does a given plan's time and memory actually go?

Everything returns plain dataclasses/dicts so callers can feed dashboards
or the bundled text renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .baselines import NAMED_PLANS
from .cluster import Mesh
from .core import (
    CostConfig,
    CostModel,
    DEFAULT_REGISTRY,
    NodeGraph,
    PatternRegistry,
    RoutedPlan,
    RoutingError,
    ShardingPlan,
    derive_plan,
    route_plan,
    what_if_profiles,
)
from .simulator import memory_per_device, simulate_iteration
from .viz import format_table

__all__ = [
    "PlanEvaluation",
    "evaluate_plan",
    "compare_plans",
    "sweep",
    "zero_crossover",
    "render_zero_crossover",
]


@dataclass
class PlanEvaluation:
    """One plan priced on one configuration."""

    name: str
    plan: ShardingPlan
    comm_cost: float
    iteration_time: float
    exposed_comm_time: float
    memory_bytes: int
    valid: bool = True

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / (1 << 30)

    def as_row(self) -> List:
        return [
            self.name,
            f"{self.comm_cost * 1e3:.1f}",
            f"{self.iteration_time * 1e3:.1f}",
            f"{self.exposed_comm_time * 1e3:.1f}",
            f"{self.memory_gb:.2f}",
        ]


def _invalid_evaluation(label: str, plan: ShardingPlan) -> PlanEvaluation:
    return PlanEvaluation(
        name=label, plan=plan, comm_cost=float("inf"),
        iteration_time=float("inf"), exposed_comm_time=float("inf"),
        memory_bytes=0, valid=False,
    )


def _evaluation_from(label, plan, routed, prof, mesh, cfg) -> PlanEvaluation:
    cm = CostModel(mesh, cfg)
    mem = memory_per_device(routed, mesh, cfg)
    return PlanEvaluation(
        name=label,
        plan=plan,
        comm_cost=cm.plan_cost(routed),
        iteration_time=prof.iteration_time,
        exposed_comm_time=prof.exposed_comm_time,
        memory_bytes=mem.total,
    )


def evaluate_plan(
    node_graph: NodeGraph,
    plan: ShardingPlan,
    mesh: Mesh,
    config: Optional[CostConfig] = None,
    registry: PatternRegistry = DEFAULT_REGISTRY,
    name: Optional[str] = None,
) -> PlanEvaluation:
    """Price one plan; invalid plans return a marked, infinite evaluation."""
    label = name or plan.name or "plan"
    try:
        routed = route_plan(node_graph, plan, registry)
    except RoutingError:
        return _invalid_evaluation(label, plan)
    cfg = config or CostConfig()
    prof = simulate_iteration(routed, mesh, cfg)
    return _evaluation_from(label, plan, routed, prof, mesh, cfg)


def compare_plans(
    node_graph: NodeGraph,
    mesh: Mesh,
    tp_degree: Optional[int] = None,
    config: Optional[CostConfig] = None,
    include_tap: bool = True,
    extra_plans: Optional[Dict[str, ShardingPlan]] = None,
) -> List[PlanEvaluation]:
    """Evaluate the named strategies (and TAP's pick) side by side.

    The candidate set is routed up front and simulated as **one**
    columnar batch (:func:`repro.core.what_if_profiles`) rather than one
    event-loop replay per plan.  Returns evaluations sorted by
    communication cost (TAP's objective).
    """
    tp = tp_degree if tp_degree is not None else mesh.gpus_per_node
    labelled: List = [
        (name, builder(node_graph, tp)) for name, builder in NAMED_PLANS.items()
    ]
    if include_tap:
        result = derive_plan(node_graph, mesh, cost_config=config)
        labelled.append(("tap", result.plan))
    for name, plan in (extra_plans or {}).items():
        labelled.append((name, plan))

    cfg = config or CostConfig()
    outcomes = what_if_profiles(
        node_graph, [plan for _, plan in labelled], mesh, cfg
    )
    evaluations: List[PlanEvaluation] = []
    for (label, plan), outcome in zip(labelled, outcomes):
        if outcome is None:
            evaluations.append(_invalid_evaluation(label, plan))
        else:
            routed, prof = outcome
            evaluations.append(
                _evaluation_from(label, plan, routed, prof, mesh, cfg)
            )
    evaluations.sort(key=lambda e: e.comm_cost)
    return evaluations


def sweep(
    node_graph: NodeGraph,
    configurations: Dict[str, Mesh],
    batch_tokens: Sequence[int] = (16 * 512,),
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> List[Dict]:
    """Derive TAP's plan across meshes × batch sizes.

    Returns one record per configuration: the discovered plan summary, its
    cost and the simulated step time — the raw data behind "how does the
    best plan move as my system changes?".  Each point is a different
    (mesh, config) pair, so the step times come from per-point
    ``simulate_iteration`` calls rather than one batch (batching shares
    a mesh/config across plans).
    """
    records: List[Dict] = []
    for mesh_name, mesh in configurations.items():
        for tokens in batch_tokens:
            cfg = CostConfig(batch_tokens=tokens)
            result = derive_plan(node_graph, mesh, registry=registry,
                                 cost_config=cfg)
            prof = simulate_iteration(result.routed, mesh, cfg)
            records.append(
                {
                    "mesh": mesh_name,
                    "batch_tokens": tokens,
                    "tp_degree": result.tp_degree,
                    "num_sharded": result.plan.num_sharded,
                    "plan": result.plan.describe(),
                    "comm_cost": result.cost,
                    "iteration_time": prof.iteration_time,
                    "search_seconds": result.search_seconds,
                }
            )
    return records


def zero_crossover(
    node_graph: NodeGraph,
    mesh: Mesh,
    config: Optional[CostConfig] = None,
    tp_degree: Optional[int] = None,
    stages: Sequence[int] = (0, 1, 2),
    registry: PatternRegistry = DEFAULT_REGISTRY,
) -> List[Dict]:
    """The memory-vs-communication trade of the ZeRO axis, per stage.

    Derives TAP's plan once (stage 0), then re-routes the *same*
    assignment at each requested ``zero_stage`` so every point prices an
    identical sharding — only the weight-update scheme differs.  Each
    record reports the per-device memory breakdown, the simulated step
    anatomy, and the deltas against stage 0: ``memory_saved_bytes`` (what
    sharding the optimizer state / gradients buys) versus
    ``comm_added_time`` (what the post-step weight all-gather costs).
    The crossover question — "is ZeRO worth it here?" — is answered by
    where the saved bytes start mattering more than the added seconds.
    """
    cfg = config or CostConfig()
    result = derive_plan(
        node_graph,
        mesh,
        registry=registry,
        cost_config=cfg,
        tp_degrees=(tp_degree,) if tp_degree is not None else None,
    )
    base_record: Optional[Dict] = None
    records: List[Dict] = []
    for stage in stages:
        plan = ShardingPlan.of(
            dict(result.plan.assignment),
            result.plan.tp_degree,
            name=f"{result.plan.name or 'tap'}-zero{stage}",
            zero_stage=stage,
        )
        routed = route_plan(node_graph, plan, registry)
        prof = simulate_iteration(routed, mesh, cfg)
        mem = memory_per_device(routed, mesh, cfg)
        record = {
            "zero_stage": stage,
            "tp_degree": plan.tp_degree,
            "dp_degree": mesh.num_devices // plan.tp_degree,
            "optimizer_bytes": mem.optimizer,
            "gradient_bytes": mem.gradients,
            "memory_bytes": mem.total,
            "iteration_time": prof.iteration_time,
            "comm_time": prof.comm_time,
            "gradient_sync_time": prof.gradient_sync_time,
            "weight_gather_time": prof.weight_gather_time,
        }
        if base_record is None:
            base_record = record
        record["memory_saved_bytes"] = (
            base_record["memory_bytes"] - record["memory_bytes"]
        )
        record["comm_added_time"] = (
            record["comm_time"] - base_record["comm_time"]
        )
        records.append(record)
    return records


def render_zero_crossover(records: List[Dict], title: str = "") -> str:
    """Text table of a :func:`zero_crossover` result."""
    rows = []
    for r in records:
        rows.append(
            [
                str(r["zero_stage"]),
                f"{r['optimizer_bytes'] / (1 << 30):.3f}",
                f"{r['gradient_bytes'] / (1 << 30):.3f}",
                f"{r['memory_bytes'] / (1 << 30):.3f}",
                f"{r['memory_saved_bytes'] / (1 << 30):.3f}",
                f"{r['weight_gather_time'] * 1e3:.2f}",
                f"{r['comm_added_time'] * 1e3:.2f}",
                f"{r['iteration_time'] * 1e3:.2f}",
            ]
        )
    return format_table(
        ["stage", "opt (GB)", "grad (GB)", "total (GB)", "saved (GB)",
         "wgather (ms)", "comm Δ (ms)", "step (ms)"],
        rows,
        title=title or "ZeRO memory/communication crossover",
    )


def render_comparison(evaluations: List[PlanEvaluation], title: str = "") -> str:
    """Text table of a :func:`compare_plans` result."""
    return format_table(
        ["plan", "comm cost (ms)", "step (ms)", "exposed comm (ms)",
         "memory (GB)"],
        [e.as_row() for e in evaluations if e.valid],
        title=title,
    )
