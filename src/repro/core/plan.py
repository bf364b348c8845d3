"""Plan data structures: assignments, routed plans, communication events.

A :class:`ShardingPlan` is what the search enumerates — a mapping from
weight-carrying GraphNode names to pattern names plus the tensor-parallel
degree.  Routing (Algorithm 3) elaborates it into a :class:`RoutedPlan`
with per-node layouts and the full list of :class:`CommEvent`\\ s, which the
cost model, the simulator and the numeric runtime all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph import TensorSpec

__all__ = ["ShardingPlan", "CommEvent", "NodeShard", "RoutedPlan"]


@dataclass(frozen=True)
class ShardingPlan:
    """Search-level plan: pattern choice per weight node + TP degree.

    ``assignment`` keys are GraphNode names (within the searched block or
    the full node graph); nodes not mentioned default to ``replicate``.
    ``zero_stage`` adds the optimizer-state sharding axis (ZeRO/GSPMD
    weight-update sharding): 0 keeps today's replicated update (gradient
    sync is a plain all-reduce), 1 shards optimizer state 1/dp (gradient
    sync becomes reduce-scatter + a post-step all-gather of the updated
    weights), 2 additionally shards the persisted gradients 1/dp.
    """

    assignment: Tuple[Tuple[str, str], ...]
    tp_degree: int = 1
    name: str = ""
    zero_stage: int = 0

    def __post_init__(self) -> None:
        if self.tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        if self.zero_stage not in (0, 1, 2):
            raise ValueError(
                f"zero_stage must be 0, 1 or 2, got {self.zero_stage!r}"
            )

    @staticmethod
    def of(
        assignment: Dict[str, str],
        tp_degree: int = 1,
        name: str = "",
        zero_stage: int = 0,
    ) -> "ShardingPlan":
        return ShardingPlan(
            tuple(sorted(assignment.items())), tp_degree, name, zero_stage
        )

    @property
    def as_dict(self) -> Dict[str, str]:
        return dict(self.assignment)

    def pattern_for(self, node_name: str) -> str:
        return self.as_dict.get(node_name, "replicate")

    @property
    def num_sharded(self) -> int:
        return sum(1 for _, p in self.assignment if p != "replicate")

    def describe(self) -> str:
        """Compact human-readable form used in logs and Fig. 14 rendering.

        Plans broadcast over many layer instances summarise as pattern
        counts instead of listing every node.
        """
        sharded = [(k, v) for k, v in self.assignment if v != "replicate"]
        if not sharded:
            return f"tp={self.tp_degree} (pure data parallel)"
        parts = [f"tp={self.tp_degree}"]
        if len(sharded) <= 8:
            parts.extend(f"{k}:{v}" for k, v in sharded)
        else:
            counts: Dict[str, int] = {}
            for k, v in sharded:
                key = f"{k.rsplit('/', 1)[-1]}:{v}"
                counts[key] = counts.get(key, 0) + 1
            parts.extend(f"{key} x{n}" for key, n in sorted(counts.items()))
        return " ".join(parts)


@dataclass(frozen=True)
class CommEvent:
    """One collective implied by the plan.

    ``axis`` selects the device group: ``tp`` collectives run inside a
    tensor-parallel group, ``dp`` collectives synchronise one weight shard
    across replicas, ``all`` collectives (data-parallel gradient sync of
    replicated weights) span every device.  ``spec`` is the *logical*
    tensor moved; ``scales_with_batch`` marks activation traffic whose
    leading symbolic dim multiplies by the per-replica token count.
    """

    phase: str                  # "forward" | "backward"
    collective: str
    axis: str                   # "tp" | "dp" | "all"
    spec: TensorSpec
    scales_with_batch: bool
    node: str                   # GraphNode that caused it (debugging / viz)
    overlappable: bool = False  # gradient sync may overlap backward compute
    src: str = ""               # producer GraphNode, for edge conversions

    def __post_init__(self) -> None:
        if self.phase not in ("forward", "backward"):
            raise ValueError(f"bad phase {self.phase!r}")
        if self.axis not in ("tp", "dp", "all"):
            raise ValueError(f"bad axis {self.axis!r}")

    def nbytes(self, tokens_per_replica: int) -> int:
        """Logical bytes moved given the per-DP-replica token count."""
        if self.scales_with_batch and self.spec.has_symbolic_batch:
            return self.spec.with_batch(tokens_per_replica).size_bytes
        return self.spec.size_bytes


@dataclass
class NodeShard:
    """Routing outcome for one GraphNode."""

    name: str
    kind: str
    pattern: str
    input_layout: str
    output_layout: str
    #: per-device bytes of this node's weights under the plan
    local_weight_bytes: int = 0
    #: total (unsharded) bytes of this node's weights
    full_weight_bytes: int = 0
    #: per-device trainable parameter count under the plan
    local_parameters: int = 0
    #: fraction of the node's FLOPs each device executes (1.0 = redundant)
    compute_share: float = 1.0
    #: the node's total forward FLOPs per token (before sharing)
    flops: int = 0
    #: True when this node's backward produces *partial* input gradients
    #: that must be reduced across the TP group (column-parallel weights —
    #: the Megatron f operator); routing folds the reduction into the
    #: inbound hop's backward collective.
    bwd_input_reduction: bool = False
    #: spec of the node's output activation
    output_spec: Optional[TensorSpec] = None
    events: List[CommEvent] = field(default_factory=list)


@dataclass
class RoutedPlan:
    """Fully elaborated plan: layouts, shards and collectives for every node."""

    plan: ShardingPlan
    shards: Dict[str, NodeShard] = field(default_factory=dict)
    #: names in topological order, for the simulator's event replay
    order: List[str] = field(default_factory=list)
    #: deduplicated layout conversions: (producer node, target layout) →
    #: forward collective name.  One all_gather of a producer's output
    #: serves every consumer demanding the same layout; the rewriter keys
    #: its spliced communication ops off this table.
    conversions: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: compiled columnar tapes keyed by ("columnar", mesh, cost config) —
    #: populated lazily by the simulator, never serialised or compared.
    #: Stale only if shards/order are mutated after a simulation, which no
    #: caller does (routing builds the plan once, consumers read it).
    _sim_cache: Dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def tp_degree(self) -> int:
        return self.plan.tp_degree

    @property
    def zero_stage(self) -> int:
        return self.plan.zero_stage

    def events(self, phase: Optional[str] = None) -> List[CommEvent]:
        out: List[CommEvent] = []
        for name in self.order:
            for ev in self.shards[name].events:
                if phase is None or ev.phase == phase:
                    out.append(ev)
        return out

    def total_local_weight_bytes(self) -> int:
        return sum(s.local_weight_bytes for s in self.shards.values())

    def total_local_parameters(self) -> int:
        return sum(s.local_parameters for s in self.shards.values())
