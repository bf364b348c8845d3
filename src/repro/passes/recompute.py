"""Activation recomputation / gradient checkpointing (§4.8).

The paper suggests gradient checkpointing to offload selected GraphNodes.
This pass selects which nodes checkpoint (keep their output) and which
recompute during the backward pass (drop their stored activations), using
the classic sqrt-N segment policy over the repeated layer blocks.

The policy integrates with the rest of the system through two optional
hooks:

* :meth:`RecomputePolicy.activation_multiplier` — the memory model drops
  activations of recomputed nodes;
* :meth:`RecomputePolicy.backward_factor` — the simulator charges each
  recomputed node one extra forward pass during backward (the aggregate
  :meth:`RecomputePolicy.backward_compute_multiplier` form remains for
  closed-form models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from ..core.graphnode import NodeGraph
from ..core.pruning import PruneResult, prune_graph

__all__ = ["RecomputePolicy", "select_recompute_scopes"]


@dataclass
class RecomputePolicy:
    """Which GraphNodes recompute instead of storing activations."""

    recompute_nodes: Set[str] = field(default_factory=set)
    checkpoint_nodes: Set[str] = field(default_factory=set)
    #: forward FLOPs of recomputed nodes as a fraction of total forward FLOPs
    recompute_flops_fraction: float = 0.0

    @property
    def enabled(self) -> bool:
        return bool(self.recompute_nodes)

    def stores_activation(self, node_name: str) -> bool:
        """False when this node's output is rematerialised in backward."""
        return node_name not in self.recompute_nodes

    def backward_factor(self, node_name: str, base_factor: float) -> float:
        """Per-node backward FLOPs factor under this policy.

        A recomputed node replays its forward pass before differentiating,
        so its backward costs one extra forward (+1.0 on the base factor);
        checkpointed and unique nodes keep the base factor.  Both simulator
        tiers charge this per node (the columnar tape keys its signatures
        on it), which keeps the cost where the schedule puts it instead of
        smearing it across the whole pass.
        """
        if node_name in self.recompute_nodes:
            return base_factor + 1.0
        return base_factor

    def backward_compute_multiplier(self) -> float:
        """Aggregate backward growth from recomputation.

        The coarse, whole-pass form of :meth:`backward_factor` — equal in
        total FLOPs when compute is uniform.  Kept for closed-form models
        that have no per-node schedule to charge.
        """
        return 1.0 + self.recompute_flops_fraction / 2.0


def select_recompute_scopes(
    node_graph: NodeGraph,
    min_duplicate: int = 2,
    keep_every: int = 0,
) -> RecomputePolicy:
    """sqrt-N checkpointing over the shared-subgraph families.

    Each repeated family (the transformer/conv layer stacks) is segmented:
    one instance in every ``ceil(sqrt(multiplicity))`` keeps its
    activations (a checkpoint); the rest recompute.  ``keep_every``
    overrides the segment length when positive.  Unique nodes always store
    — they are few and often feed many consumers.
    """
    prune = prune_graph(node_graph, min_duplicate=min_duplicate)
    policy = RecomputePolicy()
    total_flops = sum(n.flops for n in node_graph) or 1

    for family in prune.families:
        m = family.multiplicity
        segment = keep_every if keep_every > 0 else max(int(math.isqrt(m)), 1)
        for idx, members in enumerate(family.member_nodes):
            if idx % segment == 0:
                policy.checkpoint_nodes.update(members)
            else:
                policy.recompute_nodes.update(members)

    recompute_flops = sum(
        node_graph.node(n).flops for n in policy.recompute_nodes
    )
    policy.recompute_flops_fraction = recompute_flops / total_flops
    return policy
