"""The communication-based cost model (§4.6).

The model prices a routed plan on a concrete mesh:

* **Forward phase** — layer computation blocks on its input, so forward
  collectives serialise with compute: they sum along the critical path.
* **Backward phase** — activation-gradient collectives over the TP axis
  serialise, but weight-gradient synchronisation over the DP axis is
  independent of the update stage and *overlaps* with backward compute
  (§4.6 "gradient overlap/aggregation"); only the excess spills into the
  critical path.  Gradient packing (§4.7.1) first fuses the per-variable
  packets so small tensors stop paying per-collective latency.
* **Trainable-only rule** — only non-constant parameters communicate in the
  backward phase; routing already encodes this (frozen weights emit no
  gradient events).
* **Collective efficiency** — AllGather/AllToAll move bytes slower than
  NCCL's AllReduce; inherited from :mod:`repro.cluster.collectives` and
  switchable for the ablation.

``plan_cost`` is the scalar Algorithm 2 minimises (communication seconds by
default, matching the paper); ``estimate`` returns the full breakdown the
benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster import DeviceGroup, Mesh, collective_time
from .packing import PackingConfig, pack_gradients
from .plan import CommEvent, NodeShard, RoutedPlan

__all__ = ["CostConfig", "CostBreakdown", "CostModel", "plan_cost"]

#: Term kinds produced by :meth:`CostModel.shard_terms` — where one priced
#: communication event (or gradient packet) lands in the breakdown.
TERM_FWD_COMM = 0
TERM_BWD_TP_COMM = 1
TERM_GRAD_DP = 2
TERM_GRAD_ALL = 3

#: Bound on the per-shard terms cache: enough for every shard of the
#: largest zoo graphs plus search churn, small enough to stay off the heap
#: profile.  Eviction is FIFO and deterministic (a miss just recomputes).
_SHARD_CACHE_LIMIT = 32_768


@dataclass(frozen=True)
class CostConfig:
    """Cost-model knobs.

    ``objective`` selects what :meth:`CostModel.plan_cost` returns:
    ``"comm"`` (the paper's pure communication cost), ``"time"`` (estimated
    iteration time, used by the cost-model ablation).
    """

    batch_tokens: int = 16 * 512
    packing: PackingConfig = field(default_factory=PackingConfig)
    use_efficiency: bool = True
    overlap_gradients: bool = True
    objective: str = "comm"
    backward_flops_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.batch_tokens <= 0:
            raise ValueError("batch_tokens must be positive")
        if self.objective not in ("comm", "time"):
            raise ValueError(f"bad objective {self.objective!r}")


@dataclass
class CostBreakdown:
    """Where an iteration's time goes under a plan."""

    forward_compute: float = 0.0
    backward_compute: float = 0.0
    forward_comm: float = 0.0
    backward_tp_comm: float = 0.0
    gradient_comm: float = 0.0        # dp-axis sync, before overlap
    overlapped_gradient_comm: float = 0.0  # what overlap hides
    #: post-step all-gather of updated weight shards (ZeRO stage >= 1);
    #: exposed — it sits between the optimizer step and the next forward.
    weight_gather_comm: float = 0.0
    num_gradient_buckets: int = 0

    @property
    def compute_time(self) -> float:
        return self.forward_compute + self.backward_compute

    @property
    def comm_time(self) -> float:
        """Total communication on the critical path."""
        exposed_grad = self.gradient_comm - self.overlapped_gradient_comm
        return (
            self.forward_comm + self.backward_tp_comm + exposed_grad
        ) + self.weight_gather_comm

    @property
    def total_comm_time(self) -> float:
        """All communication, whether or not overlap hides it."""
        return (
            self.forward_comm + self.backward_tp_comm + self.gradient_comm
        ) + self.weight_gather_comm

    @property
    def iteration_time(self) -> float:
        return self.compute_time + self.comm_time

    def as_dict(self) -> Dict[str, float]:
        return {
            "forward_compute": self.forward_compute,
            "backward_compute": self.backward_compute,
            "forward_comm": self.forward_comm,
            "backward_tp_comm": self.backward_tp_comm,
            "gradient_comm": self.gradient_comm,
            "overlapped_gradient_comm": self.overlapped_gradient_comm,
            "weight_gather_comm": self.weight_gather_comm,
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "iteration_time": self.iteration_time,
        }


class CostModel:
    """Prices routed plans on one mesh."""

    def __init__(self, mesh: Mesh, config: CostConfig | None = None) -> None:
        self.mesh = mesh
        self.config = config or CostConfig()
        self._groups_cache: Dict[
            int, Tuple[DeviceGroup, DeviceGroup, DeviceGroup]
        ] = {}
        #: id(shard) → (shard, t_fwd, terms); the strong shard reference
        #: pins the id, so entries can never alias a recycled object.
        self._shard_terms_cache: Dict[
            Tuple[int, int], Tuple[NodeShard, float, Tuple]
        ] = {}

    # ------------------------------------------------------------------
    # device groups for a plan's tp/dp factorisation
    # ------------------------------------------------------------------
    def groups(self, tp_degree: int) -> Tuple[DeviceGroup, DeviceGroup, DeviceGroup]:
        """(tp group, dp group, all group) for the canonical packed layout.

        TP groups are ``tp`` consecutive devices (filling nodes first); the
        DP group for shard gradient sync strides across TP groups, so it
        spans nodes as soon as replicas live on different nodes; the *all*
        group (data-parallel gradient sync of replicated weights) covers
        the whole mesh.  Groups are representative — all TP groups are
        isomorphic under the packed layout, so pricing one suffices.

        Built once per ``(mesh, tp_degree)`` and reused: Algorithm 2 prices
        thousands of candidates per degree and the three groups never
        change within one.
        """
        cached = self._groups_cache.get(tp_degree)
        if cached is not None:
            return cached
        P = self.mesh.num_devices
        if tp_degree < 1 or P % tp_degree != 0:
            raise ValueError(
                f"tp_degree {tp_degree} must divide device count {P}"
            )
        tp_group = self.mesh.group(list(range(tp_degree)))
        dp = P // tp_degree
        dp_group = self.mesh.group([k * tp_degree for k in range(dp)])
        out = (tp_group, dp_group, self.mesh.group())
        self._groups_cache[tp_degree] = out
        return out

    def dp_degree(self, tp_degree: int) -> int:
        return self.mesh.num_devices // tp_degree

    # ------------------------------------------------------------------
    def shard_terms(
        self,
        shard: NodeShard,
        tokens_per_replica: int,
        groups: Dict[str, DeviceGroup],
    ) -> Tuple[float, Tuple[Tuple[int, float], ...]]:
        """(t_fwd, priced terms) for one shard — the memoized unit of cost.

        Each term is ``(kind, value)``: a forward / backward-TP collective
        time, or a gradient packet's byte count destined for the dp/all
        sync stream.  Terms are cached per shard object: a shard priced
        again (the many estimates of one search) is priced once, and a
        replayed term is the *same float* the direct computation produces,
        keeping cached and fresh pricing bit-identical.
        """
        # safe id-key: the cached entry pins the shard (strong ref) and the
        # hit path re-checks identity below, so a recycled id can never alias
        key = (id(shard), tokens_per_replica)  # repro-lint: ignore[cache-key]
        hit = self._shard_terms_cache.get(key)
        if hit is not None and hit[0] is shard:
            return hit[1], hit[2]
        cfg = self.config
        t_fwd = (
            shard.flops * tokens_per_replica * shard.compute_share
            / self.mesh.effective_flops
        )
        terms: List[Tuple[int, float]] = []
        for ev in shard.events:
            if ev.overlappable and ev.axis in ("dp", "all"):
                terms.append(
                    (
                        TERM_GRAD_DP if ev.axis == "dp" else TERM_GRAD_ALL,
                        ev.nbytes(tokens_per_replica),
                    )
                )
                continue
            t = collective_time(
                ev.collective,
                ev.nbytes(tokens_per_replica),
                groups[ev.axis],
                use_efficiency=cfg.use_efficiency,
            )
            terms.append(
                (TERM_FWD_COMM if ev.phase == "forward" else TERM_BWD_TP_COMM, t)
            )
        if len(self._shard_terms_cache) >= _SHARD_CACHE_LIMIT:
            self._shard_terms_cache.pop(next(iter(self._shard_terms_cache)))
        out = (shard, t_fwd, tuple(terms))
        self._shard_terms_cache[key] = out
        return out[1], out[2]

    def estimate(self, routed: RoutedPlan) -> CostBreakdown:
        """Full cost breakdown of one routed plan."""
        cfg = self.config
        tp_group, dp_group, all_group = self.groups(routed.tp_degree)
        groups = {"tp": tp_group, "dp": dp_group, "all": all_group}
        dp = self.dp_degree(routed.tp_degree)
        tokens_per_replica = max(cfg.batch_tokens // dp, 1)

        bd = CostBreakdown()
        # Gradient streams are packed and priced per synchronisation group.
        grad_streams: Dict[str, List[int]] = {"dp": [], "all": []}

        for name in routed.order:
            shard = routed.shards[name]
            t_fwd, terms = self.shard_terms(shard, tokens_per_replica, groups)
            # compute ----------------------------------------------------
            bd.forward_compute += t_fwd
            bd.backward_compute += cfg.backward_flops_factor * t_fwd
            # communication ----------------------------------------------
            for kind, value in terms:
                if kind == TERM_FWD_COMM:
                    bd.forward_comm += value
                elif kind == TERM_BWD_TP_COMM:
                    bd.backward_tp_comm += value
                elif kind == TERM_GRAD_DP:
                    grad_streams["dp"].append(value)
                else:
                    grad_streams["all"].append(value)

        # gradient synchronisation: pack, then price over each group ------
        # ZeRO stage >= 1 replaces the all-reduce with a reduce-scatter of
        # the same buckets (each replica keeps only its 1/dp slice to step
        # its optimizer shard) plus a post-step all-gather of the updated
        # weights, priced separately below.  With zero_stage=0 the call
        # sequence is byte-for-byte today's, keeping costs bit-identical.
        zero = routed.plan.zero_stage
        grad_collective = "reduce_scatter" if zero >= 1 else "all_reduce"
        grad_time = 0.0
        for axis, stream in grad_streams.items():
            buckets = pack_gradients(stream, cfg.packing)
            bd.num_gradient_buckets += len(buckets)
            grad_time += sum(
                collective_time(
                    grad_collective,
                    b.nbytes,
                    groups[axis],
                    use_efficiency=cfg.use_efficiency,
                )
                for b in buckets
            )
        bd.gradient_comm = grad_time
        if zero >= 1:
            gather_time = 0.0
            for axis in ("dp", "all"):
                stream = grad_streams[axis]
                gather_time += sum(
                    collective_time(
                        "all_gather",
                        b.nbytes,
                        groups[axis],
                        use_efficiency=cfg.use_efficiency,
                    )
                    for b in pack_gradients(stream, cfg.packing)
                )
            bd.weight_gather_comm = gather_time
        if cfg.overlap_gradients:
            bd.overlapped_gradient_comm = min(grad_time, bd.backward_compute)
        return bd

    def plan_cost(self, routed: RoutedPlan) -> float:
        """Scalar objective Algorithm 2 minimises."""
        bd = self.estimate(routed)
        if self.config.objective == "comm":
            return bd.comm_time
        return bd.iteration_time


def plan_cost(
    routed: RoutedPlan, mesh: Mesh, config: Optional[CostConfig] = None
) -> float:
    """Convenience wrapper over :class:`CostModel`."""
    return CostModel(mesh, config).plan_cost(routed)
