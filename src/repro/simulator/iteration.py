"""Event-level simulation of one training iteration under a plan.

Unlike the closed-form cost model (used inside the search loop, where speed
matters), this simulator replays the routed plan's node order on a
compute channel and a communication channel:

* forward — each node's compute blocks on its inputs; layout-conversion
  collectives serialise between the producing and consuming compute tasks
  (§4.6: "the computation of the current layer is blocked until the input
  arrives").
* backward — nodes replay in reverse; activation-gradient collectives
  serialise, while weight-gradient buckets (fused per §4.7.1) are submitted
  to the communication channel the moment their last member gradient is
  produced, overlapping transmission with the remaining backward compute.

The exposed communication time, bubble sizes and phase breakdown come out
of the channel logs, not from closed-form ``min``/``max`` bounds.

Two tiers produce that timeline (``engine=`` selects one):

* ``engine="columnar"`` (the default) — :mod:`.columnar`: each distinct
  node signature is priced once into struct-of-arrays columns, cached on
  the :class:`RoutedPlan` per (mesh, config), and replayed as prefix
  sums; a single plan is a batch of one through ``simulate_batch``.
* ``engine="reference"`` — the oracle event loop below: every node of
  every layer instance re-prices its collectives and re-submits its
  tasks one by one.

Both are bit-exact: same :class:`IterationProfile` numbers, same task
names, starts and durations in the engine log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster import Mesh, collective_time
from ..core.cost import CostConfig, CostModel
from ..core.evaluate import normalize_engine
from ..core.packing import pack_gradients
from ..core.plan import RoutedPlan
from ..obs import metrics, trace

__all__ = ["IterationProfile", "simulate_iteration"]


@dataclass
class IterationProfile:
    """Simulated wall-clock anatomy of one training step."""

    forward_time: float = 0.0
    backward_time: float = 0.0
    iteration_time: float = 0.0
    compute_time: float = 0.0         # busy compute, both phases
    comm_time: float = 0.0            # busy communication, both phases
    exposed_comm_time: float = 0.0    # comm not hidden behind compute
    gradient_sync_time: float = 0.0   # busy time of gradient buckets
    weight_gather_time: float = 0.0   # busy time of ZeRO weight all-gathers
    num_gradient_buckets: int = 0
    #: the engine that produced this profile (for chrome-trace export)
    engine: object = None

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of communication hidden behind compute."""
        if self.comm_time <= 0:
            return 1.0
        return 1.0 - self.exposed_comm_time / self.comm_time

    def as_dict(self) -> Dict[str, float]:
        return {
            "forward_time": self.forward_time,
            "backward_time": self.backward_time,
            "iteration_time": self.iteration_time,
            "compute_time": self.compute_time,
            "comm_time": self.comm_time,
            "exposed_comm_time": self.exposed_comm_time,
            "gradient_sync_time": self.gradient_sync_time,
            "weight_gather_time": self.weight_gather_time,
            "num_gradient_buckets": self.num_gradient_buckets,
            "overlap_efficiency": self.overlap_efficiency,
        }


def simulate_iteration(
    routed: RoutedPlan,
    mesh: Mesh,
    config: Optional[CostConfig] = None,
    recompute=None,
    *,
    engine="columnar",
) -> IterationProfile:
    """Replay one iteration of *routed* on *mesh* at event granularity.

    ``recompute`` is an optional :class:`repro.passes.RecomputePolicy`;
    nodes it marks re-run their forward computation during backward
    (gradient checkpointing's time cost).

    ``engine`` selects the simulation tier, validated like the search's
    (:func:`repro.core.normalize_engine`): ``"columnar"`` (the default)
    is the prefix-sum array replay, ``"reference"`` the per-task event
    loop.  Both are bit-exact — same profile, same task log — so the
    reference loop serves as the oracle for the property tests,
    mirroring ``derive_plan(engine=...)``.

    On the columnar tier a freshly compiled tape always runs its
    structural invariants (the ``sim/tape-columnar`` rule) before first
    use.
    """
    cfg = config or CostConfig()
    tier = normalize_engine(engine)
    with trace.span(
        "simulate",
        nodes=len(routed.order),
        tp=routed.tp_degree,
        engine=tier,
    ):
        if tier == "reference":
            prof = _simulate_reference(routed, mesh, cfg, recompute)
        else:
            from .columnar import simulate_batch

            prof = simulate_batch([routed], mesh, cfg, recompute)[0]
    if metrics.enabled():
        metrics.gauge("sim.iteration_time", prof.iteration_time)
        metrics.gauge("sim.overlap_efficiency", prof.overlap_efficiency)
    return prof


def _simulate_reference(
    routed: RoutedPlan, mesh: Mesh, cfg: CostConfig, recompute
) -> IterationProfile:
    """The per-task event loop (the columnar tier's oracle)."""
    from .engine import Engine

    base_factor = cfg.backward_flops_factor
    rec = recompute if (recompute is not None and recompute.enabled) else None
    cm = CostModel(mesh, cfg)
    tp_group, dp_group, all_group = cm.groups(routed.tp_degree)
    groups = {"tp": tp_group, "dp": dp_group, "all": all_group}
    dp = cm.dp_degree(routed.tp_degree)
    tokens = max(cfg.batch_tokens // dp, 1)

    engine = Engine()
    compute = engine.channel("compute")
    comm = engine.channel("comm")

    prof = IterationProfile()

    def comm_seconds(ev) -> float:
        return collective_time(
            ev.collective,
            ev.nbytes(tokens),
            groups[ev.axis],
            use_efficiency=cfg.use_efficiency,
        )

    # ------------------------------------------------------------------
    # forward pass: conversions gate the consuming node's compute
    # ------------------------------------------------------------------
    for name in routed.order:
        shard = routed.shards[name]
        ready = compute.free_at
        for ev in shard.events:
            if ev.phase != "forward":
                continue
            t = comm.submit(f"fwd:{ev.collective}@{name}", comm_seconds(ev), ready=ready)
            ready = max(ready, t.end)
        t_compute = shard.flops * tokens * shard.compute_share / mesh.effective_flops
        compute.submit(f"fwd:{name}", t_compute, ready=ready)
    prof.forward_time = engine.makespan

    # ------------------------------------------------------------------
    # backward pass: reverse order; gradient buckets overlap
    # ------------------------------------------------------------------
    backward_start = engine.makespan
    compute.free_at = max(compute.free_at, backward_start)
    comm.free_at = max(comm.free_at, backward_start)

    # Assemble the gradient streams in backward (reverse) order, remembering
    # which node index produces each packet so buckets fire on time.
    reverse = list(reversed(routed.order))
    grad_packets: Dict[str, List[tuple]] = {"dp": [], "all": []}

    for name in reverse:
        shard = routed.shards[name]
        ready = compute.free_at
        for ev in shard.events:
            if ev.phase != "backward" or ev.overlappable:
                continue
            t = comm.submit(f"bwd:{ev.collective}@{name}", comm_seconds(ev), ready=ready)
            ready = max(ready, t.end)
        bwd_factor = (
            rec.backward_factor(name, base_factor) if rec is not None else base_factor
        )
        t_compute = (
            bwd_factor
            * shard.flops
            * tokens
            * shard.compute_share
            / mesh.effective_flops
        )
        task = compute.submit(f"bwd:{name}", t_compute, ready=ready)
        for ev in shard.events:
            if ev.phase == "backward" and ev.overlappable:
                grad_packets[ev.axis].append((task.end, ev.nbytes(tokens)))

    # Fuse packets in production order and submit each bucket when its last
    # member is available (§4.7.1's pipelining of sync with updates).  With
    # the ZeRO axis on, the reduction is a reduce-scatter — each replica
    # keeps its 1/dp gradient slice for the sharded optimizer step.
    grad_collective = (
        "reduce_scatter" if routed.plan.zero_stage >= 1 else "all_reduce"
    )
    for axis, packets in grad_packets.items():
        if not packets:
            continue
        sizes = [p[1] for p in packets]
        buckets = pack_gradients(sizes, cfg.packing)
        prof.num_gradient_buckets += len(buckets)
        idx = 0
        for bucket in buckets:
            members = packets[idx : idx + bucket.num_tensors]
            idx += bucket.num_tensors
            ready = max(m[0] for m in members)
            seconds = collective_time(
                grad_collective, bucket.nbytes, groups[axis],
                use_efficiency=cfg.use_efficiency,
            )
            t = comm.submit(f"grad:{axis}", seconds, ready=ready)
            prof.gradient_sync_time += t.duration

    # Post-step weight all-gathers: every replica re-materialises the full
    # updated weights from the 1/dp shards, one gather per gradient bucket,
    # chained on the comm channel after the last reduction.
    if routed.plan.zero_stage >= 1:
        for axis in ("dp", "all"):
            packets = grad_packets[axis]
            if not packets:
                continue
            sizes = [p[1] for p in packets]
            for bucket in pack_gradients(sizes, cfg.packing):
                seconds = collective_time(
                    "all_gather", bucket.nbytes, groups[axis],
                    use_efficiency=cfg.use_efficiency,
                )
                t = comm.submit(f"wgather:{axis}", seconds, ready=0.0)
                prof.weight_gather_time += t.duration

    prof.iteration_time = engine.makespan
    prof.backward_time = prof.iteration_time - prof.forward_time
    prof.compute_time = compute.busy_time
    prof.comm_time = comm.busy_time
    prof.exposed_comm_time = max(0.0, prof.iteration_time - prof.compute_time)
    prof.engine = engine
    return prof
