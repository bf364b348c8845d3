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

Two implementations produce that timeline (``engine=`` selects one):

* ``engine="columnar"`` (the default, :mod:`.columnar`) — the same
  observation Algorithm 1 applies to the search, applied to the
  simulator.  Nodes are grouped by structural signature (pattern, flops,
  compute share, event list — the shared-subgraph families), each
  signature is priced *once* (collective pricing cached per (collective,
  nbytes, group); gradient packing memoised on stream content), repeated
  runs of signatures in ``routed.order`` are detected as segments
  (:func:`detect_segments`), and the priced tape (:func:`_compile_tape`)
  is flattened into numpy struct-of-arrays and replayed as prefix sums;
  the batched what-if entry point ``simulate_batch`` lives there too.
* ``engine="reference"`` — the oracle event loop: every node of every
  layer instance re-prices its collectives and re-submits its tasks one
  by one.

Both are bit-exact: same :class:`IterationProfile` numbers, same task
names, starts and durations in the engine log.  The compiled columnar
tape is cached on the :class:`RoutedPlan` per (mesh, config), so
re-simulating the same plan (fig. 8/11–13 sweeps, pipeline composition)
skips pricing entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import Mesh, collective_time
from ..core.cost import CostConfig, CostModel
from ..obs import metrics, trace
from ..core.packing import pack_gradients
from ..core.plan import RoutedPlan

__all__ = [
    "IterationProfile",
    "SIM_ENGINE_TIERS",
    "normalize_sim_engine",
    "simulate_iteration",
    "detect_segments",
]

#: The selectable simulation tiers, oracle first (mirrors the search's
#: ``ENGINE_TIERS``): the per-task event loop and the prefix-sum columnar
#: replay, bit-exact on profiles and task logs.
SIM_ENGINE_TIERS = ("reference", "columnar")


def normalize_sim_engine(engine=None) -> str:
    """Map the ``engine=`` knob onto a tier name (``None`` → columnar)."""
    if engine is None:
        return "columnar"
    if engine not in SIM_ENGINE_TIERS:
        raise ValueError(
            f"engine must be None or one of {SIM_ENGINE_TIERS}, got {engine!r}"
        )
    return engine


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
    #: columnar diagnostics (zero on the reference path): how many
    #: repeated segments the tape compiler found and how many node
    #: instances were replayed from a previously-priced signature.
    segments_detected: int = 0
    nodes_replayed: int = 0
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


# ---------------------------------------------------------------------------
# shared caches (cheap, value-keyed, bounded)
# ---------------------------------------------------------------------------

#: (mesh, tp_degree) -> ({"tp": g, "dp": g, "all": g}, dp_degree)
_GROUP_CACHE: Dict[Tuple, Tuple[Dict[str, object], int]] = {}
_GROUP_CACHE_LIMIT = 256

#: (sizes tuple, PackingConfig) -> tuple of Buckets
_PACK_CACHE: Dict[Tuple, Tuple] = {}
_PACK_CACHE_LIMIT = 4096


def _groups_for(mesh: Mesh, cfg: CostConfig, tp_degree: int):
    key = (mesh, tp_degree)
    got = _GROUP_CACHE.get(key)
    if got is None:
        cm = CostModel(mesh, cfg)
        tp_group, dp_group, all_group = cm.groups(tp_degree)
        got = (
            {"tp": tp_group, "dp": dp_group, "all": all_group},
            cm.dp_degree(tp_degree),
        )
        if len(_GROUP_CACHE) >= _GROUP_CACHE_LIMIT:
            _GROUP_CACHE.pop(next(iter(_GROUP_CACHE)))
        _GROUP_CACHE[key] = got
    return got


def _packed(sizes: Tuple[int, ...], packing) -> Tuple:
    """``pack_gradients`` memoised on stream content (as evaluate.py does)."""
    key = (sizes, packing)
    got = _PACK_CACHE.get(key)
    if got is None:
        got = tuple(pack_gradients(list(sizes), packing))
        if len(_PACK_CACHE) >= _PACK_CACHE_LIMIT:
            _PACK_CACHE.pop(next(iter(_PACK_CACHE)))
        _PACK_CACHE[key] = got
    return got


# ---------------------------------------------------------------------------
# segment detection
# ---------------------------------------------------------------------------

def detect_segments(
    ids: Sequence[int], max_period: int = 128
) -> List[Tuple[int, int, int]]:
    """Cover *ids* with maximal tandem repeats: ``(start, period, repeats)``.

    Greedy left-to-right scan: at each position the longest-covering run
    ``block * repeats`` with period up to *max_period* wins (smallest
    period on ties, so ``AAAA`` reports period 1, not 2); stretches with no
    repeat collapse into a single ``(start, span, 1)`` segment.  These are
    the layer stacks of ``routed.order`` — the same repeated structure
    Algorithm 1's pruning exploits, one level down.
    """
    n = len(ids)
    segments: List[Tuple[int, int, int]] = []
    uniq_start = 0
    i = 0
    while i < n:
        best_period = 0
        best_repeats = 0
        best_cover = 0
        limit = min(max_period, (n - i) // 2)
        for period in range(1, limit + 1):
            # cheap O(1) guard before the slice comparison
            if ids[i] != ids[i + period]:
                continue
            if ids[i : i + period] != ids[i + period : i + 2 * period]:
                continue
            repeats = 2
            while (
                i + (repeats + 1) * period <= n
                and ids[i + repeats * period : i + (repeats + 1) * period]
                == ids[i : i + period]
            ):
                repeats += 1
            cover = repeats * period
            if cover > best_cover:
                best_cover = cover
                best_period = period
                best_repeats = repeats
        if best_cover:
            if uniq_start < i:
                segments.append((uniq_start, i - uniq_start, 1))
            segments.append((i, best_period, best_repeats))
            i += best_cover
            uniq_start = i
        else:
            i += 1
    if uniq_start < n:
        segments.append((uniq_start, n - uniq_start, 1))
    return segments


# ---------------------------------------------------------------------------
# tape compilation (once per plan x mesh x config)
# ---------------------------------------------------------------------------

def _event_nbytes(ev, tokens: int, cache: Dict) -> int:
    # keyed on the structural spec (shape + dtype, not the tensor's name):
    # nbytes depends on nothing else
    key = (ev.spec.shape, ev.spec.dtype, ev.scales_with_batch)
    nb = cache.get(key)
    if nb is None:
        nb = ev.nbytes(tokens)
        cache[key] = nb
    return nb


def _compile_tape(routed: RoutedPlan, mesh: Mesh, cfg: CostConfig, rec, groups, dp):
    """Price every distinct node signature once and lay out the tape.

    Returns ``(fwd_tape, bwd_tape, bucket_plan, stats, sig_ids)``:

    * ``fwd_tape[i]`` — per node in ``routed.order``: ``(fwd_comm,
      task_name, seconds)`` with ``fwd_comm`` a tuple of pre-named,
      pre-priced ``(task_name, seconds)`` collectives;
    * ``bwd_tape`` — per node in backward (reverse) order: ``(bwd_comm,
      task_name, seconds, grads)`` where ``grads`` holds the overlappable
      ``(axis, nbytes)`` gradient packets;
    * ``bucket_plan`` — per axis, pre-packed gradient buckets as
      ``(lo, hi, task_name, sync_seconds, gather_seconds)`` member slices
      into the packet stream; ``sync_seconds`` prices the reduction
      (all-reduce, or reduce-scatter under ``plan.zero_stage >= 1``) and
      ``gather_seconds`` the post-step weight all-gather (0.0 when the
      ZeRO axis is off);
    * ``stats`` — ``(segments_detected, nodes_replayed)`` from
      :func:`detect_segments` over the signature sequence;
    * ``sig_ids`` — the per-node signature id sequence itself (the
      columnar tier's segment tables are built from it).

    :func:`repro.simulator.columnar.compile_columnar_tape` flattens the
    result into the cached :class:`ColumnarTape`.
    """
    tokens = max(cfg.batch_tokens // dp, 1)
    eff = mesh.effective_flops
    base_factor = cfg.backward_flops_factor
    use_eff = cfg.use_efficiency

    price_cache: Dict[Tuple, float] = {}
    nbytes_cache: Dict[Tuple, int] = {}

    def price(collective: str, nbytes: int, axis: str) -> float:
        key = (collective, nbytes, axis)
        secs = price_cache.get(key)
        if secs is None:
            secs = collective_time(
                collective, nbytes, groups[axis], use_efficiency=use_eff
            )
            price_cache[key] = secs
        return secs

    sig_table: Dict[Tuple, int] = {}
    progs: List[Tuple] = []
    sig_ids: List[int] = []
    fwd_tape: List[Tuple] = []
    bwd_tape: List[Tuple] = []

    for name in routed.order:
        shard = routed.shards[name]
        rec_node = rec is not None and name in rec.recompute_nodes
        sig = (
            shard.pattern,
            shard.flops,
            shard.compute_share,
            rec_node,
            tuple(
                # spec identity is structural (shape + dtype); the tensor
                # *name* differs per layer instance but never affects timing
                (ev.phase, ev.collective, ev.axis, ev.overlappable,
                 ev.spec.shape, ev.spec.dtype, ev.scales_with_batch)
                for ev in shard.events
            ),
        )
        sid = sig_table.get(sig)
        if sid is None:
            sid = len(progs)
            sig_table[sig] = sid
            fwd: List[Tuple[str, float]] = []
            bwd: List[Tuple[str, float]] = []
            grads: List[Tuple[str, int]] = []
            for ev in shard.events:
                if ev.phase == "backward" and ev.overlappable:
                    grads.append((ev.axis, _event_nbytes(ev, tokens, nbytes_cache)))
                    continue
                secs = price(
                    ev.collective, _event_nbytes(ev, tokens, nbytes_cache), ev.axis
                )
                if ev.phase == "forward":
                    fwd.append((f"fwd:{ev.collective}@", secs))
                else:
                    bwd.append((f"bwd:{ev.collective}@", secs))
            # same association order as the reference loop's expressions
            t_fwd = shard.flops * tokens * shard.compute_share / eff
            bwd_factor = base_factor + 1.0 if rec_node else base_factor
            t_bwd = bwd_factor * shard.flops * tokens * shard.compute_share / eff
            progs.append((tuple(fwd), t_fwd, tuple(bwd), t_bwd, tuple(grads)))
        sig_ids.append(sid)
        fwd, t_fwd, bwd, t_bwd, grads = progs[sid]
        fwd_tape.append(
            (
                tuple((prefix + name, secs) for prefix, secs in fwd),
                "fwd:" + name,
                t_fwd,
            )
        )
        bwd_tape.append(
            (
                tuple((prefix + name, secs) for prefix, secs in bwd),
                "bwd:" + name,
                t_bwd,
                grads,
            )
        )

    bwd_tape.reverse()

    # Pre-pack the gradient streams: packet sizes are static per tape, only
    # their ready times depend on the replayed timeline.
    stream: Dict[str, List[int]] = {"dp": [], "all": []}
    for entry in bwd_tape:
        for axis, nbytes in entry[3]:
            stream[axis].append(nbytes)
    zero = routed.plan.zero_stage
    grad_collective = "reduce_scatter" if zero >= 1 else "all_reduce"
    bucket_plan: List[Tuple[str, List[Tuple[int, int, str, float, float]]]] = []
    for axis in ("dp", "all"):
        sizes = stream[axis]
        if not sizes:
            continue
        rows: List[Tuple[int, int, str, float, float]] = []
        lo = 0
        for bucket in _packed(tuple(sizes), cfg.packing):
            hi = lo + bucket.num_tensors
            rows.append(
                (
                    lo,
                    hi,
                    "grad:" + axis,
                    price(grad_collective, bucket.nbytes, axis),
                    price("all_gather", bucket.nbytes, axis) if zero >= 1 else 0.0,
                )
            )
            lo = hi
        bucket_plan.append((axis, rows))

    segments = detect_segments(sig_ids)
    segments_detected = sum(1 for _, _, reps in segments if reps > 1)
    nodes_replayed = sum(period * (reps - 1) for _, period, reps in segments)
    return fwd_tape, bwd_tape, bucket_plan, (segments_detected, nodes_replayed), sig_ids


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def simulate_iteration(
    routed: RoutedPlan,
    mesh: Mesh,
    config: Optional[CostConfig] = None,
    recompute=None,
    *,
    engine=None,
) -> IterationProfile:
    """Replay one iteration of *routed* on *mesh* at event granularity.

    ``recompute`` is an optional :class:`repro.passes.RecomputePolicy`;
    nodes it marks re-run their forward computation during backward
    (gradient checkpointing's time cost).

    ``engine`` selects the simulation tier (see
    :func:`normalize_sim_engine`): ``"columnar"`` (the default) is the
    prefix-sum array replay, ``"reference"`` the per-task event loop.
    Both are bit-exact — same profile, same task log — so the reference
    loop serves as the oracle for the property tests, mirroring
    ``derive_plan(engine=...)``.

    On the columnar tier a freshly compiled tape always runs its
    structural invariants (the ``sim/tape-columnar`` rule) before first
    use.
    """
    cfg = config or CostConfig()
    tier = normalize_sim_engine(engine)
    with trace.span(
        "simulate",
        nodes=len(routed.order),
        tp=routed.tp_degree,
        engine=tier,
    ):
        if tier == "reference":
            prof = _simulate_reference(routed, mesh, cfg, recompute)
        else:
            from .columnar import simulate_columnar

            prof = simulate_columnar(routed, mesh, cfg, recompute)
    if metrics.enabled():
        metrics.counter("sim.segments", prof.segments_detected)
        metrics.counter("sim.nodes_replayed", prof.nodes_replayed)
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
