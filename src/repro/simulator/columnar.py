"""Columnar simulation tier: one-pass tape compile + prefix-sum replay.

The tape compiler (:func:`compile_columnar_tape`) walks ``routed.order``
once, prices each distinct node signature once (the shared-subgraph
families Algorithm 1 exploits, applied to the simulator) and writes the
struct-of-arrays columns directly — interned task names, int8 channel
codes, float64 per-event duration columns, the gradient sources and the
pre-packed bucket tables — then replays the timeline with prefix sums
instead of a per-event Python loop.

Why a prefix sum is *bit-exact* and not an approximation: the event loop
(:meth:`.engine.Channel.submit`) executes ``start = max(free, ready); end
= start + duration`` per event, and events within a node are laid out
``[collectives..., compute]``.  Two facts follow by induction over
``routed.order``:

* at every node boundary ``comp_free >= comm_free`` (both start equal, and
  each node ends by advancing the compute channel past the comm channel:
  ``comp_free' = ready + t_compute`` with ``ready >= comm_free'``);
* inside a node, each collective chains off the previous one, so every
  ``max(free, ready)`` resolves to the *running* timeline value.

Hence the whole node loop is a left fold ``t += duration`` over the
flattened per-node event sequence — exactly ``np.cumsum`` (cumulative ops
are sequential accumulation, not pairwise reduction), which reproduces the
reference engine's IEEE-754 addition order digit for digit.  The backward
chain is seeded by *prepending* ``forward_time`` as element 0 of the
cumsum input (prepending preserves the association order; adding it after
the fact would not).  Only the gradient-bucket tail is a genuine
``(max, +)`` recurrence; it runs as a short scalar chain over the
O(num_buckets) rows, with bucket ready times gathered bit-exactly via
``np.maximum.reduceat`` (max is selection, not arithmetic).

Busy-time sums are pure tape properties — the same left-to-right folds the
event loop accumulates — so they are folded once at compile time.  Task
logs are *lazy*: :class:`IterationProfile.engine` is a thin shim that
materializes real :class:`.engine.Task` lists from the name table and the
prefix arrays only when a consumer actually asks for channels (chrome
traces, idle-time analysis); profile-only callers never pay for it.

``simulate_batch`` prices many plans at once: per-plan duration columns
are padded with trailing ``0.0`` (adding ``+0.0`` is exact, and the pads
sit after every real event, so real prefixes are untouched) and stacked
into a ``(plans, events)`` matrix, replacing N timeline folds with one
``np.cumsum(axis=1)``.  Each plan's tape compiles independently and is
cached on its own :class:`RoutedPlan`; plans share only the value-keyed
group and gradient-packing caches of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Mesh, collective_time
from ..core.cost import CostConfig, CostModel
from ..core.packing import pack_gradients
from ..core.plan import RoutedPlan
from ..obs import metrics
from .iteration import IterationProfile

__all__ = [
    "CHANNEL_NAMES",
    "GRAD_AXES",
    "ColumnarTape",
    "compile_columnar_tape",
    "columnar_tape_invariants",
    "simulate_batch",
]

#: channel interning: code 0 / 1 in the ``*_ch_col`` columns.
CHANNEL_NAMES: Tuple[str, ...] = ("compute", "comm")

#: collective-group interning for the gradient tail, in stream order.
GRAD_AXES: Tuple[str, ...] = ("dp", "all")


@dataclass(frozen=True)
class ColumnarTape:
    """A replay tape flattened into struct-of-arrays columns.

    The forward/backward timelines are one row per channel submission, in
    submission order (each node's collectives, then its compute).  All
    cross-references are integer codes into the interning tables, so a
    tape is a handful of contiguous arrays plus one string table.
    """

    #: interned task-name table; ``*_name_col`` columns index into it.
    names: Tuple[str, ...]
    #: forward timeline columns (float64 / int8 / int32, equal length).
    fwd_dur_col: np.ndarray
    fwd_ch_col: np.ndarray
    fwd_name_col: np.ndarray
    #: backward timeline columns (reverse node order, same layout).
    bwd_dur_col: np.ndarray
    bwd_ch_col: np.ndarray
    bwd_name_col: np.ndarray
    #: index of the last comm event in each timeline (-1 = none) — the
    #: channel's free time is the inclusive prefix at that event.
    fwd_last_comm: int
    bwd_last_comm: int
    #: per axis: int32 indices of the backward *compute* events whose ends
    #: are the gradient packets' ready inputs, in stream order.
    grad_src: Dict[str, np.ndarray]
    #: gradient-bucket tables, per axis in submission order: member-slice
    #: starts into the axis stream, durations, interned names.
    bucket_axes: Tuple[str, ...]
    bucket_lo_tab: Dict[str, np.ndarray]
    bucket_secs_tab: Dict[str, np.ndarray]
    bucket_name_tab: Dict[str, np.ndarray]
    #: ZeRO weight-gather tables, per axis (empty arrays when the plan's
    #: ``zero_stage`` is 0): one all-gather per gradient bucket, chained on
    #: the comm channel after the last reduction.
    gather_secs_tab: Dict[str, np.ndarray]
    gather_name_tab: Dict[str, np.ndarray]
    #: busy-time folds, precomputed in the event loop's accumulation order.
    compute_busy: float
    comm_busy: float
    gradient_sync: float
    weight_gather: float
    num_buckets: int
    #: provenance: the routed node count the tape was compiled for.
    nodes: int


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
# compilation: routed plan -> columns, one pass
# ---------------------------------------------------------------------------

def _fold(values: Sequence[float]) -> float:
    """Left-to-right float sum — ``np.cumsum`` is sequential accumulation,
    so its last element equals the event loop's ``acc += x`` chain."""
    if len(values) == 0:
        return 0.0
    return float(np.cumsum(np.asarray(values, dtype=np.float64))[-1])


def _compile(
    routed: RoutedPlan, mesh: Mesh, cfg: CostConfig, rec
) -> Tuple[ColumnarTape, int]:
    """Price every distinct node signature once and write the columns.

    Returns the tape and the number of signatures priced.  A signature is
    (pattern, FLOPs, compute share, backward factor, event list keyed on
    shape + dtype — never the tensor name, which differs per layer
    instance but never affects timing); its collective prices, compute
    durations and gradient packets are computed on first sight and
    stamped onto every later node that shares it.
    """
    groups, dp = _groups_for(mesh, cfg, routed.tp_degree)
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

    def event_nbytes(ev) -> int:
        # nbytes depends on the structural spec and nothing else
        key = (ev.spec.shape, ev.spec.dtype, ev.scales_with_batch)
        nb = nbytes_cache.get(key)
        if nb is None:
            nb = ev.nbytes(tokens)
            nbytes_cache[key] = nb
        return nb

    intern: Dict[str, int] = {}
    names: List[str] = []

    def nid(name: str) -> int:
        got = intern.get(name)
        if got is None:
            got = len(names)
            intern[name] = got
            names.append(name)
        return got

    # per signature: (fwd comms, t_fwd, bwd comms, t_bwd, gradient packets)
    # with comms as (task-name prefix, seconds) and packets as (axis, nbytes)
    sig_table: Dict[Tuple, int] = {}
    progs: List[Tuple] = []
    node_progs: List[Tuple] = []
    f_dur: List[float] = []
    f_ch: List[int] = []
    f_nm: List[int] = []
    for name in routed.order:
        shard = routed.shards[name]
        bwd_factor = (
            rec.backward_factor(name, base_factor) if rec is not None else base_factor
        )
        sig = (
            shard.pattern,
            shard.flops,
            shard.compute_share,
            bwd_factor,
            tuple(
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
                    grads.append((ev.axis, event_nbytes(ev)))
                    continue
                secs = price(ev.collective, event_nbytes(ev), ev.axis)
                if ev.phase == "forward":
                    fwd.append((f"fwd:{ev.collective}@", secs))
                else:
                    bwd.append((f"bwd:{ev.collective}@", secs))
            # same association order as the reference loop's expressions
            t_fwd = shard.flops * tokens * shard.compute_share / eff
            t_bwd = bwd_factor * shard.flops * tokens * shard.compute_share / eff
            progs.append((tuple(fwd), t_fwd, tuple(bwd), t_bwd, tuple(grads)))
        prog = progs[sid]
        node_progs.append(prog)
        for prefix, secs in prog[0]:
            f_dur.append(secs)
            f_ch.append(1)
            f_nm.append(nid(prefix + name))
        f_dur.append(prog[1])
        f_ch.append(0)
        f_nm.append(nid("fwd:" + name))

    # backward: reverse node order; each node's compute end is the ready
    # input of its gradient packets, streamed per axis in production order
    b_dur: List[float] = []
    b_ch: List[int] = []
    b_nm: List[int] = []
    grad_src: Dict[str, List[int]] = {axis: [] for axis in GRAD_AXES}
    stream: Dict[str, List[int]] = {axis: [] for axis in GRAD_AXES}
    for name, (_, _, bwd, t_bwd, grads) in zip(
        reversed(routed.order), reversed(node_progs)
    ):
        for prefix, secs in bwd:
            b_dur.append(secs)
            b_ch.append(1)
            b_nm.append(nid(prefix + name))
        b_dur.append(t_bwd)
        b_ch.append(0)
        b_nm.append(nid("bwd:" + name))
        if grads:
            src = len(b_dur) - 1
            for axis, nbytes in grads:
                grad_src[axis].append(src)
                stream[axis].append(nbytes)

    # Pre-pack the gradient streams: packet sizes are static per tape, only
    # their ready times depend on the timeline.  Under ZeRO the reduction
    # is a reduce-scatter and each bucket also prices its post-step weight
    # all-gather.
    zero_on = routed.plan.zero_stage >= 1
    grad_collective = "reduce_scatter" if zero_on else "all_reduce"
    bucket_axes: List[str] = []
    bucket_lo_tab: Dict[str, np.ndarray] = {}
    bucket_secs_tab: Dict[str, np.ndarray] = {}
    bucket_name_tab: Dict[str, np.ndarray] = {}
    gather_secs_tab: Dict[str, np.ndarray] = {}
    gather_name_tab: Dict[str, np.ndarray] = {}
    bucket_secs_all: List[float] = []
    gather_secs_all: List[float] = []
    for axis in GRAD_AXES:
        sizes = stream[axis]
        if not sizes:
            continue
        bucket_axes.append(axis)
        lo_list: List[int] = []
        secs_list: List[float] = []
        gather_list: List[float] = []
        lo = 0
        for bucket in _packed(tuple(sizes), cfg.packing):
            lo_list.append(lo)
            lo += bucket.num_tensors
            secs_list.append(price(grad_collective, bucket.nbytes, axis))
            if zero_on:
                gather_list.append(price("all_gather", bucket.nbytes, axis))
        bucket_lo_tab[axis] = np.asarray(lo_list, dtype=np.int32)
        bucket_secs_tab[axis] = np.asarray(secs_list, dtype=np.float64)
        bucket_name_tab[axis] = np.full(
            len(lo_list), nid("grad:" + axis), dtype=np.int32
        )
        bucket_secs_all.extend(secs_list)
        gather_secs_tab[axis] = np.asarray(gather_list, dtype=np.float64)
        if zero_on:
            # the gather name is interned only when ZeRO is on, so zero-off
            # tapes carry no unused names
            gather_name_tab[axis] = np.full(
                len(lo_list), nid("wgather:" + axis), dtype=np.int32
            )
        else:
            gather_name_tab[axis] = np.empty(0, dtype=np.int32)
        gather_secs_all.extend(gather_list)

    fwd_dur_col = np.asarray(f_dur, dtype=np.float64)
    fwd_ch_col = np.asarray(f_ch, dtype=np.int8)
    bwd_dur_col = np.asarray(b_dur, dtype=np.float64)
    bwd_ch_col = np.asarray(b_ch, dtype=np.int8)
    fwd_comm_idx = np.flatnonzero(fwd_ch_col == 1)
    bwd_comm_idx = np.flatnonzero(bwd_ch_col == 1)

    # Busy sums replicate the event loop's fold order exactly: forward
    # comms, backward comms, bucket rows, then weight gathers on the comm
    # channel; forward then backward computes on the compute channel.
    comm_busy = _fold(
        np.concatenate(
            (
                fwd_dur_col[fwd_comm_idx],
                bwd_dur_col[bwd_comm_idx],
                np.asarray(bucket_secs_all, dtype=np.float64),
                np.asarray(gather_secs_all, dtype=np.float64),
            )
        )
    )
    compute_busy = _fold(
        np.concatenate(
            (
                fwd_dur_col[fwd_ch_col == 0],
                bwd_dur_col[bwd_ch_col == 0],
            )
        )
    )

    tape = ColumnarTape(
        names=tuple(names),
        fwd_dur_col=fwd_dur_col,
        fwd_ch_col=fwd_ch_col,
        fwd_name_col=np.asarray(f_nm, dtype=np.int32),
        bwd_dur_col=bwd_dur_col,
        bwd_ch_col=bwd_ch_col,
        bwd_name_col=np.asarray(b_nm, dtype=np.int32),
        fwd_last_comm=int(fwd_comm_idx[-1]) if fwd_comm_idx.size else -1,
        bwd_last_comm=int(bwd_comm_idx[-1]) if bwd_comm_idx.size else -1,
        grad_src={
            axis: np.asarray(grad_src[axis], dtype=np.int32)
            for axis in GRAD_AXES
        },
        bucket_axes=tuple(bucket_axes),
        bucket_lo_tab=bucket_lo_tab,
        bucket_secs_tab=bucket_secs_tab,
        bucket_name_tab=bucket_name_tab,
        gather_secs_tab=gather_secs_tab,
        gather_name_tab=gather_name_tab,
        compute_busy=compute_busy,
        comm_busy=comm_busy,
        gradient_sync=_fold(bucket_secs_all),
        weight_gather=_fold(gather_secs_all),
        num_buckets=len(bucket_secs_all),
        nodes=len(routed.order),
    )
    return tape, len(progs)


def compile_columnar_tape(
    routed: RoutedPlan,
    mesh: Mesh,
    config: Optional[CostConfig] = None,
    recompute=None,
) -> ColumnarTape:
    """Compile (or fetch from the plan's cache) the columnar tape.

    Policy-free tapes are cached on the plan under ``("columnar", mesh,
    cfg)``.  Every fresh compile runs :func:`columnar_tape_invariants`
    and raises ``ValueError`` on inconsistency; a cache hit is served
    as-is (the ``sim/tape-columnar`` verifier rule re-checks cached
    tapes).
    """
    cfg = config if config is not None else CostConfig()
    rec = recompute if (recompute is not None and recompute.enabled) else None
    cache_key = ("columnar", mesh, cfg) if rec is None else None
    if cache_key is not None:
        cached = routed._sim_cache.get(cache_key)
        if cached is not None:
            return cached

    tape, signatures = _compile(routed, mesh, cfg, rec)
    if metrics.enabled():
        metrics.counter("sim.tapes_compiled", 1)
        metrics.counter("sim.signatures_priced", signatures)
    problems = columnar_tape_invariants(routed, tape)
    if problems:
        raise ValueError(
            "columnar tape failed invariants: " + "; ".join(problems)
        )
    if cache_key is not None:
        routed._sim_cache[cache_key] = tape
    return tape


# ---------------------------------------------------------------------------
# invariants (consumed by repro.verify's sim/tape-columnar rule)
# ---------------------------------------------------------------------------

def columnar_tape_invariants(routed: RoutedPlan, tape) -> List[str]:
    """Structural invariants a columnar tape must satisfy.

    Returns human-readable problem strings (empty = consistent).  Pure
    column arithmetic — no replay — so the verifier can vet cached tapes
    cheaply: equal column lengths per timeline, channel codes within the
    interning tables, one compute event per node per phase, non-negative
    durations, gradient sources pointing at backward compute events, and
    bucket tables that start at 0 and stay strictly increasing within
    their axis stream.
    """
    problems: List[str] = []
    if not isinstance(tape, ColumnarTape):
        return [f"not a ColumnarTape: {type(tape).__name__}"]
    n = tape.nodes
    if n != len(routed.order):
        problems.append(
            f"tape compiled for {n} nodes; plan has {len(routed.order)}"
        )

    for phase, dur, ch, nm in (
        ("forward", tape.fwd_dur_col, tape.fwd_ch_col, tape.fwd_name_col),
        ("backward", tape.bwd_dur_col, tape.bwd_ch_col, tape.bwd_name_col),
    ):
        if not (len(dur) == len(ch) == len(nm)):
            problems.append(
                f"{phase} columns disagree on length: "
                f"dur={len(dur)} ch={len(ch)} name={len(nm)}"
            )
            continue
        if dur.size:
            if float(dur.min()) < 0.0:
                problems.append(f"negative duration in {phase} column")
            codes = np.unique(ch)
            if codes.size and (codes.min() < 0 or codes.max() >= len(CHANNEL_NAMES)):
                problems.append(f"{phase} channel codes outside interning table")
            if int(nm.min()) < 0 or int(nm.max()) >= len(tape.names):
                problems.append(f"{phase} name ids outside the name table")
        computes = int((ch == 0).sum())
        if computes != n:
            problems.append(
                f"{phase} timeline has {computes} compute events for {n} nodes"
            )
    if len(set(tape.names)) != len(tape.names):
        problems.append("name table contains duplicates (broken interning)")

    bwd_len = len(tape.bwd_dur_col)
    for axis in GRAD_AXES:
        src = tape.grad_src.get(axis)
        if src is None:
            problems.append(f"missing gradient source column for axis {axis!r}")
            continue
        if src.size:
            if int(src.min()) < 0 or int(src.max()) >= bwd_len:
                problems.append(f"gradient sources on {axis!r} out of range")
            elif not bool((tape.bwd_ch_col[src] == 0).all()):
                problems.append(
                    f"gradient source on {axis!r} points at a non-compute event"
                )
            if not bool((np.diff(src) >= 0).all()):
                problems.append(f"gradient sources on {axis!r} not in stream order")

    for axis in tape.bucket_axes:
        if axis not in GRAD_AXES:
            problems.append(f"bucket table names unknown axis {axis!r}")
            continue
        lo = tape.bucket_lo_tab[axis]
        secs = tape.bucket_secs_tab[axis]
        nm = tape.bucket_name_tab[axis]
        if not (len(lo) == len(secs) == len(nm)):
            problems.append(f"bucket columns on {axis!r} disagree on length")
            continue
        packets = int(tape.grad_src[axis].size)
        if lo.size == 0:
            problems.append(f"empty bucket table for axis {axis!r}")
            continue
        if int(lo[0]) != 0:
            problems.append(f"bucket table on {axis!r} does not start at 0")
        if lo.size > 1 and not bool((np.diff(lo) > 0).all()):
            problems.append(f"bucket slices on {axis!r} not strictly increasing")
        if int(lo.max()) >= packets:
            problems.append(
                f"bucket slice start beyond the {packets}-packet {axis!r} stream"
            )
        if secs.size and float(secs.min()) < 0.0:
            problems.append(f"negative bucket duration on axis {axis!r}")
        gather = tape.gather_secs_tab.get(axis)
        gather_nm = tape.gather_name_tab.get(axis)
        if gather is None or gather_nm is None:
            problems.append(f"missing weight-gather table for axis {axis!r}")
        elif routed.plan.zero_stage == 0:
            if gather.size or gather_nm.size:
                problems.append(
                    f"weight-gather rows on {axis!r} with ZeRO off"
                )
        else:
            if len(gather) != len(lo) or len(gather_nm) != len(lo):
                problems.append(
                    f"weight-gather table on {axis!r} does not cover "
                    f"the bucket rows"
                )
            if gather.size and float(gather.min()) < 0.0:
                problems.append(
                    f"negative weight-gather duration on axis {axis!r}"
                )
            if gather_nm.size and (
                int(gather_nm.min()) < 0
                or int(gather_nm.max()) >= len(tape.names)
            ):
                problems.append(
                    f"weight-gather names on {axis!r} outside the name table"
                )
    for axis in GRAD_AXES:
        if tape.grad_src[axis].size and axis not in tape.bucket_axes:
            problems.append(
                f"gradient packets on {axis!r} have no bucket table"
            )
    return problems


# ---------------------------------------------------------------------------
# replay: prefix sums over the columns
# ---------------------------------------------------------------------------

def _pack_rows(columns: Sequence[np.ndarray], width: int, lead: Optional[np.ndarray]):
    """Stack variable-length duration columns into a zero-padded matrix.

    Trailing ``+0.0`` pads keep every real prefix bit-identical; ``lead``
    (the backward seeds) becomes column 0 so the fold starts from it.
    """
    offset = 1 if lead is not None else 0
    mat = np.zeros((len(columns), width + offset), dtype=np.float64)
    if lead is not None:
        mat[:, 0] = lead
    for i, dur in enumerate(columns):
        mat[i, offset : offset + len(dur)] = dur
    return mat


def _profiles_from_tapes(tapes: Sequence[ColumnarTape]):
    """Replay every tape with two batched prefix sums; one profile each."""
    if metrics.enabled():
        metrics.counter("sim.tapes_replayed", len(tapes))

    fwd_width = max((len(t.fwd_dur_col) for t in tapes), default=0)
    bwd_width = max((len(t.bwd_dur_col) for t in tapes), default=0)
    fwd_mat = _pack_rows([t.fwd_dur_col for t in tapes], fwd_width, lead=None)
    cum_fwd_mat = np.cumsum(fwd_mat, axis=1)
    # trailing zeros leave the final prefix untouched, so column -1 *is*
    # each plan's forward makespan (= final comp_free, by the invariant)
    if fwd_width:
        fwd_times = cum_fwd_mat[:, -1]
    else:
        fwd_times = np.zeros(len(tapes), dtype=np.float64)
    bwd_mat = _pack_rows(
        [t.bwd_dur_col for t in tapes], bwd_width, lead=fwd_times
    )
    cum_bwd_mat = np.cumsum(bwd_mat, axis=1)

    profiles = []
    for i, tape in enumerate(tapes):
        cum_fwd = cum_fwd_mat[i, : len(tape.fwd_dur_col)]
        cum_bwd = cum_bwd_mat[i, : len(tape.bwd_dur_col) + 1]
        forward_time = float(fwd_times[i])
        comp_free = float(cum_bwd[-1])
        if tape.bwd_last_comm >= 0:
            comm_free = float(cum_bwd[tape.bwd_last_comm + 1])
        else:
            comm_free = forward_time

        # gradient tail: a genuine (max, +) recurrence over O(buckets) rows
        bucket_starts: Dict[str, List[float]] = {}
        for axis in tape.bucket_axes:
            ends_col = cum_bwd[tape.grad_src[axis] + 1]
            ready_chain = np.maximum.reduceat(
                ends_col, tape.bucket_lo_tab[axis]
            ).tolist()
            secs_chain = tape.bucket_secs_tab[axis].tolist()
            starts: List[float] = []
            for ready, secs in zip(ready_chain, secs_chain):
                start = comm_free if comm_free > ready else ready
                comm_free = start + secs
                starts.append(start)
            bucket_starts[axis] = starts

        # ZeRO weight all-gathers chain after the last reduction (same
        # ordering as the eager tiers: all buckets first, then gathers)
        gather_starts: Dict[str, List[float]] = {}
        for axis in tape.bucket_axes:
            gather_chain = tape.gather_secs_tab[axis].tolist()
            if not gather_chain:
                continue
            starts = []
            for secs in gather_chain:
                start = comm_free
                comm_free = start + secs
                starts.append(start)
            gather_starts[axis] = starts

        iteration_time = comp_free if comp_free > comm_free else comm_free
        prof = IterationProfile()
        prof.forward_time = forward_time
        prof.iteration_time = iteration_time
        prof.backward_time = iteration_time - forward_time
        prof.compute_time = tape.compute_busy
        prof.comm_time = tape.comm_busy
        prof.exposed_comm_time = max(0.0, iteration_time - tape.compute_busy)
        prof.gradient_sync_time = tape.gradient_sync
        prof.weight_gather_time = tape.weight_gather
        prof.num_gradient_buckets = tape.num_buckets
        prof.engine = _LazyEngine(
            tape, cum_fwd, cum_bwd, bucket_starts, gather_starts,
            comp_free, comm_free, iteration_time,
        )
        profiles.append(prof)
    return profiles


class _LazyEngine:
    """An :class:`.engine.Engine` stand-in that materializes task logs on
    first access.

    Profile numbers come straight off the prefix arrays; the per-task
    Python objects (the event loop's dominant cost) are only built when a
    consumer asks for ``channels`` / ``channel()`` — chrome-trace export,
    idle-time analysis — and are then bit-identical to the eager tiers'
    logs: same names, starts, durations, splice free times.
    """

    __slots__ = (
        "_tape", "_cum_fwd", "_cum_bwd", "_bucket_starts", "_gather_starts",
        "_comp_free", "_comm_free", "_makespan", "_engine",
    )

    def __init__(
        self, tape, cum_fwd, cum_bwd, bucket_starts, gather_starts,
        comp_free, comm_free, makespan,
    ):
        self._tape = tape
        self._cum_fwd = cum_fwd
        self._cum_bwd = cum_bwd
        self._bucket_starts = bucket_starts
        self._gather_starts = gather_starts
        self._comp_free = comp_free
        self._comm_free = comm_free
        self._makespan = makespan
        self._engine = None

    def _materialize(self):
        if self._engine is not None:
            return self._engine
        from .engine import Engine, Task

        tape = self._tape
        names = tape.names
        new = tuple.__new__
        T = Task

        def tasks(starts, durs, name_ids):
            return [
                new(T, (names[n], s, d))
                for n, s, d in zip(
                    name_ids.tolist(), starts.tolist(), durs.tolist()
                )
            ]

        # event starts are exclusive prefixes; backward rows shift by the
        # seed slot (cum_bwd[0] == forward_time)
        fwd_starts = np.concatenate(([0.0], self._cum_fwd[:-1]))
        bwd_starts = self._cum_bwd[:-1]
        comp_log = []
        comm_log = []
        for ch, starts, dur, nm in (
            (tape.fwd_ch_col, fwd_starts, tape.fwd_dur_col, tape.fwd_name_col),
            (tape.bwd_ch_col, bwd_starts, tape.bwd_dur_col, tape.bwd_name_col),
        ):
            comp_idx = np.flatnonzero(ch == 0)
            comm_idx = np.flatnonzero(ch == 1)
            comp_log.extend(tasks(starts[comp_idx], dur[comp_idx], nm[comp_idx]))
            comm_log.extend(tasks(starts[comm_idx], dur[comm_idx], nm[comm_idx]))
        for axis in tape.bucket_axes:
            secs_chain = tape.bucket_secs_tab[axis].tolist()
            name_chain = tape.bucket_name_tab[axis].tolist()
            for n, s, d in zip(name_chain, self._bucket_starts[axis], secs_chain):
                comm_log.append(new(T, (names[n], s, d)))
        for axis in tape.bucket_axes:
            starts = self._gather_starts.get(axis)
            if not starts:
                continue
            secs_chain = tape.gather_secs_tab[axis].tolist()
            name_chain = tape.gather_name_tab[axis].tolist()
            for n, s, d in zip(name_chain, starts, secs_chain):
                comm_log.append(new(T, (names[n], s, d)))

        engine = Engine()
        engine.channel("compute").splice(comp_log, free_at=self._comp_free)
        engine.channel("comm").splice(comm_log, free_at=self._comm_free)
        self._engine = engine
        return engine

    def channel(self, name: str):
        return self._materialize().channel(name)

    @property
    def channels(self):
        return self._materialize().channels

    @property
    def makespan(self) -> float:
        return self._makespan


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def simulate_batch(
    routed_plans: Sequence[RoutedPlan],
    mesh: Mesh,
    config: Optional[CostConfig] = None,
    recompute=None,
):
    """Simulate many plans on one mesh/config in a single batched replay.

    Each plan's tape compiles (or comes from its cache) independently;
    the timelines then fold together as one zero-padded ``(plans,
    events)`` cumsum per phase.  Returns one :class:`IterationProfile`
    per plan, in order, each bit-identical to what the reference event
    loop produces for that plan; :func:`.iteration.simulate_iteration`'s
    columnar tier is a batch of one.
    """
    if not routed_plans:
        return []
    tapes = [
        compile_columnar_tape(r, mesh, config, recompute)
        for r in routed_plans
    ]
    return _profiles_from_tapes(tapes)
