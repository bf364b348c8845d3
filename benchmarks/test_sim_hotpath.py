"""Simulation hot path — the columnar tier vs. the reference event loop.

Times `simulate_iteration` on both tiers.  The first pair (48-layer T5,
100K-class ResNet) stresses the default columnar tier against the
reference event loop including the columnar cold compile; the large zoo
presets (96-layer T5, 300K-class ResNet, deep MoE) time both tiers
*warm* — the sweep regime where one routed plan is priced over and over
and the columnar prefix-sum replay amortises its compile.  A final
record times `simulate_batch` pricing every named baseline plan of the
deep T5 in one padded cumsum against the equivalent sequence of warm
reference calls — the what-if/`POST /simulate` shape.

The fast path must be a pure accelerator: profiles and the complete
engine task logs (names, starts, durations — every bit) are asserted
identical to the reference before any timing is trusted.  Each columnar
path is timed as the min of several windows; the reference oracle,
several to hundreds of times slower, is timed in one window.

The bench gates itself: the speed-up floors stand in for the walls
(which are reported, not gated), the tape compiler's work counters
(nodes, signatures priced, plans batched) and the simulator's per-call
work (tapes compiled and replayed) are pinned exactly, and peak tracked
memory is held to ``PEAK_SLACK`` times a pinned value.
"""

import time

import pytest

from repro.baselines import NAMED_PLANS
from repro.core import CostConfig, DEFAULT_REGISTRY, derive_plan, route_plan
from repro.models import build_preset, resnet_with_classes, t5_with_depth
from repro.viz import format_table

from common import (
    PEAK_SLACK, emit, emit_bench_json, mesh_16w, nodes_for, traced_peak_mb,
)

MODELS = (
    ("t5-48L", lambda: t5_with_depth(48), None),
    ("resnet-100K", lambda: resnet_with_classes(100_000),
     CostConfig(batch_tokens=1024)),
)

#: Large zoo presets for the warm two-tier sweep (label, preset name).
LARGE_MODELS = (
    ("t5-96L", "t5_96l"),
    ("resnet-300K", "resnet_300k"),
    ("moe-deep", "moe_deep"),
)

#: Every floor below sits at about half the lowest ratio seen on a
#: loaded 2-vCPU host (ten runs beside a busy core, whole-suite runs and
#: earlier committed snapshots), so load alone does not trip it.

#: Floor on warm reference vs. columnar wall clock per large preset
#: (loaded: t5-96L 218x-390x, resnet-300K 9.7x-20x with 9.1x seen in a
#: whole-suite run, moe-deep 83x-132x with 72x seen before).
MIN_COLUMNAR_SPEEDUP = {"t5-96L": 100.0, "resnet-300K": 4.0,
                        "moe-deep": 35.0}

#: Floor on N sequential warm reference calls vs. one `simulate_batch`
#: of the same N plans (loaded: 123x-247x).
MIN_BATCH_SPEEDUP = 60.0

#: Simulation rounds per path — the repeated-pricing pattern of the
#: figure sweeps.  The columnar timing includes its cold compile (the
#: plan's tape cache is cleared first), so round 1 pays full price.
ROUNDS = 30

#: Rounds of the batch comparison: its sequential side runs the
#: reference loop over every named plan of the 96-layer T5, so fewer
#: rounds keep it inside a bench budget.
BATCH_ROUNDS = 5

#: Floor on reference vs. columnar wall clock, cold compile included
#: (loaded: t5-48L 34x-50x with 25x seen before, resnet-100K 5.9x-10x).
MIN_SPEEDUP = {"t5-48L": 12.0, "resnet-100K": 3.5}

#: Deterministic tape-compiler work, pinned exactly, read from the
#: simulator's obs counters: (routed nodes, signatures priced) for the
#: cold sweep ...
COUNTERS = {"t5-48L": (1400, 12), "resnet-100K": (74, 27)}
#: ... the work of one cold `simulate_iteration` call: (tapes compiled,
#: tapes replayed) ...
SIM_WORK = (1, 1)
#: ... and (routed nodes, signatures priced) for the warm large-zoo sweep.
LARGE_COUNTERS = {
    "t5-96L": (2792, 12), "resnet-300K": (74, 27), "moe-deep": (629, 13),
}
#: Named baseline plans priced by the batched what-if.
BATCH_PLANS = 4

#: Peak tracked memory (MB) of one cold columnar compile + simulate.
PEAK_MB = {
    "t5-48L": 0.790, "resnet-100K": 0.0351,
    "t5-96L": 2.197, "resnet-300K": 0.0339, "moe-deep": 0.456,
}


def _logs(prof):
    """Channel logs as plain tuples: (channel, task name, start, duration)."""
    out = {}
    for ch in prof.engine.channels:
        out[ch.name] = (
            [(t.name, t.start, t.duration) for t in ch.log],
            ch.free_at,
        )
    return out


def _time_rounds(routed, mesh, cfg, tier):
    """Wall-clock of ROUNDS simulations; columnar re-pays its cold compile."""
    from repro.simulator import simulate_iteration

    routed._sim_cache.clear()
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        simulate_iteration(routed, mesh, cfg, engine=tier)
    return time.perf_counter() - t0


def _time_warm(routed, mesh, cfg, tier):
    """Wall-clock of ROUNDS warm simulations on *tier* (tapes precompiled)."""
    from repro.simulator import simulate_iteration

    simulate_iteration(routed, mesh, cfg, engine=tier)  # compile untimed
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        simulate_iteration(routed, mesh, cfg, engine=tier)
    return time.perf_counter() - t0


def _assert_parity(label, routed, mesh, cfg):
    """Both tiers must agree bit-for-bit before timing is trusted."""
    from repro.simulator import simulate_iteration

    ref = simulate_iteration(routed, mesh, cfg, engine="reference")
    routed._sim_cache.clear()
    col = simulate_iteration(routed, mesh, cfg, engine="columnar")
    assert col.as_dict() == ref.as_dict(), label
    assert _logs(col) == _logs(ref), label


def _cold_work(routed, mesh, cfg):
    """((tapes compiled, tapes replayed), signatures priced) by one cold
    simulation."""
    from repro import obs
    from repro.simulator import simulate_iteration

    routed._sim_cache.clear()
    with obs.capture() as sink:
        simulate_iteration(routed, mesh, cfg)
    counters = sink.counters
    return (
        (int(counters.get("sim.tapes_compiled", 0)),
         int(counters.get("sim.tapes_replayed", 0))),
        int(counters.get("sim.signatures_priced", 0)),
    )


def _cold_peak_mb(routed, mesh, cfg):
    """Peak tracked memory of one cold columnar compile + simulate."""
    from repro.simulator import simulate_iteration

    routed._sim_cache.clear()
    return traced_peak_mb(lambda: simulate_iteration(routed, mesh, cfg))


def large_sweep():
    """Two-tier warm timings + columnar peak memory on the large zoo."""
    mesh = mesh_16w()
    cfg = CostConfig()
    rows = []
    for label, preset in LARGE_MODELS:
        ng = nodes_for(build_preset(preset))
        plan = NAMED_PLANS["megatron"](ng, mesh.gpus_per_node)
        routed = route_plan(ng, plan, DEFAULT_REGISTRY)
        _assert_parity(label, routed, mesh, cfg)

        t_ref = _time_warm(routed, mesh, cfg, "reference")
        t_col = min(_time_warm(routed, mesh, cfg, "columnar")
                    for _ in range(3))

        rows.append(
            {
                "model": label,
                "engine": "columnar",
                "nodes": len(routed.order),
                "reference_s": t_ref,
                "columnar_s": t_col,
                "speedup": t_ref / t_col,
                "signatures": _cold_work(routed, mesh, cfg)[1],
                "peak_mem_mb": _cold_peak_mb(routed, mesh, cfg),
            }
        )
    return rows


def batch_sweep():
    """One `simulate_batch` over every named plan vs. N sequential warm
    reference simulations."""
    from repro.simulator import simulate_batch, simulate_iteration

    mesh = mesh_16w()
    cfg = CostConfig()
    ng = nodes_for(build_preset("t5_96l"))
    routed_plans = [
        route_plan(ng, builder(ng, mesh.gpus_per_node), DEFAULT_REGISTRY)
        for builder in NAMED_PLANS.values()
    ]
    # parity: the batch must equal the per-plan oracle, plan for plan
    batch_profs = simulate_batch(routed_plans, mesh, cfg)
    for routed, prof in zip(routed_plans, batch_profs):
        ref = simulate_iteration(routed, mesh, cfg, engine="reference")
        assert prof.as_dict() == ref.as_dict()
        assert _logs(prof) == _logs(ref)

    def seq():
        t0 = time.perf_counter()
        for _ in range(BATCH_ROUNDS):
            for routed in routed_plans:
                simulate_iteration(routed, mesh, cfg, engine="reference")
        return time.perf_counter() - t0

    def batched():
        t0 = time.perf_counter()
        for _ in range(BATCH_ROUNDS):
            simulate_batch(routed_plans, mesh, cfg)
        return time.perf_counter() - t0

    t_seq = seq()
    t_batch = min(batched() for _ in range(3))
    return {
        "model": "batch-t5-96L",
        "engine": "columnar",
        "plans": len(routed_plans),
        "sequential_reference_s": t_seq,
        "batch_s": t_batch,
        "batch_speedup": t_seq / t_batch,
    }


def sweep():
    mesh = mesh_16w()
    rows = []
    for label, build, cfg in MODELS:
        ng = nodes_for(build())
        search = derive_plan(ng, mesh, cost_config=cfg)
        routed = search.routed
        from repro.simulator import simulate_iteration

        # -- bit-exactness first: profile and full task log, both paths --
        ref_prof = simulate_iteration(routed, mesh, cfg, engine="reference")
        routed._sim_cache.clear()
        col_prof = simulate_iteration(routed, mesh, cfg)
        assert col_prof.as_dict() == ref_prof.as_dict(), label
        assert _logs(col_prof) == _logs(ref_prof), label

        # best of three columnar windows — scheduler noise only ever
        # inflates a window, so the min is the honest number; the
        # oracle's one window is several times longer and already stable
        t_ref = _time_rounds(routed, mesh, cfg, "reference")
        t_col = min(_time_rounds(routed, mesh, cfg, "columnar")
                    for _ in range(3))
        if t_ref / t_col < MIN_SPEEDUP[label]:
            # transient load can still inflate every window of one path;
            # one re-measure separates a busy box from a real regression
            t_ref = min(t_ref, _time_rounds(routed, mesh, cfg, "reference"))
            t_col = min(t_col,
                        *(_time_rounds(routed, mesh, cfg, "columnar")
                          for _ in range(3)))

        work, signatures = _cold_work(routed, mesh, cfg)
        rows.append(
            {
                "model": label,
                "nodes": len(routed.order),
                "ref_seconds": t_ref,
                "col_seconds": t_col,
                "signatures": signatures,
                "work": work,
                "peak_mem_mb": _cold_peak_mb(routed, mesh, cfg),
            }
        )
    return rows


#: Sweeps are shared between the two tests; the columnar test emits the
#: combined BENCH_sim.json, so it always holds every record.
_CACHE = {}


def _legacy_rows():
    if "legacy" not in _CACHE:
        _CACHE["legacy"] = sweep()
    return _CACHE["legacy"]


def _legacy_records(rows):
    return [
        {
            "model": r["model"],
            "engine": "columnar",
            "reference_s": r["ref_seconds"],
            "optimized_s": r["col_seconds"],
            "speedup": r["ref_seconds"] / r["col_seconds"],
            "nodes": r["nodes"],
            "signatures": r["signatures"],
            "peak_mem_mb": r["peak_mem_mb"],
        }
        for r in rows
    ]


@pytest.mark.slow
def test_sim_hotpath_replay_speedup(run_once):
    rows = run_once(_legacy_rows)
    table = format_table(
        ["model", "nodes", f"reference (s, {ROUNDS} rounds)",
         "columnar (s)", "speed-up", "signatures priced"],
        [
            [
                r["model"],
                r["nodes"],
                f"{r['ref_seconds']:.3f}",
                f"{r['col_seconds']:.3f}",
                f"{r['ref_seconds'] / r['col_seconds']:.1f}x",
                r["signatures"],
            ]
            for r in rows
        ],
        title="simulation hot path: columnar tape replay vs. reference "
              "event loop (mesh 2x8)",
    )
    emit("sim_hotpath", table)

    for r in rows:
        # the tape compiler shares pricing across the layer stacks
        # (ResNet's stages and giant head are unique, so only its trunk
        # blocks share — half the nodes is the ceiling)
        assert r["signatures"] < r["nodes"] // 2, r["model"]
        # and the whole point: pricing once, replaying often is faster
        speedup = r["ref_seconds"] / r["col_seconds"]
        assert speedup >= MIN_SPEEDUP[r["model"]], (r["model"], speedup)
        # the compiled tape is deterministic, node for node
        assert (r["nodes"], r["signatures"]) == COUNTERS[r["model"]], \
            r["model"]
        assert r["work"] == SIM_WORK, (r["model"], r["work"])
        assert r["peak_mem_mb"] <= PEAK_SLACK * PEAK_MB[r["model"]], (
            r["model"], r["peak_mem_mb"])


@pytest.mark.slow
def test_sim_columnar_zoo_and_batch(run_once):
    def run():
        return large_sweep(), batch_sweep()

    zoo, batch = run_once(run)
    table = format_table(
        ["model", "nodes", "reference (s)", "columnar (s)",
         "columnar vs reference", "peak (MB)"],
        [
            [
                r["model"],
                r["nodes"],
                f"{r['reference_s']:.4f}",
                f"{r['columnar_s']:.4f}",
                f"{r['speedup']:.1f}x",
                f"{r['peak_mem_mb']:.2f}",
            ]
            for r in zoo
        ] + [
            [
                batch["model"],
                f"{batch['plans']} plans",
                f"{batch['sequential_reference_s']:.4f}",
                f"{batch['batch_s']:.4f}",
                f"{batch['batch_speedup']:.1f}x",
                "-",
            ]
        ],
        title=f"columnar simulation: warm two-tier sweep ({ROUNDS} rounds) "
              f"+ batched what-if ({BATCH_ROUNDS} rounds) (mesh 2x8)",
    )
    emit("sim_columnar", table)
    emit_bench_json(
        "sim",
        _legacy_records(_legacy_rows()) + zoo + [batch],
        engine="columnar",
    )

    for r in zoo:
        assert r["speedup"] >= MIN_COLUMNAR_SPEEDUP[r["model"]], (
            r["model"], r["speedup"])
        assert (r["nodes"], r["signatures"]) == LARGE_COUNTERS[r["model"]], r
        assert r["peak_mem_mb"] <= PEAK_SLACK * PEAK_MB[r["model"]], (
            r["model"], r["peak_mem_mb"])
    assert batch["plans"] == BATCH_PLANS, batch
    assert batch["batch_speedup"] >= MIN_BATCH_SPEEDUP, batch
