"""Search hot path — the columnar fast path against the reference oracle.

Times the full Algorithm 2 derivation on the two models the paper's
scaling figures stress — a deep T5 (Fig. 9's largest depth) and a ResNet
with a ~100K-class head (Fig. 10's regime) — through both evaluation
tiers: the reference route-everything loop and the columnar array-batched
core.  The columnar tier must be pure: selected plan, cost and candidate
count are asserted identical to the reference path.

Timing is *warm*: one untimed columnar derivation populates the prune /
block / skeleton caches both tiers share, then the columnar tier is timed
as the min of several repeats and the reference oracle once, over the
same warm caches.  That is the representative regime — sweeps and
ablations derive many plans over one graph — and it is what the columnar
tier's compile-once design amortises.  The oracle runs tens of times
longer than the fast path, so one window of it is already stable.

The bench gates itself: the speed-up floor stands in for the walls (which
are reported, not gated), the deterministic work counters are pinned
exactly, and the columnar peak tracked memory is held to ``PEAK_SLACK``
times a pinned value.
"""

import time

import pytest

from repro.core import CostConfig, derive_plan
from repro.models import resnet_with_classes, t5_with_depth
from repro.viz import format_table

from common import (
    PEAK_SLACK, emit, emit_bench_json, mesh_16w, nodes_for, traced_peak_mb,
)

MODELS = (
    ("t5-24L", lambda: t5_with_depth(24), None),
    ("resnet-100K", lambda: resnet_with_classes(100_000),
     CostConfig(batch_tokens=1024)),
)

TIERS = ("reference", "columnar")

#: Timed columnar repeats (after one untimed warm-up derivation).
REPEATS = 3

#: Floor on columnar vs. reference wall clock, per model: about half the
#: lowest ratio seen on a loaded 2-vCPU host (ten runs beside a busy
#: core: t5-24L 58x-105x, resnet-100K 9.8x-15x; whole-suite runs down to
#: 7.3x on resnet-100K), so load alone does not trip it.
MIN_SPEEDUP = {"t5-24L": 25.0, "resnet-100K": 3.5}

#: Deterministic work of one derivation, pinned exactly: (candidates
#: examined, valid candidates the bound kept from pricing, rows the
#: columnar evaluator computed).  A row priced twice shows in the last
#: figure.
COUNTERS = {"t5-24L": (2927, 1928, 2927), "resnet-100K": (289, 56, 289)}

#: Peak tracked memory (MB) of one warm columnar derivation.
PEAK_MB = {"t5-24L": 1.965, "resnet-100K": 0.058}


def _timed(ng, mesh, cfg, tier):
    t0 = time.perf_counter()
    result = derive_plan(ng, mesh, cost_config=cfg, engine=tier)
    return time.perf_counter() - t0, result


def sweep():
    mesh = mesh_16w()
    rows = []
    for label, build, cfg in MODELS:
        ng = nodes_for(build())
        derive_plan(ng, mesh, cost_config=cfg)  # warm the shared caches
        col_s, col = min(
            (_timed(ng, mesh, cfg, "columnar") for _ in range(REPEATS)),
            key=lambda timed: timed[0],
        )
        ref_s, ref = _timed(ng, mesh, cfg, "reference")
        rows.append(
            {
                "model": label,
                "wall": {"reference": ref_s, "columnar": col_s},
                "results": {"reference": ref, "columnar": col},
                "peak_mb": traced_peak_mb(
                    lambda: derive_plan(ng, mesh, cost_config=cfg)
                ),
            }
        )
    return rows


@pytest.mark.slow
def test_search_hotpath_tier_speedups(run_once):
    rows = run_once(sweep)
    table = format_table(
        ["model", "reference (s)", "columnar (s)", "columnar x",
         "candidates"],
        [
            [
                r["model"],
                f"{r['wall']['reference']:.3f}",
                f"{r['wall']['columnar']:.3f}",
                f"{r['wall']['reference'] / r['wall']['columnar']:.1f}x",
                r["results"]["columnar"].candidates_examined,
            ]
            for r in rows
        ],
        title="search hot path: evaluation tiers, warm columnar min-of-%d "
              "vs. one reference run (mesh 2x8)" % REPEATS,
    )
    emit("search_hotpath", table)

    records = []
    for r in rows:
        ref_s = r["wall"]["reference"]
        for tier in TIERS:
            res = r["results"][tier]
            rec = {
                "model": f"{r['model']}@{tier}",
                "engine": tier,
                "wall_s": r["wall"][tier],
                "candidates": res.candidates_examined,
            }
            if tier == "columnar":
                rec.update(
                    speedup=ref_s / r["wall"][tier],
                    bound_skipped=res.bound_skipped,
                    rows_priced=res.rows_priced,
                    peak_mem_mb=r["peak_mb"],
                )
            records.append(rec)
    emit_bench_json("search", records, engine="mixed")

    for r in rows:
        ref = r["results"]["reference"]
        res = r["results"]["columnar"]
        # the fast path is pure: identical selection, exactly
        assert res.plan.as_dict == ref.plan.as_dict, r["model"]
        assert res.plan.tp_degree == ref.plan.tp_degree, r["model"]
        assert res.cost == ref.cost, r["model"]
        assert res.candidates_examined == ref.candidates_examined, r["model"]
        # the bound only skips pricing valid candidates
        assert (res.valid_plans + res.bound_skipped
                == ref.valid_plans), r["model"]
        # the work is deterministic: the bound skips exactly as many
        assert (res.candidates_examined, res.bound_skipped,
                res.rows_priced) == COUNTERS[r["model"]], r["model"]
        assert ref.rows_priced == 0, r["model"]
        # and the whole point: it is much faster
        speedup = r["wall"]["reference"] / r["wall"]["columnar"]
        assert speedup >= MIN_SPEEDUP[r["model"]], (r["model"], speedup)
        assert r["peak_mb"] <= PEAK_SLACK * PEAK_MB[r["model"]], (
            r["model"], r["peak_mb"])
