"""Analyzer runtime — interprocedural analysis must stay CI-cheap.

``repro verify analyze`` runs on every CI push, so its cost is part of
the development loop: the whole pipeline (index ~100 modules, build the
call graph, propagate purity, run the lockset pass) has a hard 5-second
budget on the repo tree.  This benchmark times the three stages
separately, reports them (table and ``BENCH_analyze.json``) and gates
the full pipeline on that budget, so superlinear creep as the tree grows
fails here — the call graph is the quadratic risk (name dispatch ×
methods), and a silent 10× there would otherwise surface as "CI got
slow" months later.  The stage walls are sub-parts of the budgeted
pipeline and are reported, not gated separately.
"""

import time
from pathlib import Path

from repro.verify.analyze import analyze_index, analyze_paths, index_paths
from repro.viz import format_table

from common import emit, emit_bench_json

#: Hard ceiling for the full pipeline over src/repro (CI asserts it too).
BUDGET_S = 5.0

#: Timing repeats per stage — scheduler noise only ever inflates a
#: window, so the min is the honest number (same policy as the search
#: and simulation hot-path benchmarks).
REPEATS = 3

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _measure_once():
    t0 = time.perf_counter()
    index = index_paths([REPO_SRC])
    t_index = time.perf_counter() - t0

    t0 = time.perf_counter()
    diags = analyze_index(index)
    t_passes = time.perf_counter() - t0

    t0 = time.perf_counter()
    analyze_paths([REPO_SRC])
    t_total = time.perf_counter() - t0

    edges = sum(len(v) for v in index.edges.values())
    return {
        "model": "repro_tree",
        "modules": len(index.modules),
        "functions": len(index.functions),
        "call_edges": edges,
        "findings": len(diags),
        "index_s": t_index,
        "passes_s": t_passes,
        "wall_s": t_total,
    }


def measure():
    runs = [_measure_once() for _ in range(REPEATS)]
    rec = dict(runs[0])  # structure counts are identical across runs
    for key in ("index_s", "passes_s", "wall_s"):
        rec[key] = min(r[key] for r in runs)
    return rec


def test_analyze_runtime_budget():
    rec = measure()

    table = format_table(
        ["stage", "value"],
        [
            ["modules indexed", str(rec["modules"])],
            ["functions", str(rec["functions"])],
            ["call edges", str(rec["call_edges"])],
            ["findings", str(rec["findings"])],
            ["index build (s)", f"{rec['index_s']:.3f}"],
            ["purity+locks (s)", f"{rec['passes_s']:.3f}"],
            ["full pipeline (s)", f"{rec['wall_s']:.3f}"],
        ],
        title="interprocedural analyzer over src/repro",
    )
    emit("analyze_runtime", table)
    emit_bench_json("analyze", [rec])

    assert rec["wall_s"] < BUDGET_S, (
        f"analyzer took {rec['wall_s']:.2f}s (budget {BUDGET_S}s) — "
        "check the call-graph dispatch fan-out before raising the budget"
    )
    # the tree really was analyzed, not skipped
    assert rec["modules"] > 40
    assert rec["call_edges"] > 500
