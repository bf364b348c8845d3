"""Fig. 10 — end-to-end search time, scaling ResNet classifier width.

The paper widens ResNet-50's classification layer (1024 up to hundreds of
thousands of classes) and reports TAP two orders of magnitude faster than
Alpa (103x–162x).  The Alpa-like comparator profiles operators at their
true widths and searches the unpruned graph, so its time grows with the
classifier; TAP prunes to the bottleneck families plus the single FC node.
"""

import pytest

from repro.baselines import alpa_like_search
from repro.core import CostConfig, derive_plan
from repro.models import resnet_with_classes
from repro.viz import format_series, format_table

from common import emit, nodes_for, mesh_16w

CLASS_COUNTS = (1024, 16384, 65536, 262144)
CFG = CostConfig(batch_tokens=1024)  # the paper trains ResNet at batch 1024

#: Timed TAP searches per width (the best is kept).
TAP_REPEATS = 5


def _alpa(ng, mesh):
    # Alpa profiles every distinct operator at its real width and runs
    # repeated DP/intra passes over the unpruned graph
    return alpa_like_search(
        ng, mesh, cost_config=CFG, num_candidates=16,
        stage_counts=(2, 4, 8), microbatch_counts=(2, 4, 8),
    )


def sweep():
    mesh = mesh_16w()
    rows = []
    # warm-up outside the timed sweep, on a width the sweep does not
    # visit: the first searches pay BLAS initialisation, the cost model's
    # collective-pricing caches and the profile of the shared trunk —
    # one-time process costs that would otherwise land on the first row
    # only, so every row pays exactly its own width's work
    warm = nodes_for(resnet_with_classes(16))
    derive_plan(warm, mesh, cost_config=CFG)
    _alpa(warm, mesh)
    widths = []
    for classes in CLASS_COUNTS:
        model = resnet_with_classes(classes)
        widths.append((classes, model.num_parameters(), nodes_for(model)))
    # best of TAP_REPEATS per width: the search is ~15 ms, and both the
    # flatness and the widening-ratio assertions below divide by it.  The
    # repeats run round-robin across the widths, so a slow host phase
    # lands on every width alike instead of on one width's repeats.
    taps = [None] * len(widths)
    for _ in range(TAP_REPEATS):
        for i, (_classes, _params, ng) in enumerate(widths):
            tap = derive_plan(ng, mesh, cost_config=CFG)
            if taps[i] is None or tap.search_seconds < taps[i].search_seconds:
                taps[i] = tap
    rows = []
    for (classes, params, ng), tap in zip(widths, taps):
        alpa = _alpa(ng, mesh)
        rows.append(
            {
                "classes": classes,
                "params": params,
                "tap_seconds": tap.search_seconds,
                "alpa_seconds": alpa.search_seconds,
                "fc_pattern": next(
                    (v for k, v in tap.plan.as_dict.items() if k.endswith("head/fc")),
                    "replicate",
                ),
            }
        )
    return rows


@pytest.mark.slow
def test_fig10_search_time_resnet_width(run_once):
    rows = run_once(sweep)
    table = format_table(
        ["classes", "params (M)", "TAP (s)", "Alpa-like (s)", "speed-up",
         "fc decision"],
        [
            [
                r["classes"],
                f"{r['params'] / 1e6:.0f}",
                f"{r['tap_seconds']:.2f}",
                f"{r['alpa_seconds']:.2f}",
                f"{r['alpa_seconds'] / r['tap_seconds']:.1f}x",
                r["fc_pattern"],
            ]
            for r in rows
        ],
        title="Fig. 10: end-to-end search time vs. classifier width (mesh 2x8)",
    )
    series = "\n".join(
        [
            format_series("tap", [(r["classes"], round(r["tap_seconds"], 2)) for r in rows], "s"),
            format_series("alpa", [(r["classes"], round(r["alpa_seconds"], 2)) for r in rows], "s"),
        ]
    )
    emit("fig10_search_resnet", table + "\n" + series)

    tap_times = [r["tap_seconds"] for r in rows]
    speedups = [r["alpa_seconds"] / r["tap_seconds"] for r in rows]
    detail = "; ".join(
        f"{r['classes']} classes: TAP {r['tap_seconds'] * 1e3:.1f} ms, "
        f"Alpa-like {r['alpa_seconds'] * 1e3:.1f} ms, {s:.1f}x"
        for r, s in zip(rows, speedups)
    )
    # TAP's search stays flat while the classifier widens 256x
    assert max(tap_times) < 3 * min(tap_times), detail
    # Alpa-like slows down as the model widens (profiling + search at width)
    assert rows[-1]["alpa_seconds"] > rows[0]["alpa_seconds"], detail
    # TAP is faster at every width, and by a growing factor
    assert all(s > 1 for s in speedups), detail
    assert speedups[-1] > speedups[0], detail
    # the wide classifier itself is sharded (the motivating §3.3 case)
    assert rows[-1]["fc_pattern"] != "replicate", rows[-1]["fc_pattern"]
